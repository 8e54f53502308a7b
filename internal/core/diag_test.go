package core

import (
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/workload"
)

// TestDiagBench reports (under -v) which load PCs cause the most
// dependence exceptions on two churn-prone proxies — a calibration aid,
// not an assertion.
func TestDiagBench(t *testing.T) {
	for _, name := range []string{"mcf", "astar"} {
		for _, m := range []config.Model{config.NoSQ, config.DMDP} {
			s, _ := workload.Get(name)
			tr, err := s.BuildTrace(100000)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := New(config.Default(m), tr)
			pcs := map[uint32]int{}
			cats := map[uint32]LoadCategory{}
			c.onDepMispredict = func(in *inst) { pc := c.entry(in).PC; pcs[pc]++; cats[pc] = in.cat }
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			for pc, n := range pcs {
				if n > 20 {
					e, _ := tr.Prog.InstrAt(pc)
					t.Logf("%s/%s pc 0x%x %-18s cat=%s n=%d", name, m, pc, e.String(), cats[pc], n)
				}
			}
		}
	}
}
