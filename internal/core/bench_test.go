package core

import (
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/workload"
)

// BenchmarkCycleLoop measures the cycle loop per model on the gcc proxy
// in two run shapes: a cold 10k-instruction run, as the experiment suite
// does at its default budget, and a 1.5k run whose first 1k
// instructions are detailed warmup, the shape of one sampled interval of
// the suite's samp-err experiment. Each sub-benchmark reports ns/cycle:
// the time in Run (core.New is not timed) over every simulated cycle,
// warmup included.
//
//	go test ./internal/core -run '^$' -bench CycleLoop
func BenchmarkCycleLoop(b *testing.B) {
	spec, ok := workload.Get("gcc")
	if !ok {
		b.Fatal("no gcc proxy")
	}
	shapes := []struct {
		name        string
		instr, warm int64
	}{
		{"cold-10k", 10_000, 0},
		{"interval-1.5k", 1_500, 1_000},
	}
	for _, sh := range shapes {
		tr, err := spec.BuildTrace(sh.instr)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []config.Model{config.Baseline, config.NoSQ, config.DMDP, config.Perfect, config.FnF} {
			cfg := config.Default(m)
			cfg.WarmupInstructions = sh.warm
			b.Run(sh.name+"/"+m.String(), func(b *testing.B) {
				var cycles int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c, err := New(cfg, tr)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := c.Run(); err != nil {
						b.Fatal(err)
					}
					cycles += c.now
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
			})
		}
	}
}
