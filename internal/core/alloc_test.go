package core

import (
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/mem"
	"dmdp/internal/trace"
)

// bigOCPattern is the occasionally-colliding pointer sweep of ocPattern
// scaled up so the simulation runs for hundreds of thousands of cycles:
// the allocation guard must be able to warm up and then measure thousands
// of steady-state cycles without the trace running out.
const bigOCPattern = `
	.data
ptrs:
	.word x0, x1, x0, x0, x1, x0, x1, x1
x0:
	.word 0
x1:
	.word 0
	.text
main:
	li $t0, 20000      # outer iterations
outer:
	la $t1, ptrs
	li $t2, 8          # 8 pointers per sweep
inner:
	lw $t3, 0($t1)     # ptr = a[i]
	lw $t4, 0($t3)     # x[ptr]
	addi $t4, $t4, 1
	sw $t4, 0($t3)     # x[ptr]++
	addi $t1, $t1, 4
	addi $t2, $t2, -1
	bnez $t2, inner
	addi $t0, $t0, -1
	bnez $t0, outer
	halt
`

// TestCycleLoopDoesNotAllocate is the allocation-regression guard for the
// tentpole of the perf overhaul: after warmup, one simulated cycle must
// perform zero heap allocations. The workload mixes ALU ops, branches,
// loads, stores, cloaking, predication, retire-time verification and the
// occasional dependence-exception flush, so every stage of the steady
// loop is exercised.
func TestCycleLoopDoesNotAllocate(t *testing.T) {
	tr := traceOf(t, bigOCPattern, 400_000)
	for _, m := range []config.Model{config.Baseline, config.NoSQ, config.DMDP} {
		cfg := config.Default(m)
		c, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		window := cfg.Watchdog.NoRetireWindow
		if window <= 0 {
			window = config.DefaultNoRetireWindow
		}
		// Warm up: fill the pools, grow the scratch slices and heaps to
		// their steady capacity.
		for i := 0; i < 30_000 && !c.done; i++ {
			c.step(window, 0)
		}
		if c.done {
			t.Fatalf("%s: trace too short: simulation finished during warmup", m)
		}
		avg := testing.AllocsPerRun(5_000, func() {
			c.step(window, 0)
		})
		if c.done || c.simErr != nil {
			t.Fatalf("%s: simulation ended during measurement (err=%v)", m, c.simErr)
		}
		if avg != 0 {
			t.Errorf("%s: steady-state cycle loop allocates %.3f objects/cycle, want 0", m, avg)
		}
	}
}

// withPages returns a copy of tr whose initial image holds n pages.
func withPages(tr *trace.Trace, n int) *trace.Trace {
	img := mem.NewImage()
	for i := 0; i < n; i++ {
		img.SetWord(uint32(i)*mem.PageSize, uint32(i))
	}
	cp := *tr
	cp.InitMem = img
	return &cp
}

// TestNewAllocs pins the allocation count of building a core. Per-run
// construction must not scale with the trace's memory image (Clone is
// copy-on-write) or with the L2 (each cache level is one flat array).
func TestNewAllocs(t *testing.T) {
	const want = 50
	tr := traceOf(t, aluLoop, 10_000)
	allocs := func(cfg config.Config, tr *trace.Trace) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := New(cfg, tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	cfg := config.Default(config.DMDP)
	if got := allocs(cfg, withPages(tr, 1024)); got != want {
		t.Errorf("core.New over a 1024-page image: %.0f allocations, want %d", got, want)
	}
	if got := allocs(cfg, withPages(tr, 4096)); got != want {
		t.Errorf("core.New over a 4096-page image: %.0f allocations, want %d", got, want)
	}
	big := cfg
	big.Hierarchy.L2.SizeBytes *= 4
	if got := allocs(big, withPages(tr, 1024)); got != want {
		t.Errorf("core.New with a 4x larger L2: %.0f allocations, want %d", got, want)
	}
}
