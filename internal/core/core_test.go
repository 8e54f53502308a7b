package core

import (
	"sync"
	"testing"

	"dmdp/internal/asm"
	"dmdp/internal/config"
	"dmdp/internal/emu"
	"dmdp/internal/trace"
)

// traceOf assembles and emulates src, returning the analyzed trace.
func traceOf(t *testing.T, src string, max int64) *trace.Trace {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	tr, err := emu.Run(p, max)
	if err != nil {
		t.Fatalf("emulate: %v", err)
	}
	return tr
}

// runModel simulates the trace under the model, failing on any error or
// broken invariant.
func runModel(t *testing.T, tr *trace.Trace, model config.Model) *Stats {
	t.Helper()
	return runCfg(t, tr, config.Default(model))
}

func runCfg(t *testing.T, tr *trace.Trace, cfg config.Config) *Stats {
	t.Helper()
	c, err := New(cfg, tr)
	if err != nil {
		t.Fatalf("new core: %v", err)
	}
	st, err := c.Run()
	if err != nil {
		t.Fatalf("run (%s): %v", cfg.Model, err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants (%s): %v", cfg.Model, err)
	}
	if st.Instructions != int64(len(tr.Entries)) {
		t.Fatalf("retired %d of %d instructions (%s)", st.Instructions, len(tr.Entries), cfg.Model)
	}
	return st
}

var allModels = []config.Model{config.Baseline, config.NoSQ, config.DMDP, config.Perfect, config.FnF}

const aluLoop = `
	li $t0, 200
	li $t1, 0
loop:
	add $t1, $t1, $t0
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`

func TestALULoopAllModels(t *testing.T) {
	tr := traceOf(t, aluLoop, 100000)
	for _, m := range allModels {
		st := runModel(t, tr, m)
		if st.IPC() <= 0.3 {
			t.Errorf("%s: IPC %.2f implausibly low", m, st.IPC())
		}
		if st.DepMispredicts != 0 {
			t.Errorf("%s: dep mispredicts on a pure ALU loop", m)
		}
	}
}

// Always-colliding pattern: a register spill/fill through the stack.
const acPattern = `
	li $t0, 500
	li $t2, 1
loop:
	sw $t2, -4($sp)
	lw $t3, -4($sp)
	add $t2, $t3, $t2
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`

func TestACPatternCloaks(t *testing.T) {
	tr := traceOf(t, acPattern, 100000)
	for _, m := range []config.Model{config.NoSQ, config.DMDP} {
		st := runModel(t, tr, m)
		if st.Cloaks < 100 {
			t.Errorf("%s: only %d cloaks on an always-colliding pattern", m, st.Cloaks)
		}
		if st.MPKI() > 10 {
			t.Errorf("%s: MPKI %.1f too high on AC pattern", m, st.MPKI())
		}
	}
	// Perfect must bypass these loads too.
	st := runModel(t, tr, config.Perfect)
	if st.Cloaks < 100 {
		t.Errorf("perfect: only %d cloaks", st.Cloaks)
	}
}

// Occasionally-colliding pattern (paper Fig. 1): pointers read from an
// alternating table; the increment collides only when consecutive
// pointers match.
const ocPattern = `
	.data
ptrs:
	.word x0, x1, x0, x0, x1, x0, x1, x1
x0:
	.word 0
x1:
	.word 0
	.text
main:
	li $t0, 300        # outer iterations
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

func TestOCPatternMechanisms(t *testing.T) {
	tr := traceOf(t, ocPattern, 100000)

	nosq := runModel(t, tr, config.NoSQ)
	if nosq.DelayedLoads == 0 {
		t.Error("nosq: no delayed loads on an OC pattern")
	}
	if nosq.Predications != 0 {
		t.Error("nosq: must not insert predication")
	}

	dmdp := runModel(t, tr, config.DMDP)
	if dmdp.Predications == 0 {
		t.Error("dmdp: no predications on an OC pattern")
	}
	if dmdp.DelayedLoads != 0 {
		t.Error("dmdp: must not delay loads")
	}

	perfect := runModel(t, tr, config.Perfect)
	if perfect.DepMispredicts != 0 || perfect.Reexecs != 0 {
		t.Error("perfect: must never mispredict or re-execute")
	}

	// The oracle should beat or match both mechanisms.
	if perfect.IPC() < nosq.IPC()*0.98 || perfect.IPC() < dmdp.IPC()*0.98 {
		t.Errorf("perfect IPC %.3f below nosq %.3f / dmdp %.3f",
			perfect.IPC(), nosq.IPC(), dmdp.IPC())
	}
}

func TestBaselineForwarding(t *testing.T) {
	tr := traceOf(t, acPattern, 100000)
	st := runModel(t, tr, config.Baseline)
	if st.SQSearches == 0 {
		t.Error("baseline: no store queue searches")
	}
	if st.Cloaks != 0 || st.Predications != 0 || st.DelayedLoads != 0 {
		t.Error("baseline: SQ-free mechanisms must be off")
	}
}

func TestPartialWordForcedPredication(t *testing.T) {
	// sh/lhu through the same halfword: always-colliding partial-word
	// accesses, which DMDP must predicate rather than cloak.
	src := `
	li $t0, 300
	li $t2, 7
loop:
	sh $t2, -8($sp)
	lhu $t3, -8($sp)
	add $t2, $t2, $t3
	andi $t2, $t2, 0x7fff
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`
	tr := traceOf(t, src, 100000)
	dmdp := runModel(t, tr, config.DMDP)
	if dmdp.Predications < 100 {
		t.Errorf("dmdp: partial-word loads should be predicated, got %d", dmdp.Predications)
	}
	if dmdp.Cloaks != 0 {
		t.Errorf("dmdp: partial-word loads must not cloak, got %d cloaks", dmdp.Cloaks)
	}
}

func TestSilentStoreTraining(t *testing.T) {
	// Two stores to the same address, writing identical values; the
	// load collides with the second (silent) one. The
	// silent-store-aware policy should learn the dependence rather
	// than re-execute forever (paper Fig. 10).
	src := `
	li $t0, 400
	li $t2, 5
loop:
	sw $t2, -16($sp)
	sw $t2, -16($sp)
	lw $t3, -16($sp)
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`
	tr := traceOf(t, src, 100000)
	st := runModel(t, tr, config.DMDP)
	// Re-executions happen at first but training must cap them well
	// below the iteration count.
	if st.Reexecs > 100 {
		t.Errorf("silent stores caused %d re-executions; predictor not learning", st.Reexecs)
	}
}

func TestLoadCategoriesAccounted(t *testing.T) {
	tr := traceOf(t, ocPattern, 100000)
	for _, m := range allModels {
		st := runModel(t, tr, m)
		if st.TotalLoads() != tr.Loads {
			t.Errorf("%s: accounted %d loads, trace has %d", m, st.TotalLoads(), tr.Loads)
		}
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// A store-heavy streaming loop with a tiny store buffer must stall.
	src := `
	li $t0, 2000
	li $t1, 0x10100000
loop:
	sw $t0, 0($t1)
	addi $t1, $t1, 64
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`
	tr := traceOf(t, src, 100000)
	small := config.Default(config.DMDP).WithStoreBuffer(2)
	big := config.Default(config.DMDP).WithStoreBuffer(64)
	s1 := runCfg(t, tr, small)
	s2 := runCfg(t, tr, big)
	if s1.SBFullStall <= s2.SBFullStall {
		t.Errorf("small SB stalls %d should exceed big SB stalls %d", s1.SBFullStall, s2.SBFullStall)
	}
	if s1.Cycles <= s2.Cycles {
		t.Errorf("small SB (%d cycles) should be slower than big SB (%d)", s1.Cycles, s2.Cycles)
	}
}

func TestRMORuns(t *testing.T) {
	tr := traceOf(t, ocPattern, 100000)
	cfg := config.Default(config.DMDP).WithConsistency(config.RMO)
	st := runCfg(t, tr, cfg)
	if st.IPC() <= 0 {
		t.Error("rmo: zero IPC")
	}
}

func TestIssueWidthMatters(t *testing.T) {
	tr := traceOf(t, aluLoop, 100000)
	wide := runCfg(t, tr, config.Default(config.DMDP))
	narrow := runCfg(t, tr, config.Default(config.DMDP).WithIssueWidth(1))
	if narrow.Cycles <= wide.Cycles {
		t.Errorf("1-wide (%d cycles) not slower than 8-wide (%d)", narrow.Cycles, wide.Cycles)
	}
}

func TestBranchMispredictsCostCycles(t *testing.T) {
	// Data-dependent branches on a pseudo-random sequence.
	src := `
	li $t0, 2000
	li $t1, 12345
loop:
	mul $t1, $t1, $t1
	addi $t1, $t1, 17
	andi $t2, $t1, 1
	beqz $t2, skip
	addi $t3, $t3, 1
skip:
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`
	tr := traceOf(t, src, 100000)
	st := runModel(t, tr, config.DMDP)
	if st.BranchMispredicts == 0 {
		t.Error("expected branch mispredictions on random data")
	}
	if st.FetchStallCycles == 0 {
		t.Error("mispredictions should stall fetch")
	}
}

func TestDeterminism(t *testing.T) {
	tr := traceOf(t, ocPattern, 100000)
	for _, m := range allModels {
		a := runModel(t, tr, m)
		b := runModel(t, tr, m)
		// The wall clock is the one field allowed to differ between runs.
		a.SimWallClockNS, b.SimWallClockNS = 0, 0
		if *a != *b {
			t.Errorf("%s: nondeterministic stats", m)
		}
	}
}

func TestRecoveryPreservesCorrectness(t *testing.T) {
	// A hostile pattern: the colliding distance changes every
	// iteration, defeating the distance predictor and forcing
	// exceptions and recoveries. Every model must still retire all
	// loads with correct values (checked internally by Run).
	src := `
	.data
slots:
	.word 0, 0, 0, 0
	.text
main:
	li $t0, 400
	la $t1, slots
loop:
	andi $t2, $t0, 3      # rotating slot index
	sll $t2, $t2, 2
	add $t3, $t1, $t2
	sw $t0, 0($t3)        # store to rotating slot
	andi $t4, $t0, 1
	sll $t4, $t4, 2
	add $t5, $t1, $t4
	lw $t6, 0($t5)        # load from a different rotation
	add $t7, $t7, $t6
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`
	tr := traceOf(t, src, 100000)
	for _, m := range allModels {
		st := runModel(t, tr, m)
		if m != config.Perfect && m != config.Baseline && st.Reexecs == 0 {
			t.Errorf("%s: expected re-executions on hostile pattern", m)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &trace.Trace{}
	c, err := New(config.Default(config.DMDP), tr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run()
	if err != nil || st.Instructions != 0 {
		t.Fatalf("empty trace: %v %+v", err, st)
	}
}

// TestNewLeavesTraceUntouched builds cores concurrently over one trace,
// with and without an initial image: New only reads the trace, every
// core writes its own copy of the image, and results match a serial run.
func TestNewLeavesTraceUntouched(t *testing.T) {
	bare := *traceOf(t, aluLoop, 20000) // reads no memory
	bare.InitMem = nil
	for _, tr := range []*trace.Trace{traceOf(t, ocPattern, 20000), &bare} {
		want := make([]int64, len(allModels))
		for i, m := range allModels {
			want[i] = runModel(t, tr, m).Cycles
		}
		var wg sync.WaitGroup
		got := make([]int64, len(allModels))
		errs := make([]error, len(allModels))
		for i, m := range allModels {
			wg.Add(1)
			go func(i int, m config.Model) {
				defer wg.Done()
				c, err := New(config.Default(m), tr)
				if err != nil {
					errs[i] = err
					return
				}
				st, err := c.Run()
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = st.Cycles
			}(i, m)
		}
		wg.Wait()
		for i, m := range allModels {
			if errs[i] != nil {
				t.Fatalf("%s: %v", m, errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("%s: %d cycles concurrently, %d serially", m, got[i], want[i])
			}
		}
	}
	if bare.InitMem != nil {
		t.Fatal("New installed an image in its caller's trace")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := config.Default(config.DMDP)
	cfg.ROBSize = 0
	tr := traceOf(t, "halt", 10)
	if _, err := New(cfg, tr); err == nil {
		t.Fatal("expected config validation error")
	}
}

func TestUopsExceedInstructionsUnderPredication(t *testing.T) {
	tr := traceOf(t, ocPattern, 100000)
	dmdp := runModel(t, tr, config.DMDP)
	nosq := runModel(t, tr, config.NoSQ)
	if dmdp.Uops <= nosq.Uops {
		t.Errorf("dmdp uops %d should exceed nosq %d (extra CMP/CMOVs)", dmdp.Uops, nosq.Uops)
	}
}

func TestFnFModel(t *testing.T) {
	tr := traceOf(t, acPattern, 100000)
	st := runModel(t, tr, config.FnF)
	if st.Cloaks < 100 {
		t.Errorf("fnf: store-side forwarding should cloak AC loads, got %d", st.Cloaks)
	}
	if st.Predications != 0 || st.DelayedLoads != 0 {
		t.Error("fnf: must not predicate or delay")
	}
	// OC pattern: FnF must stay correct (value check is internal).
	tr2 := traceOf(t, ocPattern, 100000)
	st2 := runModel(t, tr2, config.FnF)
	if st2.IPC() <= 0 {
		t.Error("fnf: zero IPC on OC pattern")
	}
}

// TestFnFPathInsensitivity measures the paper's stated reason for
// preferring NoSQ (§VII): with branches between store and load choosing
// different store counts, the store-side predictor cannot disambiguate
// paths, while NoSQ's load-side path-sensitive predictor can.
func TestFnFPathInsensitivity(t *testing.T) {
	// Alternating-path store->load pattern: the consumer load's distance
	// from the colliding store differs per path.
	src := `
	.data
slot:	.space 16
	.text
main:
	la $t8, slot
	li $t0, 2000
	li $t2, 7
loop:
	andi $t6, $t0, 1
	sw $t2, 0($t8)
	beqz $t6, skip
	lw $t9, 4($t8)      # extra load shifts the load-distance on this path
skip:
	lw $t3, 0($t8)      # always collides with the sw above
	add $t2, $t2, $t3
	andi $t2, $t2, 1023
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`
	tr := traceOf(t, src, 100000)
	fnf := runModel(t, tr, config.FnF)
	nosq := runModel(t, tr, config.NoSQ)
	// The load-side predictor sees a constant store distance (0) on both
	// paths; the store-side predictor sees an alternating load distance.
	if fnf.MPKI() < nosq.MPKI() {
		t.Errorf("expected FnF to mispredict at least as much as NoSQ on path-dependent consumers: fnf %.2f vs nosq %.2f",
			fnf.MPKI(), nosq.MPKI())
	}
}

func TestWarmupDiscardsEarlyStats(t *testing.T) {
	tr := traceOf(t, ocPattern, 40000)
	full := runCfg(t, tr, config.Default(config.DMDP))
	warmCfg := config.Default(config.DMDP).WithWarmup(10000)
	c, err := New(warmCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantInstr := int64(len(tr.Entries)) - 10000 // warmup includes the boundary instruction
	if warm.Instructions != wantInstr {
		t.Fatalf("measured %d instructions, want %d", warm.Instructions, wantInstr)
	}
	if warm.Cycles >= full.Cycles {
		t.Fatalf("warm window cycles %d should be below full %d", warm.Cycles, full.Cycles)
	}
	// Steady-state IPC with warm structures should not be below the
	// cold-start-inclusive IPC.
	if warm.IPC() < full.IPC()*0.95 {
		t.Fatalf("warm IPC %.3f unexpectedly below full %.3f", warm.IPC(), full.IPC())
	}
}

func TestWarmupEqualToTraceStillTerminates(t *testing.T) {
	tr := traceOf(t, aluLoop, 100000)
	cfg := config.Default(config.DMDP).WithWarmup(int64(len(tr.Entries)))
	c, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 0 {
		t.Fatalf("everything warmed away, measured %d", st.Instructions)
	}
}
