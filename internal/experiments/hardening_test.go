package experiments

import (
	"errors"
	"strings"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/faults"
	"dmdp/internal/sampling"
)

// poisonedRunner makes hmmer's default DMDP machine fail: a run with
// value corruption enabled produces a genuine oracle failure (with retry
// and diagnostics), and its cached result is then aliased onto the
// default DMDP digest. Results are keyed by machine digest, so the
// faulted config alone would (correctly) never be consulted by the
// experiments — these tests exercise failure isolation regardless of how
// the default machine came to fail.
func poisonedRunner(t *testing.T) *Runner {
	t.Helper()
	r := NewRunner(Options{
		Budget:     4000,
		Benchmarks: []string{"hmmer", "bzip2"},
		Parallel:   false,
	})
	cfg := config.Default(config.DMDP).WithFaults(faults.Config{Seed: 5, ValueCorruptRate: 0.01})
	if _, err := r.Run("hmmer", cfg, "dmdp"); err == nil {
		t.Fatal("poisoned run unexpectedly succeeded")
	}
	def := config.Default(config.DMDP)
	r.mu.Lock()
	src := r.calls[runKey{bench: "hmmer", digest: cfg.Digest(), budget: r.opt.Budget}]
	r.calls[runKey{bench: "hmmer", digest: def.Digest(), budget: r.opt.Budget}] = &flight[*core.Stats]{res: src.res}
	r.mu.Unlock()
	return r
}

// hasRow reports whether a table has a data row for the benchmark.
func hasRow(table, bench string) bool {
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), bench) {
			return true
		}
	}
	return false
}

// One corrupted benchmark must not sink the suite: its rows drop out,
// the other benchmarks still render, and the failure table names it.
func TestExperimentsSurvivePoisonedBenchmark(t *testing.T) {
	r := poisonedRunner(t)

	out, err := TableVI(r)
	if err != nil {
		t.Fatalf("TableVI aborted instead of degrading: %v", err)
	}
	// The footnote quotes the paper's hmmer figures as static text, so
	// look for a data row (line starting with the benchmark name).
	if hasRow(out, "hmmer") {
		t.Errorf("poisoned benchmark still has a row:\n%s", out)
	}
	if !hasRow(out, "bzip2") {
		t.Errorf("healthy benchmark lost its row:\n%s", out)
	}

	fs := r.Failures()
	if len(fs) != 1 {
		t.Fatalf("%d failures recorded, want 1: %+v", len(fs), fs)
	}
	f := fs[0]
	if f.Bench != "hmmer" || f.Label != "dmdp" {
		t.Errorf("failure misattributed: %+v", f)
	}
	if !f.Retried {
		t.Error("failed run was not retried before being declared failed")
	}
	var se *core.SimError
	if !errors.As(f.Err, &se) || se.Kind != core.ErrOracle {
		t.Errorf("failure does not carry the oracle SimError: %v", f.Err)
	}
	if f.Diagnostic == "" || !strings.Contains(f.Diagnostic, "last") {
		t.Errorf("diagnostic bundle missing or truncated: %q", f.Diagnostic)
	}

	table := r.FailureTable()
	for _, want := range []string{"hmmer", "dmdp", "oracle"} {
		if !strings.Contains(table, want) {
			t.Errorf("failure table missing %q:\n%s", want, table)
		}
	}
}

// The negative cache must return the same failure without re-simulating
// (and without consuming another retry) and must not duplicate the
// failure record.
func TestFailureNegativelyCached(t *testing.T) {
	r := poisonedRunner(t)
	sims := r.sims.Load()
	_, err1 := r.RunModel("hmmer", config.DMDP)
	_, err2 := r.RunModel("hmmer", config.DMDP)
	if err1 == nil || err2 == nil {
		t.Fatal("cached failure must keep failing")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("cached failure changed: %v vs %v", err1, err2)
	}
	if got := r.sims.Load(); got != sims {
		t.Fatalf("cached failure re-simulated: %d runs, had %d", got, sims)
	}
	if n := len(r.Failures()); n != 1 {
		t.Fatalf("failure recorded %d times, want 1", n)
	}
}

// Prefetch records failures and keeps warming the rest of the suite,
// surfacing an aggregate error count instead of aborting on the first
// broken run.
func TestPrefetchTolerantOfFailures(t *testing.T) {
	r := poisonedRunner(t)
	err := r.Prefetch()
	if err == nil {
		t.Fatal("prefetch over a failing run must surface an aggregate error")
	}
	if !strings.Contains(err.Error(), "1 of") {
		t.Fatalf("aggregate error lacks the failure count: %v", err)
	}
	if len(r.Failures()) != 1 {
		t.Fatalf("failures after prefetch: %+v", r.Failures())
	}
	// The healthy benchmark's default runs are all warm and usable.
	if _, err := r.RunModel("bzip2", config.DMDP); err != nil {
		t.Fatalf("healthy benchmark unusable after prefetch: %v", err)
	}
}

// A panicking simulation is converted into a recorded failure with a
// trimmed stack, not a crashed suite.
func TestPanicConvertedToFailure(t *testing.T) {
	r := NewRunner(Options{
		Budget:     4000,
		Benchmarks: []string{"hmmer"},
		Parallel:   false,
	})
	// An invalid configuration that slips past Validate: a zero-size
	// T-SSBF makes the core's modulo indexing panic.
	cfg := config.Default(config.DMDP)
	cfg.TSSBF.Sets = 0
	_, err := r.Run("hmmer", cfg, "dmdp-broken")
	if err == nil {
		t.Skip("configuration no longer panics; pick another panic source")
	}
	fs := r.Failures()
	if len(fs) != 1 {
		t.Fatalf("%d failures, want 1", len(fs))
	}
	if !fs[0].Panicked {
		t.Errorf("panic not flagged: %+v", fs[0])
	}
	if !strings.Contains(fs[0].Err.Error(), "panic:") {
		t.Errorf("error does not carry the panic: %v", fs[0].Err)
	}
}

// A failed machine run and a failed sampled run are Failure rows like a
// failed single-core run: the table drops the benchmark's row, the
// failure table names the run, and the other benchmarks still render.
func TestFailedMachineAndSampledRunsAreFailureRows(t *testing.T) {
	r := NewRunner(Options{Budget: 4000, Benchmarks: []string{"hmmer", "bzip2"}, Parallel: false})
	machine := mcSpec("hmmer", config.DMDP, 4)
	badMachine := machine
	badMachine.Cfg.MaxGlobalCycles = 10 // a bound the run cannot meet
	if _, err := r.RunMachine(badMachine); err == nil {
		t.Fatal("bounded machine run unexpectedly succeeded")
	}
	sampled := r.sampErrSpec("hmmer", config.DMDP, false)
	badSampled := sampled
	badSampled.Spec = sampling.Spec{Count: 10, Len: 1_000_000} // longer than the trace
	if _, err := r.RunSampled(badSampled); err == nil {
		t.Fatal("oversized sampled run unexpectedly succeeded")
	}
	// Alias both failures onto the runs the tables declare, as
	// poisonedRunner does for a single-core run.
	r.mu.Lock()
	r.machines[r.machineKey(machine)] = r.machines[r.machineKey(badMachine)]
	r.sampled[r.sampledKey(sampled)] = r.sampled[r.sampledKey(badSampled)]
	r.mu.Unlock()

	for _, e := range []Experiment{mustExperiment(t, "mc-ipc"), mustExperiment(t, "samp-err")} {
		out, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s aborted instead of degrading: %v", e.ID, err)
		}
		if hasRow(out, "hmmer") {
			t.Errorf("%s: failed benchmark still has a row:\n%s", e.ID, out)
		}
		if !hasRow(out, "bzip2") {
			t.Errorf("%s: healthy benchmark lost its row:\n%s", e.ID, out)
		}
	}
	fs := r.Failures()
	if len(fs) != 2 {
		t.Fatalf("%d failures recorded, want 2: %+v", len(fs), fs)
	}
	var se *core.SimError
	if fs[0].Bench != "hmmer" || fs[0].Label != "dmdp 4c" || !errors.As(fs[0].Err, &se) || se.Kind != core.ErrWatchdog {
		t.Errorf("machine failure misreported: %+v", fs[0])
	}
	if fs[1].Bench != "hmmer" || fs[1].Label != "dmdp sampled" || !strings.Contains(fs[1].Err.Error(), "exceed trace length") {
		t.Errorf("sampled failure misreported: %+v", fs[1])
	}
	if table := r.FailureTable(); !strings.Contains(table, "dmdp 4c") || !strings.Contains(table, "dmdp sampled") {
		t.Errorf("failure table lacks the machine or sampled row:\n%s", table)
	}
}

func mustExperiment(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	return e
}
