package experiments

import (
	"strings"
	"sync"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/sampling"
)

// smallRunner uses a tiny budget and a benchmark subset so every
// experiment can execute quickly in tests.
func smallRunner() *Runner {
	return NewRunner(Options{
		Budget:     4000,
		Benchmarks: []string{"perl", "hmmer", "milc", "wrf"},
		Parallel:   false,
	})
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	r := smallRunner()
	for _, e := range All() {
		out, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !strings.Contains(out, "perl") && !strings.Contains(out, "dmdp") {
			t.Errorf("%s: output lacks benchmark rows:\n%s", e.ID, out)
		}
		// Every benchmark in the subset appears.
		for _, b := range r.Benchmarks() {
			if e.ID == "alt-prf160" {
				continue // summary-only output
			}
			if !strings.Contains(out, b) {
				t.Errorf("%s: missing row for %s", e.ID, b)
			}
		}
	}
}

// TestSampErrWarmRows: with SampleWarm the samp-err table carries a
// "+warm" row per benchmark, a separate warmed mean-|error| footer, and
// no cold-start daggers (the materialized path always reconstructs warm
// state).
func TestSampErrWarmRows(t *testing.T) {
	r := NewRunner(Options{
		Budget:     20_000,
		Benchmarks: []string{"gcc", "mcf"},
		Parallel:   false,
		SampleWarm: true,
	})
	out, err := SampErr(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gcc+warm", "mcf+warm", "mean |error| (warmed):", "mean |error|:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("samp-err output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "†") {
		t.Fatalf("materialized samp-err rows claim cold starts:\n%s", out)
	}
}

func TestRunnerCachesResults(t *testing.T) {
	r := smallRunner()
	a, err := r.RunModel("perl", config.DMDP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunModel("perl", config.DMDP)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("expected pointer-identical cached result")
	}
}

func TestRunnerUnknownBenchmark(t *testing.T) {
	r := smallRunner()
	if _, err := r.Trace("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestByIDAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatalf("IDs length %d vs All %d", len(ids), len(All()))
	}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) failed", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("ByID accepted bogus id")
	}
}

func TestBenchmarkClassSplit(t *testing.T) {
	r := smallRunner()
	ints := r.intBenchmarks()
	fps := r.fpBenchmarks()
	if len(ints)+len(fps) != len(r.Benchmarks()) {
		t.Fatal("class split loses benchmarks")
	}
	for _, b := range ints {
		if isFP(r, b) {
			t.Errorf("%s misclassified as FP", b)
		}
	}
	for _, b := range fps {
		if !isFP(r, b) {
			t.Errorf("%s misclassified as Int", b)
		}
	}
}

func TestPrefetchParallelMatchesSerial(t *testing.T) {
	par := NewRunner(Options{Budget: 3000, Benchmarks: []string{"perl", "milc"}, Parallel: true})
	if err := par.Prefetch(); err != nil {
		t.Fatal(err)
	}
	ser := NewRunner(Options{Budget: 3000, Benchmarks: []string{"perl", "milc"}, Parallel: false})
	for _, b := range []string{"perl", "milc"} {
		for _, m := range []config.Model{config.Baseline, config.NoSQ, config.DMDP, config.Perfect} {
			a, err := par.RunModel(b, m)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ser.RunModel(b, m)
			if err != nil {
				t.Fatal(err)
			}
			ac, sc := *a, *s
			ac.SimWallClockNS, sc.SimWallClockNS = 0, 0 // host timing may differ
			if ac != sc {
				t.Errorf("%s/%s: parallel and serial runs differ", b, m)
			}
		}
	}
}

// TestExperimentsByteIdenticalAcrossRuns renders every experiment twice
// with independent runners and requires byte-identical output. This is
// the regression guard for map-iteration-order bugs: any report that
// ranges over a Go map without a fixed key order will eventually differ
// between runs.
func TestExperimentsByteIdenticalAcrossRuns(t *testing.T) {
	render := func() map[string]string {
		r := smallRunner()
		out := make(map[string]string, len(All()))
		for _, e := range All() {
			s, err := e.Run(r)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out[e.ID] = s
		}
		return out
	}
	a, b := render(), render()
	for _, e := range All() {
		if a[e.ID] != b[e.ID] {
			t.Errorf("%s: output differs between two identical runs\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
				e.ID, a[e.ID], b[e.ID])
		}
	}
}

// TestLabelIsDisplayOnly is the label-aliasing guard: results are keyed
// by configuration digest, so two different machines submitted under the
// same label must produce distinct cached results, and the same machine
// under two labels must share one simulation.
func TestLabelIsDisplayOnly(t *testing.T) {
	r := smallRunner()
	a, err := r.Run("perl", config.Default(config.DMDP), "dmdp")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("perl", config.Default(config.DMDP).WithStoreBuffer(16), "dmdp")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different configs under one label aliased to one cached run")
	}
	if a.Cycles == b.Cycles && a.SBFullStall == b.SBFullStall {
		t.Fatal("different machines produced identical stats; digest keying suspect")
	}
	c, err := r.Run("perl", config.Default(config.DMDP), "dmdp-alias")
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("identical configs under different labels must share one cached run")
	}
}

// TestWarmUpCoversAllRenders checks every experiment's Runs declaration:
// after a WarmUp over all experiments, rendering them must hit only warm
// cache (no further simulations).
func TestWarmUpCoversAllRenders(t *testing.T) {
	r := smallRunner()
	if err := r.WarmUp(All()...); err != nil {
		t.Fatal(err)
	}
	warm := r.sims.Load()
	// The warm-up simulated each distinct declared run once, whatever
	// its kind: Sims counts machine and sampled runs too, so the check
	// below covers every kind of run a render could make.
	seen := make(map[any]bool)
	for _, e := range All() {
		if e.Runs != nil {
			for _, s := range e.Runs(r) {
				seen[runKey{bench: s.Bench, digest: s.Cfg.Digest(), budget: r.opt.Budget}] = true
			}
		}
		if e.Machines != nil {
			for _, s := range e.Machines(r) {
				seen[r.machineKey(s)] = true
			}
		}
		if e.Sampled != nil {
			for _, s := range e.Sampled(r) {
				seen[r.sampledKey(s)] = true
			}
		}
	}
	if warm != int64(len(seen)) {
		t.Errorf("warm-up simulated %d times for %d distinct declared runs", warm, len(seen))
	}
	for _, e := range All() {
		if e.Runs == nil && e.Machines == nil && e.Sampled == nil {
			t.Errorf("%s: declares no runs", e.ID)
		}
		if _, err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	if got := r.sims.Load(); got != warm {
		t.Errorf("rendering simulated %d undeclared runs; every run must be declared in Runs()", got-warm)
	}
}

// TestDigestDedupAcrossExperiments: the sb32 point of fig14 and the
// prf320 points of alt-prf160 describe the default machines, so the
// digest-keyed cache must fold them into the shared default runs.
func TestDigestDedupAcrossExperiments(t *testing.T) {
	r := smallRunner()
	a, err := r.Run("perl", config.Default(config.DMDP).WithStoreBuffer(32), "dmdp-sb32")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunModel("perl", config.DMDP)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dmdp-sb32 did not dedup against the default dmdp run")
	}
	if r.sims.Load() != 1 {
		t.Fatalf("expected 1 simulation, got %d", r.sims.Load())
	}
}

// TestConcurrentIdenticalRunsSimulateOnce: concurrent callers asking for
// the same (bench, config) share one in-flight simulation and all
// receive the same stats.
func TestConcurrentIdenticalRunsSimulateOnce(t *testing.T) {
	r := NewRunner(Options{Budget: 50_000, Benchmarks: []string{"hmmer"}, Parallel: false})
	const callers = 8
	var got [callers]*core.Stats
	var errs [callers]error
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = r.Run("hmmer", config.Default(config.DMDP), "dmdp")
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("caller %d got different stats than caller 0", i)
		}
	}
	if n := r.Sims(); n != 1 {
		t.Fatalf("%d concurrent identical runs simulated %d times, want 1", callers, n)
	}
}

// TestParallelismDoesNotChangeOutput runs the reduced suite at -j 1 and
// -j 8 and requires byte-identical experiment output and an identical
// failure table: worker count and completion order must never leak into
// results.
func TestParallelismDoesNotChangeOutput(t *testing.T) {
	render := func(jobs int) (map[string]string, string) {
		r := NewRunner(Options{
			Budget:     4000,
			Benchmarks: []string{"perl", "hmmer", "milc", "wrf"},
			Parallel:   true,
			Jobs:       jobs,
		})
		if err := r.WarmUp(All()...); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(All()))
		for _, e := range All() {
			s, err := e.Run(r)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out[e.ID] = s
		}
		return out, r.FailureTable()
	}
	a, fa := render(1)
	b, fb := render(8)
	for _, e := range All() {
		if a[e.ID] != b[e.ID] {
			t.Errorf("%s: output differs between -j 1 and -j 8\n--- j1 ---\n%s\n--- j8 ---\n%s",
				e.ID, a[e.ID], b[e.ID])
		}
	}
	if fa != fb {
		t.Errorf("failure table differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", fa, fb)
	}
}

func TestDefaultOptionsFillIn(t *testing.T) {
	r := NewRunner(Options{})
	if r.opt.Budget != DefaultOptions().Budget {
		t.Fatal("budget not defaulted")
	}
	if len(r.Benchmarks()) != 21 {
		t.Fatal("benchmarks not defaulted")
	}
}

// TestConcurrentIdenticalMachineAndSampledRunsSimulateOnce: concurrent
// callers asking for the same machine run, or the same sampled run,
// share one simulation of it and all receive the same result.
func TestConcurrentIdenticalMachineAndSampledRunsSimulateOnce(t *testing.T) {
	r := NewRunner(Options{Budget: 20_000, Benchmarks: []string{"hmmer"}, Parallel: true, Jobs: 2})
	const callers = 8
	var machines [callers]*core.MachineStats
	var sampled [callers]*sampling.Outcome
	var errs [2 * callers]error
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			machines[i], errs[i] = r.RunMachine(mcSpec("hmmer", config.DMDP, 2))
		}()
		go func() {
			defer wg.Done()
			<-start
			sampled[i], errs[callers+i] = r.RunSampled(r.sampErrSpec("hmmer", config.DMDP, false))
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := range machines {
		if machines[i] != machines[0] || sampled[i] != sampled[0] {
			t.Fatalf("caller %d got a different result than caller 0", i)
		}
	}
	if n := r.Sims(); n != 2 {
		t.Fatalf("%d concurrent callers of one machine and one sampled run simulated %d times, want 2", callers, n)
	}
}
