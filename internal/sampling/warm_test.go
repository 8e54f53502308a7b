package sampling

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/trace"
	"dmdp/internal/warm"
)

// continuousWarmSource is the functional-warming reference: Slice
// intervals, each installing the snapshot of one continuous warm.Update
// pass over every entry of the built trace before its begin.
type continuousWarmSource struct {
	sliceSource
	snaps  [][]byte
	failed bool
}

func newContinuousWarmSource(t *testing.T, tr *trace.Trace, plan Plan, wcfg warm.Config) *continuousWarmSource {
	t.Helper()
	src := &continuousWarmSource{sliceSource: sliceSource{tr: tr, plan: plan}}
	ws := warm.New(wcfg)
	cursor := 0
	for i := range plan.Intervals {
		begin, _ := beginOf(plan, i)
		if begin < cursor {
			t.Fatalf("interval %d begins at %d, before interval %d's %d", i, begin, i-1, cursor)
		}
		for ; cursor < begin; cursor++ {
			ws.Update(&tr.Entries[cursor])
		}
		src.snaps = append(src.snaps, ws.Snapshot())
	}
	return src
}

func (s *continuousWarmSource) IntervalWarm(i int) []byte { return s.snaps[i] }
func (s *continuousWarmSource) WarmInstallFailed(int)     { s.failed = true }

// TestWarmStreamMatchesMaterialized is the functional-warming
// equivalence oracle: the streamed path's snapshot-restore-continue
// warm state must install byte-identically to one continuous warming
// pass over the built trace, so the combined stats match exactly.
func TestWarmStreamMatchesMaterialized(t *testing.T) {
	cfg := config.Default(config.DMDP)
	const budget = 50_000
	spec := Spec{Count: 4, Len: 2_000, Warmup: 500}
	req := execRequest(t, "gcc", budget)
	req.Spec, req.Warm = spec, true

	tr := buildTrace(t, "gcc", budget)
	plan, err := Uniform(len(tr.Entries), spec.Len, spec.Count)
	if err != nil {
		t.Fatal(err)
	}
	plan.Warmup = spec.Warmup
	ref := newContinuousWarmSource(t, tr, plan, warm.ConfigFrom(cfg))
	want, err := RunPlan(context.Background(), cfg, plan, ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.failed {
		t.Fatal("reference warm snapshot rejected at install")
	}

	got, err := Execute(context.Background(), cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Warmed {
		t.Fatal("outcome not marked warmed")
	}
	if got.ColdStartIntervals != 0 {
		t.Fatalf("%d cold-start intervals with everything available", got.ColdStartIntervals)
	}
	if got.WarmedIntervals != int64(len(got.Plan.Intervals)) {
		t.Fatalf("warmed %d of %d intervals", got.WarmedIntervals, len(got.Plan.Intervals))
	}
	if got.WarmSnapshotBytes == 0 {
		t.Fatal("no warm snapshot bytes accounted")
	}
	if !bytes.Equal(want.MarshalCanonical(), got.Combined.MarshalCanonical()) {
		t.Fatalf("warmed streamed result differs from continuous warming:\nref IPC %f\nstr IPC %f",
			want.WeightedIPC, got.Combined.WeightedIPC)
	}
}

// TestWarmChangesSampledResult pins that warming actually installs
// state with observable effect — guarding against a silent no-op
// install (e.g. a broken transplant that leaves the core cold).
func TestWarmChangesSampledResult(t *testing.T) {
	cfg := config.Default(config.DMDP)
	// No detailed warmup: every cold interval then starts from empty
	// caches, so installing warm state must move IPC.
	spec := Spec{Count: 4, Len: 2_000}
	cold := execRequest(t, "mcf", 50_000)
	cold.Spec = spec
	warmReq := cold
	warmReq.Warm = true

	a, err := Execute(context.Background(), cfg, cold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(context.Background(), cfg, warmReq)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Combined.MarshalCanonical(), b.Combined.MarshalCanonical()) {
		t.Fatal("warming had no effect on a cache-sensitive workload with zero warmup")
	}
}

// TestWarmParallelByteIdentical: the -j determinism contract holds with
// warming on.
func TestWarmParallelByteIdentical(t *testing.T) {
	cfg := config.Default(config.DMDP)
	spec := Spec{Count: 6, Len: 1_500, Warmup: 300}
	str := execRequest(t, "mcf", 40_000)
	str.Spec, str.Warm = spec, true
	var ref []byte
	for _, jobs := range []int{1, 2, 8} {
		req := str
		req.Jobs = jobs
		out, err := Execute(context.Background(), cfg, req)
		if err != nil {
			t.Fatal(err)
		}
		enc := out.Combined.MarshalCanonical()
		if ref == nil {
			ref = enc
		} else if !bytes.Equal(ref, enc) {
			t.Fatalf("warmed -j%d result differs from -j1", jobs)
		}
	}
}

// TestWarmArtifactCycle drives warm-state persistence end to end: the
// first warmed checkpointed run publishes plan, checkpoints and
// DMDPCKP2 warm records; the second reuses all three (skipping the
// profiling pass) byte-identically; corrupting the warm records makes
// the plan-cache probe fail and the third run falls back to one fresh
// profiling pass — again byte-identical, never wrong.
func TestWarmArtifactCycle(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.Open(dir, artifact.RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(config.DMDP)
	spec := Spec{Auto: true, K: 3, Warmup: 200}
	str := execRequest(t, "astar", 40_000)
	str.Spec, str.Checkpoint, str.Store, str.Warm = spec, true, store, true

	first, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCached {
		t.Fatal("first run cannot hit the plan cache")
	}
	if !first.Warmed || first.ColdStartIntervals != 0 {
		t.Fatalf("first run warming: %+v", first)
	}
	if first.WarmEntries == 0 || first.WarmNanos == 0 {
		t.Fatal("profiling pass did not account warming work")
	}
	ref := first.Combined.MarshalCanonical()

	warmFiles := 0
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".warm") {
			warmFiles++
		}
	}
	if warmFiles == 0 {
		t.Fatal("no warm-state records were persisted")
	}

	second, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if !second.PlanCached {
		t.Fatal("second run should reuse the cached plan")
	}
	if second.ColdStartIntervals != 0 {
		t.Fatalf("%d cold starts with persisted warm state", second.ColdStartIntervals)
	}
	if !bytes.Equal(ref, second.Combined.MarshalCanonical()) {
		t.Fatal("store-restored warm run differs from the building run")
	}
	if c := store.Counters(); c.WarmHits == 0 {
		t.Fatalf("second run served no warm records from the store: %+v", c)
	}

	// Corrupt every warm record. The plan-cache probe must notice and
	// re-profile rather than pinning every interval to a cold start.
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".warm") {
			path := filepath.Join(dir, de.Name())
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)/2] ^= 0xff
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	third, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if third.PlanCached {
		t.Fatal("third run trusted a plan whose warm state is corrupt")
	}
	if third.ColdStartIntervals != 0 {
		t.Fatalf("re-profiled run cold-started %d intervals", third.ColdStartIntervals)
	}
	if !bytes.Equal(ref, third.Combined.MarshalCanonical()) {
		t.Fatal("re-profiled (corrupt-warm-record) run differs from the building run")
	}
}

// TestWarmMissingStateColdStarts forces per-interval degradation: warm
// snapshots dropped for every non-zero boundary must cold-start exactly
// the intervals that resume from those boundaries — with a successful
// run and honest accounting, never an error.
func TestWarmMissingStateColdStarts(t *testing.T) {
	cfg := config.Default(config.DMDP)
	str := execRequest(t, "gcc", 50_000)
	wc := warm.ConfigFrom(cfg)
	s, err := BuildStream(context.Background(), str.Prog, str.Budget, autoChunkLen(str.Budget),
		nil, str.TraceKey, false, &wc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Uniform(int(s.Total), 2_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan.Warmup = 500

	s.warmMu.Lock()
	for at := range s.warms {
		if at != 0 {
			delete(s.warms, at)
		}
	}
	s.warmMu.Unlock()

	src := s.source(plan)
	if _, err := RunPlan(context.Background(), cfg, plan, src, 2); err != nil {
		t.Fatal(err)
	}
	warmed, cold, _ := src.wc.stats()
	if cold == 0 {
		t.Fatal("no interval cold-started with all non-zero warm snapshots dropped")
	}
	if warmed+cold != int64(len(plan.Intervals)) {
		t.Fatalf("accounting: %d warmed + %d cold != %d intervals", warmed, cold, len(plan.Intervals))
	}
}

// TestWarmDisabledUnderFaults: fault injection forces warming off, like
// fast-forward — a corrupted run must execute every model in full.
func TestWarmDisabledUnderFaults(t *testing.T) {
	cfg := config.Default(config.DMDP)
	cfg.Faults.PredictionFlipRate = 1e-6
	cfg.Faults.Seed = 1
	if !cfg.Faults.Enabled() {
		t.Skip("fault config shape changed; update the test")
	}
	str := execRequest(t, "gcc", 30_000)
	str.Spec, str.Warm = Spec{Count: 2, Len: 1_000}, true
	out, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if out.Warmed || out.WarmedIntervals != 0 {
		t.Fatalf("warming ran under fault injection: %+v", out)
	}
}
