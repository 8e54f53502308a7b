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
	"dmdp/internal/emu"
	"dmdp/internal/mem"
	"dmdp/internal/workload"
)

// execRequest is a streamed sampled request for bench at budget, with
// its artifact trace key set and no store.
func execRequest(t *testing.T, bench string, budget int64) Request {
	t.Helper()
	s, ok := workload.Get(bench)
	if !ok {
		t.Fatalf("unknown bench %s", bench)
	}
	prog, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	return Request{Budget: budget, Prog: prog, TraceKey: artifact.TraceKey(s.SourceHash(), budget)}
}

// TestStreamMatchesMaterialized is the core equivalence oracle of the
// streamed path: re-materializing intervals from checkpoints + emulator
// replay must give byte-identical combined stats to Run, which slices a
// fully built trace.
func TestStreamMatchesMaterialized(t *testing.T) {
	cfg := config.Default(config.DMDP)
	const budget = 50_000
	spec := Spec{Count: 4, Len: 2_000, Warmup: 500}
	req := execRequest(t, "gcc", budget)
	req.Spec = spec
	tr := buildTrace(t, "gcc", budget)
	plan, err := Uniform(len(tr.Entries), spec.Len, spec.Count)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(tr, cfg, plan.WithWarmup(spec.Warmup))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(context.Background(), cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != int64(len(tr.Entries)) {
		t.Fatalf("stream executed %d instructions, trace holds %d", got.Total, len(tr.Entries))
	}
	if !bytes.Equal(want.MarshalCanonical(), got.Combined.MarshalCanonical()) {
		t.Fatalf("streamed result differs from Run over the built trace:\nrun IPC %f\nstr IPC %f",
			want.WeightedIPC, got.Combined.WeightedIPC)
	}
}

// TestStreamAutoPlanMatchesMaterializedAuto: the stream's per-chunk BBVs
// plan exactly what the built trace's chunks plan, and the streamed
// intervals simulate exactly as Run's.
func TestStreamAutoPlanMatchesMaterializedAuto(t *testing.T) {
	cfg := config.Default(config.DMDP)
	const budget = 60_000
	spec := Spec{Auto: true, K: 4}
	req := execRequest(t, "sjeng", budget)
	req.Spec = spec
	tr := buildTrace(t, "sjeng", budget)
	chunkLen := autoChunkLen(budget)
	plan, err := AutoPlan(chunkBBVs(tr.Entries, chunkLen), chunkLen, spec.Phases())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Intervals) == 0 || len(plan.Intervals) > 4 {
		t.Fatalf("auto plan size %d", len(plan.Intervals))
	}
	want, err := Run(tr, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(context.Background(), cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.MarshalCanonical(), got.Combined.MarshalCanonical()) {
		t.Fatal("streamed auto plan diverges from Run over the built trace")
	}
}

// TestExecuteParallelByteIdentical: the -j determinism contract at the
// Execute level (the full 21-proxy sweep lives in the root package's
// determinism test).
func TestExecuteParallelByteIdentical(t *testing.T) {
	cfg := config.Default(config.DMDP)
	spec := Spec{Count: 6, Len: 1_500, Warmup: 300}
	str := execRequest(t, "mcf", 40_000)
	str.Spec = spec
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
			t.Fatalf("-j%d result differs from -j1", jobs)
		}
	}
}

// TestCheckpointWarmAndCorruptDegrade drives the full persistence cycle:
// cold run publishes plan+checkpoints, warm run restores them (skipping
// the profiling pass), and corrupting every checkpoint degrades to
// re-simulation with identical results.
func TestCheckpointWarmAndCorruptDegrade(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.Open(dir, artifact.RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(config.DMDP)
	spec := Spec{Auto: true, K: 3, Warmup: 200}
	str := execRequest(t, "astar", 40_000)
	str.Spec, str.Checkpoint, str.Store = spec, true, store

	cold, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PlanCached {
		t.Fatal("cold run cannot hit the plan cache")
	}
	ref := cold.Combined.MarshalCanonical()

	warm, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PlanCached {
		t.Fatal("warm run should reuse the cached plan")
	}
	if !bytes.Equal(ref, warm.Combined.MarshalCanonical()) {
		t.Fatal("warm (checkpoint-restored) result differs from cold")
	}

	// Corrupt every checkpoint: the plan still loads, every restore
	// misses, and interval extraction degrades to re-emulation from the
	// program start — slower, byte-identical.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".ckpt") {
			path := filepath.Join(dir, de.Name())
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)/2] ^= 0xff
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no checkpoints were persisted")
	}
	degraded, err := Execute(context.Background(), cfg, str)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, degraded.Combined.MarshalCanonical()) {
		t.Fatal("degraded (corrupt-checkpoint) result differs from cold")
	}
}

// TestImageOnlyCheckpointIsSkipped: stores written by earlier versions
// can hold image-only DMDPCKP1 records (no architectural state) under
// the same checkpoint keys the streamed path uses. Resuming must pass
// over such a record to an older boundary — no error, and a result
// byte-identical to a fresh-store run.
func TestImageOnlyCheckpointIsSkipped(t *testing.T) {
	const budget = 50_000
	cfg := config.Default(config.DMDP)
	req := execRequest(t, "gcc", budget)
	req.Spec, req.Checkpoint = Spec{Count: 4, Len: 2_000, Warmup: 500}, true

	fresh := req
	var err error
	if fresh.Store, err = artifact.Open(t.TempDir(), artifact.RW, 0); err != nil {
		t.Fatal(err)
	}
	want, err := Execute(context.Background(), cfg, fresh)
	if err != nil {
		t.Fatal(err)
	}

	if req.Store, err = artifact.Open(t.TempDir(), artifact.RW, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(context.Background(), cfg, req); err != nil {
		t.Fatal(err)
	}
	// Overwrite the checkpoint of every boundary an interval resumes
	// from (boundary 0 aside) with the image-only record that sampling
	// over a built trace used to write there: the changed pages of the
	// image rolled forward over that trace.
	tr := buildTrace(t, "gcc", budget)
	chunkLen := autoChunkLen(budget)
	overwritten := 0
	for i := range want.Plan.Intervals {
		begin, _ := beginOf(want.Plan, i)
		at := begin / chunkLen * chunkLen
		if at == 0 {
			continue
		}
		rolled, err := Slice(tr, Interval{Start: at, End: at + 1})
		if err != nil {
			t.Fatal(err)
		}
		ck := &emu.Checkpoint{At: int64(at), Pages: map[uint32]*[mem.PageSize]byte{}}
		rolled.InitMem.ForEachPage(func(base uint32, data *[mem.PageSize]byte) {
			if init, _ := tr.InitMem.PageCopy(base); init == nil || *init != *data {
				pg := *data
				ck.Pages[base] = &pg
			}
		})
		key := artifact.CheckpointKey(req.TraceKey, int64(at))
		req.Store.StoreCheckpoint(key, ck)
		if got, ok := req.Store.LoadCheckpoint(key); !ok || got.HasArch {
			t.Fatalf("boundary %d: image-only record did not round-trip", at)
		}
		overwritten++
	}
	if overwritten == 0 {
		t.Fatal("no interval resumes past boundary 0; the test exercises nothing")
	}

	got, err := Execute(context.Background(), cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.PlanCached {
		t.Fatal("re-run should reuse the cached plan and restore from the store")
	}
	if !bytes.Equal(want.Combined.MarshalCanonical(), got.Combined.MarshalCanonical()) {
		t.Fatal("run over image-only checkpoints differs from a fresh-store run")
	}
}

// Checkpoint spacing on the streamed path must be budget-derived, never
// the spec's interval length: a `1x1000` spec at a 100M budget once
// snapshotted a checkpoint every 1000 entries — 100k O(dirty pages)
// deltas, quadratic work that looked like a hang — while a huge interval
// length would have buffered the whole chunk in memory. The store must
// hold ~budget/autoChunkLen checkpoints regardless of Spec.Len.
func TestSystematicSpecChunkingIsBudgetDerived(t *testing.T) {
	const budget = 100_000
	dir := t.TempDir()
	store, err := artifact.Open(dir, artifact.RW, 0)
	if err != nil {
		t.Fatal(err)
	}
	str := execRequest(t, "gcc", budget)
	str.Spec = Spec{Count: 1, Len: 10}
	str.Checkpoint, str.Store = true, store

	if _, err := Execute(context.Background(), config.Default(config.DMDP), str); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			ckpts++
		}
	}
	want := int(budget) / autoChunkLen(budget)
	if ckpts < want/2 || ckpts > 2*want {
		t.Fatalf("store holds %d checkpoints for a %d budget (chunking tied to Spec.Len=10?); want ~%d", ckpts, budget, want)
	}
}
