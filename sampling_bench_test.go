package dmdp

import (
	"context"
	"testing"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/sampling"
	"dmdp/internal/workload"
)

const (
	samplingBenchBudget = 2_000_000
	samplingIntervalLen = 1_000
	samplingCount       = 8
	samplingWarmup      = 250
)

// The cold/warm Execute pair times the whole sampled pipeline — profiling
// pass, planning, interval simulation — with functional warming off and
// on. The warming overhead rides the profiling pass (tag-only updates at
// tens of Mentries/s) plus one delta snapshot per checkpoint;
// BENCH_0006.json records the baseline and the 100M-budget
// sampled-vs-full wall-clock gap.

func benchmarkSampledExecute(b *testing.B, warm bool) {
	spec, ok := workload.Get("gcc")
	if !ok {
		b.Fatal("gcc proxy missing")
	}
	prog, err := spec.Program()
	if err != nil {
		b.Fatal(err)
	}
	req := sampling.Request{
		Spec:     sampling.Spec{Count: samplingCount, Len: samplingIntervalLen, Warmup: samplingWarmup},
		Budget:   samplingBenchBudget,
		Jobs:     1,
		TraceKey: artifact.TraceKey(spec.SourceHash(), samplingBenchBudget),
		Prog:     prog,
		Warm:     warm,
	}
	cfg := config.Default(config.DMDP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.Execute(context.Background(), cfg, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampledExecuteCold(b *testing.B) { benchmarkSampledExecute(b, false) }
func BenchmarkSampledExecuteWarm(b *testing.B) { benchmarkSampledExecute(b, true) }

// BenchmarkCheckpointRestore measures interval extraction for a whole
// sampling plan against a warm checkpoint store, as a re-run with a
// cached plan does it: each interval restores its nearest boundary's
// dirty-page delta and re-emulates at most one chunk, instead of
// replaying the prefix from instruction zero (DESIGN.md §12 has the
// scheme).
func BenchmarkCheckpointRestore(b *testing.B) {
	spec, ok := workload.Get("gcc")
	if !ok {
		b.Fatal("gcc proxy missing")
	}
	prog, err := spec.Program()
	if err != nil {
		b.Fatal(err)
	}
	store, err := artifact.Open(b.TempDir(), artifact.RW, 0)
	if err != nil {
		b.Fatal(err)
	}
	key := artifact.TraceKey(spec.SourceHash(), samplingBenchBudget)
	const chunkLen = samplingBenchBudget / 100
	// The building pass publishes the checkpoints the timed passes restore.
	s, err := sampling.BuildStream(context.Background(), prog, samplingBenchBudget, chunkLen, store, key, true, nil)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sampling.Uniform(int(s.Total), samplingIntervalLen, samplingCount)
	if err != nil {
		b.Fatal(err)
	}
	plan = plan.WithWarmup(samplingWarmup)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := sampling.OpenStream(prog, chunkLen, s.Total, s.HitHalt, store, key, nil).Source(plan)
		for j := range plan.Intervals {
			if _, _, err := src.IntervalTrace(j); err != nil {
				b.Fatal(err)
			}
		}
	}
}
