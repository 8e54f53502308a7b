package sampling

import (
	"context"
	"fmt"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/isa"
	"dmdp/internal/warm"
)

// Request describes one sampled simulation for Execute: Prog runs for
// at most Budget instructions and is never materialized whole.
type Request struct {
	Prog   *isa.Program
	Spec   Spec
	Budget int64
	// Jobs is the interval worker-pool width (<=1 serial). Results are
	// byte-identical at any width.
	Jobs int
	// Checkpoint enables persisting/consuming checkpoints and plans in
	// Store under TraceKey.
	Checkpoint bool
	Store      *artifact.Store
	TraceKey   artifact.Key
	// Warm enables functional warming: cache/TLB/predictor tag state is
	// modelled during the profiling pass and installed before each
	// interval's detailed simulation. Ignored (forced off) under fault
	// injection, like fast-forward: a corrupted run must execute every
	// instruction of every model the same way. Execute rejects it for a
	// TAGE-predictor configuration, whose predictor has no warm model.
	Warm bool
}

// Outcome is a sampled simulation result plus the plan that produced it.
type Outcome struct {
	Combined *Combined
	Plan     Plan
	// Total is the executed instruction count the plan was laid out
	// over (below Budget when the program halted early).
	Total int64
	// PlanCached reports that the plan (and stream geometry) came from
	// the artifact cache, skipping the profiling pass entirely.
	PlanCached bool

	// Warmed reports that functional warming was active for this run
	// (requested and not disabled by fault injection).
	Warmed bool
	// WarmedIntervals/ColdStartIntervals count intervals that installed
	// warm state vs. those that fell back to a cold start (missing or
	// corrupt warm artifacts). Cold starts are correct but less
	// representative; samp-err labels them.
	WarmedIntervals    int64
	ColdStartIntervals int64
	// WarmSnapshotBytes totals the warm snapshot bytes installed.
	WarmSnapshotBytes int64
	// WarmEntries/WarmNanos account the profiling-pass warming work
	// (throughput = WarmEntries / WarmNanos; zero when the plan cache
	// skipped the profiling pass).
	WarmEntries int64
	WarmNanos   int64
}

// autoChunkLen picks the BBV chunk length (= checkpoint spacing and
// representative interval length) for an auto plan: 1% of the budget,
// clamped to [1k, 1M] and to the budget itself.
func autoChunkLen(budget int64) int {
	c := budget / 100
	if c < 1000 {
		c = 1000
	}
	if c > 1_000_000 {
		c = 1_000_000
	}
	if c > budget {
		c = budget
	}
	return int(c)
}

// Execute plans and runs one sampled simulation end to end. One
// chunked emulator pass over the program computes per-chunk BBVs and
// captures architectural checkpoints without materializing the trace;
// the plan is laid out over the executed instructions (BBV clustering
// for auto specs, centered systematic sampling otherwise), and each
// interval is then re-materialized independently from its nearest
// checkpoint. With Checkpoint set, the plan and checkpoints persist, so
// a re-run skips the profiling pass.
//
// The intervals run on a deterministic worker pool and combine into a
// Combined that is byte-identical at any Jobs width.
func Execute(ctx context.Context, cfg config.Config, req Request) (*Outcome, error) {
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	if req.Prog == nil {
		return nil, fmt.Errorf("sampling: request has no program")
	}
	if req.Warm && cfg.UseTAGE {
		return nil, fmt.Errorf("sampling: functional warming does not model the TAGE distance predictor; run it without warming")
	}
	// Checkpoint spacing is budget-derived for systematic specs too, not
	// Spec.Len: tying it to the interval length made `-sample 1x1000` at a
	// 100M budget snapshot 100k checkpoints (each an O(dirty pages) delta —
	// quadratic, effectively a hang), while a 50M interval length would
	// have buffered a 2.8 GB chunk. Interval extraction only needs *some*
	// checkpoint at or before each begin; the spacing bounds the re-emulated
	// prefix, so 1% of budget (clamped to [1k, 1M]) serves every spec.
	chunkLen := autoChunkLen(req.Budget)
	out := &Outcome{}
	wcfg := warmConfig(cfg, req)
	var plan Plan

	// A cached plan (only trusted when checkpoints were persisted with
	// it) skips the profiling pass: the stream is reopened with just the
	// recorded geometry and intervals restore from stored checkpoints.
	// With warming requested, the cached plan is only honored when warm
	// state is actually reconstructible for it — otherwise a cold earlier
	// run would pin every warm re-run to cold starts forever; one fresh
	// profiling pass recaptures (and persists) the warm state instead.
	planKey := artifact.PlanKey(req.TraceKey, req.Spec.String(), PlannerVersion)
	var stream *Stream
	if req.Checkpoint && req.Store != nil {
		if rec, ok := req.Store.LoadPlan(planKey); ok && rec.ChunkLen == int64(chunkLen) && planRecordValid(rec) {
			s := OpenStream(req.Prog, chunkLen, rec.Total, rec.HitHalt, req.Store, req.TraceKey, wcfg)
			p := planFromRecord(rec)
			if wcfg == nil || s.warmPlanUsable(p) {
				plan, stream = p, s
				out.Total, out.PlanCached = rec.Total, true
			}
		}
	}
	if stream == nil {
		s, err := BuildStream(ctx, req.Prog, req.Budget, chunkLen, req.Store, req.TraceKey, req.Checkpoint, wcfg)
		if err != nil {
			return nil, err
		}
		if req.Spec.Auto {
			plan, err = s.AutoPlan(req.Spec.Phases())
		} else {
			plan, err = Uniform(int(s.Total), req.Spec.Len, req.Spec.Count)
		}
		if err != nil {
			return nil, err
		}
		stream, out.Total = s, s.Total
		out.WarmEntries, out.WarmNanos = s.WarmEntries, s.WarmNanos
	}
	plan.Warmup = req.Spec.Warmup
	if !out.PlanCached && req.Checkpoint && req.Store != nil {
		req.Store.StorePlan(planKey, planToRecord(plan, stream))
	}
	src := stream.source(plan)
	comb, err := RunPlan(ctx, cfg, plan, src, req.Jobs)
	if err != nil {
		return nil, err
	}
	out.Combined, out.Plan = comb, plan
	if wcfg != nil {
		out.Warmed = true
		out.WarmedIntervals, out.ColdStartIntervals, out.WarmSnapshotBytes = src.wc.stats()
	}
	return out, nil
}

// warmConfig resolves the functional-warming configuration for a
// request: nil when warming is off or fault injection forces it off.
func warmConfig(cfg config.Config, req Request) *warm.Config {
	if !req.Warm || cfg.Faults.Enabled() {
		return nil
	}
	wc := warm.ConfigFrom(cfg)
	return &wc
}

func planToRecord(p Plan, s *Stream) *artifact.PlanRecord {
	rec := &artifact.PlanRecord{
		ChunkLen: int64(s.ChunkLen),
		Total:    s.Total,
		Warmup:   int64(p.Warmup),
		HitHalt:  s.HitHalt,
	}
	for _, iv := range p.Intervals {
		rec.Intervals = append(rec.Intervals, artifact.PlanInterval{
			Start: int64(iv.Start), End: int64(iv.End), Weight: iv.Weight,
		})
	}
	return rec
}

func planFromRecord(rec *artifact.PlanRecord) Plan {
	p := Plan{Warmup: int(rec.Warmup)}
	for _, iv := range rec.Intervals {
		p.Intervals = append(p.Intervals, Interval{
			Start: int(iv.Start), End: int(iv.End), Weight: iv.Weight,
		})
	}
	return p
}

// planRecordValid sanity-checks a decoded plan record before trusting it
// (a structurally valid file can still carry an impossible plan).
func planRecordValid(rec *artifact.PlanRecord) bool {
	if rec.Total <= 0 || len(rec.Intervals) == 0 || rec.Warmup < 0 {
		return false
	}
	for _, iv := range rec.Intervals {
		if iv.Start < 0 || iv.End <= iv.Start || iv.End > rec.Total || iv.Weight <= 0 {
			return false
		}
	}
	return true
}
