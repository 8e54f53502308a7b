package main

import (
	"context"
	"fmt"
	"path/filepath"

	"dmdp/internal/artifact"
	"dmdp/internal/cliutil"
	"dmdp/internal/config"
	"dmdp/internal/emu"
	"dmdp/internal/sampling"
	"dmdp/internal/trace"
	"dmdp/internal/warm"
	"dmdp/internal/workload"
)

// newSampled is gcc at a 100M budget under an auto:8 plan with
// functional warming on the streamed path and the DMDP model. The cold
// pass persists checkpoints, warm state and the plan to an empty store;
// the second pass is the cached re-run. The untraced run calls
// sampling.Execute; the traced run chains the stage functions itself
// (BuildStream, AutoPlan, RunPlan; OpenStream, RunPlan) and must produce
// the same Combined digest. The seed does not change its inputs.
func newSampled(e *env, parent int, small bool) (*runner, error) {
	budget, streamBudget := int64(100_000_000), int64(20_000_000)
	if small {
		budget, streamBudget = 2_000_000, 2_000_000
	}
	spec, _ := workload.Get("gcc")
	sp := e.tr.start(parent, "asm.assemble")
	prog, err := spec.Program()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sspec, err := cliutil.ParseSampleSpec("auto:8")
	if err != nil {
		return nil, err
	}
	cfg := config.Default(config.DMDP)
	wcfg := warm.ConfigFrom(cfg)
	key := artifact.TraceKey(spec.SourceHash(), budget)
	planKey := artifact.PlanKey(key, sspec.String(), sampling.PlannerVersion)
	chunkLen := chunkLenFor(budget)
	storeDir := filepath.Join(e.dir, "sampled-store")
	ctx := context.Background()
	var sim simEvents

	// chained runs the pass through the stage functions with a span
	// around each stage.
	chained := func(parent, n int, store *artifact.Store) (*sampling.Combined, error) {
		if n == 1 {
			sp := e.tr.start(parent, "sampling.profile")
			s, err := sampling.BuildStream(ctx, prog, budget, chunkLen, store, key, true, &wcfg)
			e.tr.end(sp)
			if err != nil {
				return nil, err
			}
			e.layers["warm.update_mentries_per_s"] = float64(s.WarmEntries) * 1e3 / float64(max(1, s.WarmNanos))
			sp = e.tr.start(parent, "sampling.plan")
			plan, err := s.AutoPlan(sspec.Phases())
			e.tr.end(sp)
			if err != nil {
				return nil, err
			}
			plan.Warmup = sspec.Warmup
			store.StorePlan(planKey, planRecord(plan, s))
			sp = e.tr.start(parent, "sampling.intervals")
			defer e.tr.end(sp)
			return sampling.RunPlan(ctx, cfg, plan, s.Source(plan), e.jobs)
		}
		sp := e.tr.start(parent, "sampling.restore")
		defer e.tr.end(sp)
		rec, ok := store.LoadPlan(planKey)
		if !ok {
			return nil, fmt.Errorf("cached plan missing")
		}
		s := sampling.OpenStream(prog, chunkLen, rec.Total, rec.HitHalt, store, key, &wcfg)
		plan := sampling.Plan{Warmup: sspec.Warmup}
		for _, iv := range rec.Intervals {
			plan.Intervals = append(plan.Intervals, sampling.Interval{Start: int(iv.Start), End: int(iv.End), Weight: iv.Weight})
		}
		return sampling.RunPlan(ctx, cfg, plan, s.Source(plan), e.jobs)
	}

	pass := func(parent, n int) error {
		// A fresh store object per pass: the second pass reads the
		// populated directory as a new process would.
		store, err := artifact.Open(storeDir, artifact.RW, 0)
		if err != nil {
			return err
		}
		var comb *sampling.Combined
		if e.tr != nil {
			comb, err = chained(parent, n, store)
		} else {
			var out *sampling.Outcome
			out, err = sampling.Execute(ctx, cfg, sampling.Request{
				Spec: sspec, Budget: budget, Jobs: e.jobs, Checkpoint: true,
				Store: store, TraceKey: key, Warm: true, Prog: prog,
			})
			if err == nil {
				comb = out.Combined
				if n > 1 && !out.PlanCached {
					err = fmt.Errorf("re-run did not use the cached plan")
				}
			}
		}
		addCounters(e.layers, store.Counters())
		if err != nil {
			return err
		}
		if n == 1 {
			for _, r := range comb.Results {
				sim.add(r.Stats)
			}
		}
		e.chk.digest("sampled-gcc/combined", sha(comb.MarshalCanonical()))
		return nil
	}

	// probe times the emulator's chunked stream with an empty callback,
	// then the warm models' update and snapshot over the same stream.
	probe := func(parent int) error {
		sp := e.tr.start(parent, "trace.stream")
		total, _, err := trace.ForEachChunk(ctx, emu.New(prog), streamBudget, chunkLen,
			func(int64, []trace.Entry) error { return nil })
		e.tr.end(sp)
		if err != nil {
			return err
		}
		e.tr.count("trace.stream.instr", total)
		ws := warm.New(wcfg)
		var snapBytes int
		_, _, err = trace.ForEachChunk(ctx, emu.New(prog), streamBudget, chunkLen,
			func(_ int64, chunk []trace.Entry) error {
				ws.UpdateChunk(chunk)
				sp := e.tr.start(parent, "warm.snapshot")
				snapBytes = len(ws.Snapshot())
				e.tr.end(sp)
				return nil
			})
		e.layers["warm.snapshot_bytes"] = float64(snapBytes)
		return err
	}

	return &runner{pass: pass, reruns: 2, sim: func() simEvents { return sim }, probe: probe, budgets: map[string]any{
		"instructions": budget, "sample": sspec.String(), "stream_probe_instructions": streamBudget,
	}}, nil
}

// chunkLenFor is the streamed path's chunk length (checkpoint spacing
// and interval length): 1% of the budget, clamped to [1k, 1M] and to the
// budget, as sampling.Execute chooses it.
func chunkLenFor(budget int64) int {
	return int(min(max(budget/100, 1000), 1_000_000, budget))
}

// planRecord is the persisted form of a plan, as sampling.Execute
// stores it.
func planRecord(p sampling.Plan, s *sampling.Stream) *artifact.PlanRecord {
	rec := &artifact.PlanRecord{ChunkLen: int64(s.ChunkLen), Total: s.Total, Warmup: int64(p.Warmup), HitHalt: s.HitHalt}
	for _, iv := range p.Intervals {
		rec.Intervals = append(rec.Intervals, artifact.PlanInterval{Start: int64(iv.Start), End: int64(iv.End), Weight: iv.Weight})
	}
	return rec
}
