package main

import (
	"math"
	"strconv"
	"strings"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/core"
)

// models are the five single-core models, in the order the paper uses.
var models = []config.Model{config.Baseline, config.NoSQ, config.DMDP, config.Perfect, config.FnF}

// machineSizes are the core counts the multicore metrics report.
var machineSizes = []int{2, 4}

// layerNames lists every per-layer metric, in BENCHMARK.json order.
func layerNames() []string {
	names := []string{
		"asm.assemble_s", "progen.generate_s",
		"emu.build_s", "emu.minstr_per_s", "trace.stream_minstr_per_s",
		"core.new_s", "core.new_count",
	}
	for _, m := range models {
		names = append(names, "core.run_s."+m.String(), "core.minstr_per_s."+m.String(), "core.ns_per_cycle."+m.String())
	}
	names = append(names, "core.machine.new_s")
	for _, n := range machineSizes {
		names = append(names, "core.machine.run_s."+coresTag(n), "core.machine.ns_per_cycle."+coresTag(n))
	}
	return append(names,
		"experiments.warmup_s", "experiments.render_s", "experiments.runs", "experiments.pool_util",
		"artifact.trace_store_s", "artifact.trace_load_s", "artifact.hits", "artifact.misses",
		"artifact.bytes_read", "artifact.bytes_written",
		"sampling.profile_s", "sampling.plan_s", "sampling.intervals_s", "sampling.restore_s",
		"warm.update_mentries_per_s", "warm.snapshot_s", "warm.snapshot_bytes",
		"litmus.oracle_s", "litmus.tests",
		"difftest.lockstep_s", "difftest.lockstep_overhead",
		"go.alloc_mb", "go.gc_cycles",
		"sim.cycles", "sim.uops", "sim.dep_mispredicts", "sim.reexecutions", "sim.l2_misses",
		"bench.unattributed_s", "bench.trace_overhead_s",
	)
}

// ownOnly reports metrics that describe the workload's own pass and are
// never borrowed from another workload.
func ownOnly(name string) bool {
	return strings.HasPrefix(name, "go.") || strings.HasPrefix(name, "sim.") || strings.HasPrefix(name, "bench.")
}

func coresTag(n int) string { return strconv.Itoa(n) + "c" }

// layerMetrics derives the span-based per-layer metrics from a trace and
// merges the directly measured ones. A metric whose layer the run never
// called is left out.
func layerMetrics(t *tracer, direct map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(direct)+64)
	put := func(name, span string) (float64, bool) {
		s, n := t.total(span)
		if n == 0 {
			return 0, false
		}
		out[name] = s
		return s, true
	}
	put("asm.assemble_s", "asm.assemble")
	put("progen.generate_s", "progen.generate")
	if s, ok := put("emu.build_s", "emu.build"); ok {
		out["emu.minstr_per_s"] = rate(t.counts["emu.instr"], s)
	}
	if s, n := t.total("trace.stream"); n > 0 {
		out["trace.stream_minstr_per_s"] = rate(t.counts["trace.stream.instr"], s)
	}
	if _, n := t.total("core.new"); n > 0 {
		put("core.new_s", "core.new")
		out["core.new_count"] = float64(n)
	}
	for _, m := range models {
		span := "core.run." + m.String()
		if s, ok := put("core.run_s."+m.String(), span); ok {
			out["core.minstr_per_s."+m.String()] = rate(t.counts[span+".instr"], s)
			out["core.ns_per_cycle."+m.String()] = s * 1e9 / math.Max(1, float64(t.counts[span+".cycles"]))
		}
	}
	put("core.machine.new_s", "core.machine.new")
	for _, n := range machineSizes {
		span := "core.machine.run." + coresTag(n)
		if s, ok := put("core.machine.run_s."+coresTag(n), span); ok {
			out["core.machine.ns_per_cycle."+coresTag(n)] = s * 1e9 / math.Max(1, float64(t.counts[span+".cycles"]))
		}
	}
	put("experiments.warmup_s", "experiments.warmup")
	put("experiments.render_s", "experiments.render")
	put("artifact.trace_store_s", "artifact.trace_store")
	put("artifact.trace_load_s", "artifact.trace_load")
	put("sampling.profile_s", "sampling.profile")
	put("sampling.plan_s", "sampling.plan")
	put("sampling.intervals_s", "sampling.intervals")
	put("sampling.restore_s", "sampling.restore")
	put("warm.snapshot_s", "warm.snapshot")
	put("litmus.oracle_s", "litmus.oracle")
	put("difftest.lockstep_s", "difftest.lockstep")
	for k, v := range direct {
		out[k] = v
	}
	return out
}

// rate is millions of items per second.
func rate(items int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(items) / seconds / 1e6
}

// addCounters adds an artifact store's counters to the layer metrics.
func addCounters(layers map[string]float64, c artifact.Counters) {
	if layers == nil {
		return
	}
	layers["artifact.hits"] += float64(c.TraceHits + c.ResultHits + c.CheckpointHits + c.WarmHits)
	layers["artifact.misses"] += float64(c.TraceMisses + c.ResultMisses + c.CheckpointMisses + c.WarmMisses)
	layers["artifact.bytes_read"] += float64(c.BytesRead)
	layers["artifact.bytes_written"] += float64(c.BytesWritten)
}

// add accumulates one single-core run's simulated events.
func (s *simEvents) add(st *core.Stats) {
	s.Instructions += st.Instructions
	s.Cycles += st.Cycles
	s.Uops += st.Uops
	s.DepMispredicts += st.DepMispredicts
	s.Reexecs += st.Reexecs
	s.L2Misses += int64(math.Round(st.L2MissRate * float64(st.L2Accesses)))
}

// addMachine accumulates a multicore run: global cycles, and the
// per-core events summed over cores.
func (s *simEvents) addMachine(ms *core.MachineStats) {
	cycles := s.Cycles
	for i := range ms.PerCore {
		s.add(&ms.PerCore[i])
	}
	s.Cycles = cycles + ms.GlobalCycles
}

func setSim(layers map[string]float64, s simEvents) {
	layers["sim.cycles"] = float64(s.Cycles)
	layers["sim.uops"] = float64(s.Uops)
	layers["sim.dep_mispredicts"] = float64(s.DepMispredicts)
	layers["sim.reexecutions"] = float64(s.Reexecs)
	layers["sim.l2_misses"] = float64(s.L2Misses)
}
