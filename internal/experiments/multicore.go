package experiments

import (
	"context"
	"fmt"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/stats"
	"dmdp/internal/trace"
)

// MachineSpec names one multicore machine run: the benchmark's trace
// replicated on every core of the machine Cfg describes, and the
// display label its failure rows use.
type MachineSpec struct {
	Bench string
	Cfg   core.MachineConfig
	Label string
}

// machineKey identifies a machine run in the in-memory result table;
// the digest covers every MachineConfig field.
type machineKey struct {
	bench  string
	digest config.Digest
	budget int64
}

func (r *Runner) machineKey(s MachineSpec) machineKey {
	return machineKey{bench: s.Bench, digest: s.Cfg.Digest(), budget: r.opt.Budget}
}

// RunMachine runs (or reads back) the machine s describes. Machine runs
// go through the same path as single-core runs: concurrent callers
// share one simulation, results persist in the artifact store as
// DMDPMCH1 records keyed by trace, machine digest and budget, verify
// mode re-simulates hits, and a failure is cached and recorded as a
// Failure row under s.Label.
func (r *Runner) RunMachine(s MachineSpec) (*core.MachineStats, error) {
	return r.runMachine(r.ctx(), s)
}

func (r *Runner) runMachine(ctx context.Context, s MachineSpec) (*core.MachineStats, error) {
	res := join(r, r.machines, r.machineKey(s), func() outcome[*core.MachineStats] {
		return execute(ctx, r, r.machineJob(s))
	})
	return deliver(r, s.Bench, s.Label, res)
}

func (r *Runner) machineJob(s MachineSpec) *job[*core.MachineStats] {
	j := &job[*core.MachineStats]{
		bench: s.Bench, label: s.Label,
		canon: (*core.MachineStats).MarshalCanonical,
		sim: func(ctx context.Context, tr *trace.Trace, _ bool) (*core.MachineStats, error) {
			traces := make([]*trace.Trace, s.Cfg.Cores)
			for i := range traces {
				traces[i] = tr
			}
			m, err := core.NewMachine(s.Cfg, traces)
			if err != nil {
				return nil, err
			}
			ms, err := m.RunContext(ctx)
			if err != nil {
				return nil, err
			}
			cp := *ms // detach from the machine, as coreJob does
			return &cp, nil
		},
	}
	if tk, ok := r.traceKey(s.Bench); ok && !s.Cfg.Core.Faults.Enabled() {
		j.key = artifact.MachineKey(tk, s.Cfg.Digest(), r.opt.Budget)
		j.load = func() (*core.MachineStats, string, bool) { return r.opt.Cache.LoadMachine(j.key) }
		j.save = func(ms *core.MachineStats) { r.opt.Cache.StoreMachine(j.key, ms) }
	}
	return j
}

// mcCoreCounts are the machine sizes the multicore table sweeps.
var mcCoreCounts = []int{1, 2, 4}

// mcModels are the per-core models the multicore table compares.
var mcModels = []config.Model{config.Baseline, config.DMDP}

// mcBenchCap bounds the multicore table to the first few proxies: each
// cell is an N-core machine run, so a cold table pays cores × benches
// full simulations (a warm store serves them as DMDPMCH1 records).
const mcBenchCap = 6

func mcBenchmarks(r *Runner) []string {
	b := r.Benchmarks()
	if len(b) > mcBenchCap {
		b = b[:mcBenchCap]
	}
	return b
}

// McIPCMachines declares every machine the multicore table reads.
func McIPCMachines(r *Runner) []MachineSpec {
	var out []MachineSpec
	for _, b := range mcBenchmarks(r) {
		for _, model := range mcModels {
			for _, n := range mcCoreCounts {
				out = append(out, mcSpec(b, model, n))
			}
		}
	}
	return out
}

// mcSpec is one N-core machine with the workload trace replicated on
// every core: a homogeneous-rate contention study over the shared L2
// (timing only — the semantic coupling layer is for litmus programs
// whose addresses are independent of shared data).
func mcSpec(bench string, model config.Model, n int) MachineSpec {
	cfg := core.DefaultMachineConfig(n, model, core.MemTSO)
	cfg.Semantics = false
	// Litmus-grade interleaving jitter is noise for an IPC study: run
	// deterministic lockstep (start skew only).
	cfg.StallProb = 0
	return MachineSpec{Bench: bench, Cfg: cfg, Label: fmt.Sprintf("%s %dc", model, n)}
}

// McIPC renders the multicore scaling table: aggregate IPC of 1, 2 and
// 4 identical cores over a shared L2, baseline vs DMDP. Replicating the
// same address stream is the worst case for coherence (every store
// invalidates every remote L1 and stamps its T-SSBF), so per-core IPC
// degrades with the core count while DMDP's margin over the baseline
// persists.
func McIPC(r *Runner) (string, error) {
	t := stats.NewTable("Multicore: aggregate IPC over a shared L2 (same trace per core)",
		"bench", "base 1c", "base 2c", "base 4c", "dmdp 1c", "dmdp 2c", "dmdp 4c", "dmdp stamps 4c")
	for _, b := range mcBenchmarks(r) {
		row := []any{b}
		var stamps int64
		ok := true
		for _, model := range mcModels {
			for _, n := range mcCoreCounts {
				st, err := r.RunMachine(mcSpec(b, model, n))
				if err != nil {
					ok = false
					break
				}
				row = append(row, st.IPC())
				if model == config.DMDP && n == mcCoreCounts[len(mcCoreCounts)-1] {
					stamps = st.RemoteStamps
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue // failure recorded; row omitted
		}
		row = append(row, fmt.Sprintf("%d", stamps))
		t.AddF(3, row...)
	}
	out := t.String()
	out += "aggregate IPC; remote T-SSBF sentinel stamps shown for the 4-core DMDP machine\n"
	out += "(replicated traces share read misses in the L2 — superlinear baseline scaling —\n" +
		" while every store invalidates all remote L1s and stamps their T-SSBFs)\n"
	return out, nil
}
