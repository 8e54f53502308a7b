package main

import (
	"fmt"
	"path/filepath"
	"time"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/emu"
	"dmdp/internal/experiments"
	"dmdp/internal/isa"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// newSuite is the paper reproduction: every experiment of
// experiments.All() over all 21 proxies at one budget, first from an
// empty artifact store in rw mode, then again over the populated store
// with a fresh runner (as a second invocation of cmd/experiments would).
// The seed does not change its inputs: they are the paper's proxies.
func newSuite(e *env, parent int, small bool) (*runner, error) {
	budget := int64(10_000)
	benches := workload.Names()
	machineBenches := 2
	if small {
		budget, benches, machineBenches = 5_000, benches[:2], 1
	}
	// Set-up assembles the inputs, so a broken proxy fails before
	// timing starts; the layer probe reuses the programs.
	progs := make([]*isa.Program, len(benches))
	for i, name := range benches {
		spec, _ := workload.Get(name)
		sp := e.tr.start(parent, "asm.assemble")
		p, err := spec.Program()
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	storeDir := filepath.Join(e.dir, "suite-store")
	var first *experiments.Runner

	pass := func(parent, n int) error {
		store, err := artifact.Open(storeDir, artifact.RW, 0)
		if err != nil {
			return err
		}
		r := experiments.NewRunner(experiments.Options{
			Budget: budget, Benchmarks: benches, Parallel: true, Jobs: e.jobs, Cache: store,
		})
		if n == 1 {
			first = r
		}
		all := experiments.All()
		cpu0, t0 := cpuSeconds(), time.Now()
		sp := e.tr.start(parent, "experiments.warmup")
		err = r.WarmUp(all...)
		e.tr.end(sp)
		if n == 1 && e.layers != nil {
			e.layers["experiments.pool_util"] = (cpuSeconds() - cpu0) / (time.Since(t0).Seconds() * float64(e.jobs))
			e.layers["experiments.runs"] = float64(r.Sims())
		}
		e.chk.op(fmt.Sprintf("suite/warmup%d", n), err)
		for _, x := range all {
			sp := e.tr.start(parent, "experiments.render")
			out, err := x.Run(r)
			e.tr.end(sp)
			if err == nil && out == "" {
				err = fmt.Errorf("empty output")
			}
			if err != nil {
				e.chk.fail("suite/"+x.ID, err)
				continue
			}
			e.chk.digest("suite/"+x.ID, sha([]byte(out)))
		}
		if f := r.Failures(); len(f) > 0 {
			e.chk.fail(fmt.Sprintf("suite/runs%d", n), fmt.Errorf("%d failed runs, first %s/%s: %v", len(f), f[0].Bench, f[0].Label, f[0].Err))
		}
		addCounters(e.layers, store.Counters())
		return nil
	}

	// sim sums the declared runs of the cold pass, read back from the
	// runner's in-memory cache. Runs the experiments make at render time
	// (samp-err's sampled intervals, mc-ipc's machines) are not visible
	// from outside and are left out.
	sim := func() simEvents {
		var s simEvents
		if first == nil {
			return s
		}
		seen := make(map[string]bool)
		for _, x := range experiments.All() {
			if x.Runs == nil {
				continue
			}
			for _, spec := range x.Runs(first) {
				key := fmt.Sprintf("%s/%x", spec.Bench, spec.Cfg.Digest())
				if seen[key] {
					continue
				}
				seen[key] = true
				if st, err := first.Run(spec.Bench, spec.Cfg, spec.Label); err == nil {
					s.add(st)
				}
			}
		}
		// Drop the cold pass's runner and the cores it caches, so the
		// second pass runs without that heap, as a second invocation
		// of cmd/experiments would.
		first = nil
		return s
	}

	// probe times the layers the runner calls internally: trace build,
	// trace store and load, core construction and the cycle loop of
	// every model, and the multicore machine at 2 and 4 cores.
	probe := func(parent int) error {
		dir := filepath.Join(e.dir, "suite-probe-store")
		store, err := artifact.Open(dir, artifact.RW, 0)
		if err != nil {
			return err
		}
		for i, name := range benches {
			sp := e.tr.start(parent, "emu.build")
			tr, err := emu.Run(progs[i], budget)
			e.tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			e.tr.count("emu.instr", int64(len(tr.Entries)))
			spec, _ := workload.Get(name)
			key := artifact.TraceKey(spec.SourceHash(), budget)
			sp = e.tr.start(parent, "artifact.trace_store")
			store.StoreTrace(key, tr)
			e.tr.end(sp)
			// A fresh store has no decoded-trace memo, so the load
			// reads, checks and maps the file.
			reader, err := artifact.Open(dir, artifact.RO, 0)
			if err != nil {
				return err
			}
			sp = e.tr.start(parent, "artifact.trace_load")
			_, ok := reader.LoadTrace(key)
			e.tr.end(sp)
			if !ok {
				return fmt.Errorf("%s: stored trace did not load", name)
			}
			addCounters(e.layers, reader.Counters())
			for _, m := range models {
				if err := timeCore(e, parent, config.Default(m), tr); err != nil {
					return fmt.Errorf("%s/%s: %w", name, m, err)
				}
			}
			if i < machineBenches {
				for _, n := range machineSizes {
					if err := timeMachine(e, parent, tr, n); err != nil {
						return fmt.Errorf("%s/%dc: %w", name, n, err)
					}
				}
			}
		}
		addCounters(e.layers, store.Counters())
		return nil
	}

	return &runner{pass: pass, reruns: 1, sim: sim, probe: probe, budgets: map[string]any{
		"instructions_per_proxy": budget, "proxies": len(benches), "experiments": len(experiments.All()),
	}}, nil
}

// timeCore builds one core and runs it to completion, timing each call.
func timeCore(e *env, parent int, cfg config.Config, tr *trace.Trace) error {
	sp := e.tr.start(parent, "core.new")
	c, err := core.New(cfg, tr)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	span := "core.run." + cfg.Model.String()
	sp = e.tr.start(parent, span)
	st, err := c.Run()
	e.tr.end(sp)
	if err != nil {
		return err
	}
	e.tr.count(span+".instr", st.Instructions)
	e.tr.count(span+".cycles", st.Cycles)
	return nil
}

// timeMachine runs the mc-ipc configuration: n DMDP cores, timing only,
// replicating one trace over a shared L2.
func timeMachine(e *env, parent int, tr *trace.Trace, n int) error {
	cfg := core.DefaultMachineConfig(n, config.DMDP, core.MemTSO)
	cfg.Semantics = false
	cfg.StallProb = 0
	traces := make([]*trace.Trace, n)
	for i := range traces {
		traces[i] = tr
	}
	sp := e.tr.start(parent, "core.machine.new")
	m, err := core.NewMachine(cfg, traces)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	span := "core.machine.run." + coresTag(n)
	sp = e.tr.start(parent, span)
	ms, err := m.Run()
	e.tr.end(sp)
	if err != nil {
		return err
	}
	e.tr.count(span+".cycles", ms.GlobalCycles)
	return nil
}
