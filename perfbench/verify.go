package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"dmdp/internal/asm"
	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/difftest"
	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/litmus"
	"dmdp/internal/progen"
	"dmdp/internal/sched"
	"dmdp/internal/trace"
)

// seedClasses is the number of distinct input sets verify draws from:
// the seed selects one (seed mod seedClasses), and expected.json holds
// the digests of every class, so the outputs of any seed are checked.
const seedClasses = 64

// Litmus and difftest parameters, as cmd/litmus and cmd/difftest use
// them by default.
const (
	litmusBudget   = 20_000     // per-thread emulation budget
	litmusStagger  = 256        // interleaving start-stagger bound
	litmusMaxCycle = 10_000_000 // global-clock bound per machine run
	diffBudget     = 3_000      // dynamic instructions per program
)

var memModels = []core.MemModel{core.MemSC, core.MemTSO}

// litmusCase is one litmus test with its assembled program and the
// interleaving seeds drawn for it.
type litmusCase struct {
	lt    progen.LitmusTest
	prog  *isa.Program
	seeds []uint64
}

// diffCase is one generated difftest program.
type diffCase struct {
	seed   uint64
	preset string
	prog   *isa.Program
	tr     *trace.Trace // built by the pass
}

// newVerify is a litmus sweep and a difftest sweep. Litmus: the named
// shapes plus seeded random tests, each under SC and TSO on 2- to 4-core
// DMDP machines, with seeded interleavings, every final state checked
// against the I2E reference. Difftest: seeded progen programs, all five
// models retired in lockstep with the emulator. The seed drives the
// random tests, the programs and the interleaving seeds; the simulator
// only receives the generated programs. The second pass repeats the
// sweep and must reproduce its digests.
func newVerify(e *env, parent int, small bool) (*runner, error) {
	class := e.seed % seedClasses
	shapes, nRandom, nSeeds, nPrograms := progen.LitmusShapeNames(), 64, 5, 320
	if small {
		shapes, nRandom, nSeeds, nPrograms = []string{"SB", "IRIW"}, 2, 2, 4
	}

	// Set-up generates and assembles every input.
	var tests []progen.LitmusTest
	for _, name := range shapes {
		lt, ok := progen.LitmusShapeByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown litmus shape %s", name)
		}
		tests = append(tests, lt)
	}
	sp := e.tr.start(parent, "progen.generate")
	for i := 0; i < nRandom; i++ {
		tests = append(tests, progen.GenerateLitmus(class*1000+uint64(i)))
	}
	e.tr.end(sp)
	cases := make([]litmusCase, len(tests))
	for j, lt := range tests {
		sp := e.tr.start(parent, "asm.assemble")
		p, err := asm.Assemble(lt.Source)
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("litmus %s: %w", lt.Name, err)
		}
		cases[j] = litmusCase{lt: lt, prog: p, seeds: make([]uint64, nSeeds)}
		for k := range cases[j].seeds {
			cases[j].seeds[k] = mix(mix(mix(class)^uint64(j)) ^ uint64(k))
		}
	}
	presets := progen.Presets()
	progs := make([]diffCase, nPrograms)
	for i := range progs {
		s := class*100_000 + uint64(i) + 1
		p := presets[int(s)%len(presets)]
		sp := e.tr.start(parent, "progen.generate")
		src := progen.Generate(s, p.Knobs)
		e.tr.end(sp)
		sp = e.tr.start(parent, "asm.assemble")
		prog, err := asm.Assemble(src)
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("difftest seed %d: %w", s, err)
		}
		progs[i] = diffCase{seed: s, preset: p.Name, prog: prog}
	}

	var mu sync.Mutex
	var sim, cold simEvents
	failed := false
	// finish records one pool item's outcome.
	finish := func(name string, ev simEvents, err error) {
		e.chk.op(name, err)
		mu.Lock()
		sim.plus(ev)
		failed = failed || err != nil
		mu.Unlock()
	}

	pass := func(parent, n int) error {
		sim, failed = simEvents{}, false
		if n == 1 && e.layers != nil {
			e.layers["litmus.tests"] = float64(len(cases) * len(memModels))
		}
		// Litmus: one pool item per (memory model, test).
		results := make([]*litmus.Result, len(memModels)*len(cases))
		sched.Pool(e.jobs, len(results), func(i int) {
			mm, c := memModels[i/len(cases)], &cases[i%len(cases)]
			res, ev, err := checkLitmus(e, parent, mm, c)
			if err == nil && len(res.Violations) > 0 {
				err = &res.Violations[0]
			}
			results[i] = res
			finish(fmt.Sprintf("litmus/%s/%s", mm, c.lt.Name), ev, err)
		})

		// Difftest: one pool item per program, all models in lockstep.
		lines := make([][]string, len(progs))
		sched.Pool(e.jobs, len(progs), func(i int) {
			c := &progs[i]
			ls, ev, err := lockstepAll(e, parent, c)
			lines[i] = ls
			finish(fmt.Sprintf("difftest/%d", c.seed), ev, err)
		})
		if n == 1 {
			cold = sim
		}
		if failed {
			return nil // counted above; a partial sweep has no digest
		}
		for m, mm := range memModels {
			e.chk.digest(fmt.Sprintf("verify/%d/litmus-%s", class, mm), litmus.Digest(results[m*len(cases):(m+1)*len(cases)]))
		}
		h := sha256.New()
		for _, ls := range lines {
			for _, l := range ls {
				fmt.Fprintln(h, l)
			}
		}
		e.chk.digest(fmt.Sprintf("verify/%d/difftest", class), fmt.Sprintf("%x", h.Sum(nil)))
		return nil
	}

	// probe runs every model without the lockstep hook on the difftest
	// traces of the pass, for the plain-core baseline of the lockstep
	// overhead.
	probe := func(parent int) error {
		errs := make([]error, len(progs))
		sched.Pool(e.jobs, len(progs), func(i int) {
			if progs[i].tr == nil {
				errs[i] = fmt.Errorf("difftest seed %d: no trace", progs[i].seed)
				return
			}
			for _, m := range models {
				if errs[i] == nil {
					errs[i] = timeCore(e, parent, config.Default(m), progs[i].tr)
				}
			}
		})
		if err := errors.Join(errs...); err != nil {
			return err
		}
		lock, _ := e.tr.total("difftest.lockstep")
		newS, _ := e.tr.total("core.new")
		var runS float64
		for _, m := range models {
			s, _ := e.tr.total("core.run." + m.String())
			runS += s
		}
		e.layers["difftest.lockstep_overhead"] = lock / (newS + runS)
		return nil
	}

	return &runner{pass: pass, reruns: 1, sim: func() simEvents { return cold }, probe: probe, budgets: map[string]any{
		"seed_class": class, "litmus_tests": len(cases), "memory_models": len(memModels),
		"interleavings_per_test": nSeeds, "litmus_thread_instructions": litmusBudget,
		"difftest_programs": nPrograms, "difftest_instructions": diffBudget,
	}}, nil
}

// checkLitmus is litmus.Check with the interleaving seeds supplied by
// the caller: per-thread isolated traces, the I2E allowed set, then one
// machine run per seed.
func checkLitmus(e *env, parent int, mm core.MemModel, c *litmusCase) (*litmus.Result, simEvents, error) {
	lt := c.lt
	traces := make([]*trace.Trace, lt.Threads)
	for k := range traces {
		entry, ok := c.prog.Symbols[fmt.Sprintf("thread%d", k)]
		if !ok {
			return nil, simEvents{}, fmt.Errorf("no thread%d label", k)
		}
		tp := *c.prog
		tp.Entry = entry
		sp := e.tr.start(parent, "emu.build")
		tr, err := emu.Run(&tp, litmusBudget)
		e.tr.end(sp)
		if err != nil {
			return nil, simEvents{}, err
		}
		if !tr.HitHalt {
			return nil, simEvents{}, fmt.Errorf("thread %d: no halt within %d instructions", k, litmusBudget)
		}
		e.tr.count("emu.instr", int64(len(tr.Entries)))
		traces[k] = tr
	}
	sp := e.tr.start(parent, "litmus.oracle")
	o, err := litmus.NewOracle(mm, lt, c.prog, traces, 0)
	var allowed []string
	if err == nil {
		allowed, err = o.Allowed()
	}
	e.tr.end(sp)
	if err != nil {
		return nil, simEvents{}, err
	}
	ok := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		ok[a] = true
	}
	res := &litmus.Result{Test: lt.Name, Allowed: allowed, Outcomes: make(map[string]int)}
	var ev simEvents
	for _, seed := range c.seeds {
		cfg := core.DefaultMachineConfig(lt.Threads, config.DMDP, mm)
		cfg.Seed = seed
		cfg.MaxStagger = litmusStagger
		cfg.MaxGlobalCycles = litmusMaxCycle
		sp := e.tr.start(parent, "core.machine.new")
		m, err := core.NewMachine(cfg, traces)
		e.tr.end(sp)
		if err != nil {
			return nil, simEvents{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		span := "core.machine.run." + coresTag(lt.Threads)
		sp = e.tr.start(parent, span)
		ms, err := m.Run()
		e.tr.end(sp)
		if err != nil {
			return nil, simEvents{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		e.tr.count(span+".cycles", ms.GlobalCycles)
		ev.addMachine(ms)
		out := o.OutcomeOf(m)
		res.Outcomes[out]++
		if !ok[out] {
			res.Violations = append(res.Violations, litmus.Violation{Test: lt.Name, Seed: seed, Outcome: out})
		}
	}
	return res, ev, nil
}

// lockstepAll builds one program's trace and retires every model in
// lockstep with the emulator, returning difftest.RunSeed's digest lines.
func lockstepAll(e *env, parent int, c *diffCase) ([]string, simEvents, error) {
	sp := e.tr.start(parent, "emu.build")
	tr, err := emu.Run(c.prog, diffBudget)
	e.tr.end(sp)
	if err != nil {
		return nil, simEvents{}, err
	}
	e.tr.count("emu.instr", int64(len(tr.Entries)))
	c.tr = tr
	lines := make([]string, 0, len(models))
	var ev simEvents
	for _, m := range models {
		sp := e.tr.start(parent, "difftest.lockstep")
		st, err := difftest.Lockstep(config.Default(m), tr)
		e.tr.end(sp)
		if err != nil {
			return nil, simEvents{}, fmt.Errorf("model %s: %w", m, err)
		}
		ev.add(st)
		lines = append(lines, fmt.Sprintf("seed=%d preset=%s model=%s %s", c.seed, c.preset, m, st.DigestLine()))
	}
	return lines, ev, nil
}

// plus adds another set of events.
func (s *simEvents) plus(o simEvents) {
	s.Instructions += o.Instructions
	s.Cycles += o.Cycles
	s.Uops += o.Uops
	s.DepMispredicts += o.DepMispredicts
	s.Reexecs += o.Reexecs
	s.L2Misses += o.L2Misses
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
