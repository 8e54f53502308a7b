// Command dmdpsim runs one proxy benchmark (or an assembly file) under
// one store-load communication model and prints the run's statistics.
//
// Usage:
//
//	dmdpsim -bench hmmer -model dmdp -instr 300000
//	dmdpsim -file prog.s -model nosq
//	dmdpsim -bench gcc -sample 10x1000+200
//	dmdpsim -bench gcc -instr 100M -sample auto -checkpoint -cache rw -j 8
//	dmdpsim -bench gcc -cache rw
//	dmdpsim -list
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dmdp"
	"dmdp/internal/artifact"
	"dmdp/internal/asm"
	"dmdp/internal/cliutil"
	"dmdp/internal/core"
	"dmdp/internal/isa"
	"dmdp/internal/profiling"
	"dmdp/internal/sampling"
	"dmdp/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "hmmer", "proxy benchmark name (see -list)")
		file      = flag.String("file", "", "assembly file to run instead of a proxy benchmark")
		modelName = flag.String("model", "dmdp", "model: baseline | nosq | dmdp | perfect | fnf")
		instr     = flag.String("instr", "300000", "instruction budget (accepts 300000, 300_000, 300k)")
		sbSize    = flag.Int("sb", 0, "store buffer entries (0 = default 32)")
		width     = flag.Int("width", 0, "issue width (0 = default 8)")
		rob       = flag.Int("rob", 0, "ROB entries (0 = default 256)")
		physRegs  = flag.Int("physregs", 0, "physical registers (0 = default 320)")
		rmo       = flag.Bool("rmo", false, "use RMO consistency instead of TSO")
		cores     = flag.Int("cores", 1, "run N copies of the workload on an N-core machine over a shared L2 (timing-only)")
		mcSeed    = flag.Uint64("mcseed", 0, "multicore interleaving seed (with -cores > 1)")
		list      = flag.Bool("list", false, "list proxy benchmarks and exit")
		pipeview  = flag.Int("pipeview", 0, "render a pipeline view of the first N retired instructions")
		src       = flag.Bool("source", false, "print the benchmark's generated assembly and exit")
		sample    = flag.String("sample", "", "interval sampling: auto | auto:K | COUNTxLEN, optionally +WARMUP (e.g. auto:8+2k, 10x1000+200)")
		ckpt      = flag.Bool("checkpoint", false, "persist/restore sampling checkpoints and plans in the artifact cache (needs -cache rw or ro)")
		warmF     = flag.Bool("warm", false, "functionally warm caches/TLB/predictors from the profiling pass before each sampled interval (needs -sample; forced off with -flip)")
		jobs      = flag.Int("j", 1, "sampled-interval worker-pool width (results are byte-identical at any width)")
		sampFull  = flag.String("samplefull", "auto", "also simulate the full trace and report sampled-vs-full IPC error: auto (only for budgets <= 5M) | on | off")
		maxCycles = flag.Int64("maxcycles", 0, "abort with a diagnostic after N simulated cycles (0 = unlimited)")
		flipRate  = flag.Float64("flip", 0, "inject dependence-prediction flips at this rate (hardening demo)")
		faultSeed = flag.Int64("faultseed", 1, "fault injector seed (with -flip)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file")
		cache     = cliutil.RegisterCache(flag.CommandLine)
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "dmdpsim:", err)
		}
	}()

	if *list {
		fmt.Println("Integer:", strings.Join(dmdp.IntWorkloads(), " "))
		fmt.Println("Float:  ", strings.Join(dmdp.FloatWorkloads(), " "))
		return
	}

	budget, err := cliutil.ParseInstr(*instr)
	if err != nil {
		fatal(fmt.Errorf("-instr: %w", err))
	}
	store, err := cache.Open()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if line := store.Summary(); line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}()

	model, err := parseModel(*modelName)
	if err != nil {
		fatal(err)
	}
	cfg := dmdp.DefaultConfig(model)
	if *sbSize > 0 {
		cfg = cfg.WithStoreBuffer(*sbSize)
	}
	if *width > 0 {
		cfg = cfg.WithIssueWidth(*width)
	}
	if *rob > 0 {
		cfg = cfg.WithROB(*rob)
	}
	if *physRegs > 0 {
		cfg = cfg.WithPhysRegs(*physRegs)
	}
	if *rmo {
		cfg = cfg.WithConsistency(dmdp.RMO)
	}
	if *maxCycles != 0 { // negative values reach Validate and are rejected there
		cfg = cfg.WithWatchdog(*maxCycles, 0)
	}
	if *flipRate != 0 {
		cfg = cfg.WithFaults(dmdp.FaultConfig{Seed: *faultSeed, PredictionFlipRate: *flipRate})
	}

	if *src {
		s, err := dmdp.WorkloadSource(*benchName)
		if err != nil {
			fatal(err)
		}
		fmt.Print(s)
		return
	}

	// The workload's identity for the artifact cache is the SHA-256 of
	// the bytes it is built from: the generated proxy source, or the raw
	// -file contents (source or object alike).
	var sourceHash [sha256.Size]byte
	var fileData []byte
	if *file != "" {
		fileData, err = os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		sourceHash = sha256.Sum256(fileData)
	} else {
		s, err := dmdp.WorkloadSource(*benchName)
		if err != nil {
			fatal(err)
		}
		sourceHash = sha256.Sum256([]byte(s))
	}
	traceKey := artifact.TraceKey(sourceHash, budget)

	// loadTrace builds the trace through the trace store: decode on hit,
	// build + persist on miss.
	loadTrace := func() *dmdp.Trace {
		if tr, ok := store.LoadTrace(traceKey); ok {
			return tr
		}
		var tr *dmdp.Trace
		var err error
		switch {
		case *file != "" && len(fileData) >= 4 && string(fileData[:4]) == "DMO1":
			tr, err = dmdp.LoadObject(fileData, budget)
		case *file != "":
			tr, err = dmdp.BuildTrace(string(fileData), budget)
		default:
			tr, err = dmdp.BuildWorkloadTrace(*benchName, budget)
		}
		if err != nil {
			fatal(err)
		}
		store.StoreTrace(traceKey, tr)
		return tr
	}

	// loadProg assembles the workload without emulating it — the
	// streaming sampled path re-materializes only the planned intervals,
	// so 100M+ budgets never hold a full trace in memory.
	loadProg := func() (*isa.Program, error) {
		switch {
		case *file != "" && len(fileData) >= 4 && string(fileData[:4]) == "DMO1":
			return isa.UnmarshalProgram(fileData)
		case *file != "":
			return asm.Assemble(string(fileData))
		default:
			s, ok := workload.Get(*benchName)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", *benchName)
			}
			return s.Program()
		}
	}

	if *cores > 1 {
		if *rmo {
			fatal(fmt.Errorf("-cores requires TSO per-core consistency (drop -rmo)"))
		}
		if *sample != "" || *pipeview > 0 || *flipRate != 0 {
			fatal(fmt.Errorf("-cores is incompatible with -sample, -pipeview and -flip"))
		}
		runMulticore(cfg, model, *cores, *mcSeed, loadTrace())
		return
	}
	if *sample != "" {
		runSampled(sampleRun{
			cfg: cfg, model: model, budget: budget,
			spec: *sample, full: *sampFull, jobs: *jobs, checkpoint: *ckpt, warm: *warmF,
			store: store, traceKey: traceKey,
			loadTrace: loadTrace, loadProg: loadProg,
		})
		return
	}
	if *pipeview > 0 {
		st, pt, err := dmdp.RunTraced(cfg, loadTrace(), *pipeview)
		if err != nil {
			fatal(err)
		}
		pt.Render(os.Stdout)
		fmt.Println()
		printStats(model, st)
		return
	}

	// Plain runs go through the result store. Fault-injected runs are
	// deliberately never persisted: hardening demos should always
	// exercise the real simulator.
	useResults := store != nil && *flipRate == 0
	var resultKey artifact.Key
	if useResults {
		resultKey = artifact.ResultKey(traceKey, cfg.Digest(), budget)
		if st, path, ok := store.LoadStats(resultKey); ok {
			if store.VerifyEnabled() {
				fresh, err := dmdp.Run(cfg, loadTrace())
				if err != nil {
					fatal(err)
				}
				cb, fb := st.MarshalCanonical(), fresh.MarshalCanonical()
				if string(cb) != string(fb) {
					fatal(artifact.NewVerifyError(resultKey, path, workloadName(*benchName, *file), model.String(), cb, fb))
				}
			}
			printStats(model, st)
			return
		}
	}
	st, err := dmdp.Run(cfg, loadTrace())
	if err != nil {
		fatal(err)
	}
	if useResults {
		store.StoreStats(resultKey, st)
	}
	printStats(model, st)
}

func workloadName(bench, file string) string {
	if file != "" {
		return file
	}
	return bench
}

// fullCompareLimit is the largest budget the -samplefull auto
// comparison runs at: a full run would defeat the point of sampling a
// 100M budget.
const fullCompareLimit = 5_000_000

// sampleRun bundles everything the sampled path needs from main.
type sampleRun struct {
	cfg        dmdp.Config
	model      dmdp.Model
	budget     int64
	spec       string
	full       string // -samplefull: auto | on | off
	jobs       int
	checkpoint bool
	warm       bool
	store      *artifact.Store
	traceKey   artifact.Key
	loadTrace  func() *dmdp.Trace
	loadProg   func() (*isa.Program, error)
}

// runSampled exercises the checkpointed sampling methodology (paper §V):
// plan intervals (BBV phase clustering for auto specs, centered
// systematic sampling otherwise), simulate them on a deterministic
// worker pool, and combine by weight. The program streams: its trace
// is never held in memory, and intervals restore from architectural
// checkpoints. Only -samplefull loads the full trace, for the reference
// run. Timing, cache and warming lines go to stderr so stdout stays
// byte-identical across hosts, -j widths and cache states.
func runSampled(r sampleRun) {
	spec, err := cliutil.ParseSampleSpec(r.spec)
	if err != nil {
		fatal(fmt.Errorf("-sample: %w", err))
	}
	switch r.full {
	case "auto", "on", "off":
	default:
		fatal(fmt.Errorf("-samplefull %q (want auto, on or off)", r.full))
	}
	compareFull := r.full == "on" || (r.full == "auto" && r.budget <= fullCompareLimit)

	req := sampling.Request{
		Spec: spec, Budget: r.budget, Jobs: r.jobs,
		Checkpoint: r.checkpoint, Store: r.store, TraceKey: r.traceKey,
		Warm: r.warm,
	}
	if req.Prog, err = r.loadProg(); err != nil {
		fatal(err)
	}

	start := time.Now()
	out, err := sampling.Execute(context.Background(), r.cfg, req)
	if err != nil {
		fatal(err)
	}
	sampledWall := time.Since(start)

	c := out.Combined
	fmt.Printf("model              %s\n", r.model)
	fmt.Printf("sampling spec      %s\n", spec.String())
	fmt.Printf("plan               %d intervals over %d entries\n", len(out.Plan.Intervals), out.Total)
	fmt.Printf("sampled instrs     %d of %d (%.1f%%)\n",
		c.TotalInstructions, out.Total,
		100*float64(c.TotalInstructions)/float64(out.Total))
	fmt.Printf("sampled IPC        %.4f\n", c.WeightedIPC)
	fmt.Printf("sampled MPKI       %.3f\n", c.WeightedMPKI)
	if compareFull {
		full, err := dmdp.Run(r.cfg, r.loadTrace())
		if err != nil {
			fatal(err)
		}
		fullIPC := full.IPC()
		fmt.Printf("full IPC           %.4f\n", fullIPC)
		fmt.Printf("full MPKI          %.3f\n", full.MPKI())
		fmt.Printf("IPC error          %+.2f%%\n", 100*(c.WeightedIPC-fullIPC)/fullIPC)
	}
	// The plan's provenance and the warming accounting go to stderr with
	// the timing: stdout must stay byte-identical across -j widths and
	// cold/warm artifact caches.
	path := "streamed"
	if out.PlanCached {
		path += " (cached plan)"
	}
	fmt.Fprintf(os.Stderr, "sampling path      %s\n", path)
	if out.Warmed {
		fmt.Fprintf(os.Stderr, "functional warming warmed %d of %d intervals (%d cold starts), %.1f KiB of snapshots installed\n",
			out.WarmedIntervals, out.WarmedIntervals+out.ColdStartIntervals,
			out.ColdStartIntervals, float64(out.WarmSnapshotBytes)/1024)
		if out.WarmNanos > 0 {
			fmt.Fprintf(os.Stderr, "warming throughput %.1f Mentries/s over the profiling pass (%d entries)\n",
				float64(out.WarmEntries)*1e3/float64(out.WarmNanos), out.WarmEntries)
		}
	}
	fmt.Fprintf(os.Stderr, "sampled wall clock %.3fs (%d intervals, -j %d)\n",
		sampledWall.Seconds(), len(out.Plan.Intervals), r.jobs)
}

// runMulticore replicates the workload trace across an N-core machine
// over a shared L2 (timing-only: the semantic coupling layer is for
// litmus programs; proxy workloads measure contention and coherence
// traffic). Each core runs the same isolated trace, so the aggregate
// IPC against the single-core run isolates shared-hierarchy effects.
func runMulticore(cfg dmdp.Config, model dmdp.Model, n int, seed uint64, tr *dmdp.Trace) {
	mc := core.DefaultMachineConfig(n, model, core.MemTSO)
	mc.Core = cfg
	mc.Semantics = false
	mc.StallProb = 0 // deterministic lockstep; the seed only skews starts
	mc.Seed = seed
	traces := make([]*dmdp.Trace, n)
	for i := range traces {
		traces[i] = tr
	}
	m, err := core.NewMachine(mc, traces)
	if err != nil {
		fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model              %s\n", model)
	fmt.Printf("cores              %d (shared L2, seed %d)\n", n, seed)
	fmt.Printf("global cycles      %d\n", st.GlobalCycles)
	fmt.Printf("instructions       %d\n", st.Instructions)
	fmt.Printf("aggregate IPC      %.3f\n", st.IPC())
	fmt.Printf("remote invals      %d (T-SSBF stamps %d)\n", st.RemoteInvalidations, st.RemoteStamps)
	fmt.Printf("SB drains          %d\n", st.DrainEvents)
	for i := range st.PerCore {
		c := &st.PerCore[i]
		fmt.Printf("core %-2d            IPC %.3f, %d instr, %d reexecs, %d invals, L1 miss %.1f%%\n",
			i, c.IPC(), c.Instructions, c.Reexecs, c.Invalidations, 100*c.L1MissRate)
	}
	if st.SimWallClockNS > 0 {
		fmt.Fprintf(os.Stderr, "sim wall clock     %.3fs\n", float64(st.SimWallClockNS)/1e9)
	}
}

func parseModel(s string) (dmdp.Model, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return dmdp.Baseline, nil
	case "nosq":
		return dmdp.NoSQ, nil
	case "dmdp":
		return dmdp.DMDP, nil
	case "perfect":
		return dmdp.Perfect, nil
	case "fnf":
		return dmdp.FnF, nil
	}
	return 0, fmt.Errorf("unknown model %q (baseline|nosq|dmdp|perfect|fnf)", s)
}

func printStats(model dmdp.Model, st *dmdp.Stats) {
	e := dmdp.Energy(st)
	fmt.Printf("model              %s\n", model)
	fmt.Printf("instructions       %d\n", st.Instructions)
	fmt.Printf("uops               %d\n", st.Uops)
	fmt.Printf("cycles             %d\n", st.Cycles)
	fmt.Printf("IPC                %.3f\n", st.IPC())
	fmt.Printf("loads              %d (direct %d, bypass %d, delayed %d, predicated %d)\n",
		st.TotalLoads(), st.LoadCount[0], st.LoadCount[1], st.LoadCount[2], st.LoadCount[3])
	fmt.Printf("mean load time     %.2f cycles (p50<=%d, p90<=%d, p99<=%d)\n",
		st.MeanLoadExecTime(),
		st.LoadLatencyPercentile(50), st.LoadLatencyPercentile(90), st.LoadLatencyPercentile(99))
	fmt.Printf("low-conf loads     %d (mean %.2f cycles)\n", st.LowConfCount, st.MeanLowConfExecTime())
	fmt.Printf("cloaks             %d\n", st.Cloaks)
	fmt.Printf("predications       %d\n", st.Predications)
	fmt.Printf("delayed loads      %d\n", st.DelayedLoads)
	fmt.Printf("dep mispredicts    %d (%.2f MPKI; direct %d, bypass %d, delayed %d, predicated %d)\n",
		st.DepMispredicts, st.MPKI(),
		st.DepMispredictsByCat[0], st.DepMispredictsByCat[1], st.DepMispredictsByCat[2], st.DepMispredictsByCat[3])
	fmt.Printf("re-executions      %d (stall %.1f cyc/1k instr)\n", st.Reexecs, st.ReexecStallsPerKilo())
	fmt.Printf("SB-full stalls     %.1f cyc/1k instr\n", st.SBStallsPerKilo())
	fmt.Printf("branch mispredicts %d\n", st.BranchMispredicts)
	fmt.Printf("L1 miss rate       %.1f%%\n", 100*st.L1MissRate)
	fmt.Printf("energy             %.1f uJ (EPI %.1f pJ)\n", e.TotalPJ/1e6, e.EPI)
	fmt.Printf("EDP                %.3e pJ*cyc\n", e.EDP)
	fmt.Printf("oracle checks      %d\n", st.OracleChecks)
	if st.SimWallClockNS > 0 {
		fmt.Printf("sim wall clock     %.3fs (%.0f instr/s host throughput)\n",
			float64(st.SimWallClockNS)/1e9, st.SimIPS())
	}
	if st.Faults.Total() > 0 {
		fmt.Printf("injected faults    %d (flips %d, lowconf %d, predicate %d, inval %d, value %d)\n",
			st.Faults.Total(), st.Faults.PredictionFlips, st.Faults.ForcedLowConf,
			st.Faults.PredicateCorruptions, st.Faults.LineInvalidations, st.Faults.ValueCorruptions)
	}
}

// fatal prints the error — the full diagnostic bundle when the
// simulation died on a structured SimError — and exits non-zero.
func fatal(err error) {
	var se *dmdp.SimError
	if errors.As(err, &se) {
		fmt.Fprintln(os.Stderr, "dmdpsim: simulation failed")
		fmt.Fprintln(os.Stderr, se.Bundle())
	} else {
		fmt.Fprintln(os.Stderr, "dmdpsim:", err)
	}
	os.Exit(1)
}
