// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI). Each experiment function renders the same rows/series
// the paper reports; cmd/experiments drives them all and EXPERIMENTS.md
// records paper-vs-measured values. Traces and simulation results are
// cached so experiments sharing runs (most of them share the four default
// model runs) do not repeat work. Results are keyed by the configuration's
// content digest, not by label, so two experiments that describe the same
// machine under different names share one simulation.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/power"
	"dmdp/internal/sampling"
	"dmdp/internal/sched"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

// Options configures a reproduction run.
type Options struct {
	// Budget is the instruction count simulated per proxy (the paper
	// uses 100M-instruction SimPoint intervals; our stationary proxies
	// converge much faster).
	Budget int64
	// Benchmarks restricts the suite (default: all 21).
	Benchmarks []string
	// Parallel runs benchmarks concurrently (deterministic results;
	// scheduling only affects wall clock).
	Parallel bool
	// Jobs is the worker-pool width for parallel warm-up (0 =
	// GOMAXPROCS). Ignored when Parallel is false.
	Jobs int
	// Cache is the persistent artifact store (nil = in-memory caching
	// only). Lookups go memory -> disk -> simulate; results of failed
	// or fault-injected runs are never persisted.
	Cache *artifact.Store
	// Context, when set, bounds every run the runner starts (the CLIs'
	// wall-clock -timeout): once it is done, in-flight simulations abort
	// with a structured canceled error and pooled warm-ups stop claiming
	// new work. Nil means no bound.
	Context context.Context
	// Sample overrides the samp-err experiment's sampling spec (zero
	// value: a budget-derived default, see Runner.sampSpec).
	Sample sampling.Spec
	// SampleCheckpoint persists/restores sampling checkpoints and plans
	// in Cache during sampled runs.
	SampleCheckpoint bool
	// SampleWarm adds functionally-warmed rows to the samp-err
	// experiment: each benchmark is sampled twice, cold-start (the
	// paper's checkpoint semantics) and with cache/TLB/predictor tag
	// state installed from the profiling pass.
	SampleWarm bool
}

// DefaultOptions runs the full suite at 300k instructions per proxy.
func DefaultOptions() Options { return Options{Budget: 300_000, Parallel: true} }

// RunSpec names one simulation an experiment needs: a benchmark, the
// machine configuration, and the display label its tables use. Two specs
// with equal (Bench, Cfg.Digest()) describe the same run regardless of
// label.
type RunSpec struct {
	Bench string
	Cfg   config.Config
	Label string
}

// runKey identifies a simulation in the result cache. Labels are
// display-only; the digest covers every Config field, so distinct
// machines never alias and identical machines always share.
type runKey struct {
	bench  string
	digest config.Digest
	budget int64
}

// traceCall is the singleflight slot for one proxy's trace build.
type traceCall struct {
	wg  sync.WaitGroup
	tr  *trace.Trace
	err error
}

// keyCall memoizes one benchmark's trace-store key (the SHA-256 of its
// generated source is not free to recompute per run).
type keyCall struct {
	once sync.Once
	key  artifact.Key
	ok   bool
}

// Runner caches traces and simulation results across experiments.
type Runner struct {
	opt  Options
	sims atomic.Int64 // simulations of any kind executed (not cache hits)

	mu       sync.Mutex
	traces   map[string]*traceCall
	calls    map[runKey]*flight[*core.Stats]
	machines map[machineKey]*flight[*core.MachineStats]
	sampled  map[sampledKey]*flight[*sampling.Outcome]
	keys     map[string]*keyCall
	failures []Failure
}

// NewRunner builds a runner.
func NewRunner(opt Options) *Runner {
	if opt.Budget <= 0 {
		opt.Budget = DefaultOptions().Budget
	}
	if len(opt.Benchmarks) == 0 {
		opt.Benchmarks = workload.Names()
	}
	return &Runner{
		opt:      opt,
		traces:   make(map[string]*traceCall),
		calls:    make(map[runKey]*flight[*core.Stats]),
		machines: make(map[machineKey]*flight[*core.MachineStats]),
		sampled:  make(map[sampledKey]*flight[*sampling.Outcome]),
		keys:     make(map[string]*keyCall),
	}
}

// Cache returns the persistent store the runner was built with (nil when
// the cache is off).
func (r *Runner) Cache() *artifact.Store { return r.opt.Cache }

// ctx returns the runner's base context (never nil).
func (r *Runner) ctx() context.Context {
	if r.opt.Context != nil {
		return r.opt.Context
	}
	return context.Background()
}

// Sims returns the number of simulations executed so far — single-core,
// machine and sampled runs alike, cache hits excluded — the warm-cache
// and singleflight test oracle.
func (r *Runner) Sims() int64 { return r.sims.Load() }

// traceKey returns the persistent trace-store key for a benchmark
// (ok=false for unknown names). Keys are memoized: the underlying source
// hash regenerates the proxy's assembly.
func (r *Runner) traceKey(name string) (artifact.Key, bool) {
	r.mu.Lock()
	c, ok := r.keys[name]
	if !ok {
		c = &keyCall{}
		r.keys[name] = c
	}
	r.mu.Unlock()
	c.once.Do(func() {
		if s, ok := workload.Get(name); ok {
			c.key = artifact.TraceKey(s.SourceHash(), r.opt.Budget)
			c.ok = true
		}
	})
	return c.key, c.ok
}

// Benchmarks returns the active suite.
func (r *Runner) Benchmarks() []string { return r.opt.Benchmarks }

func (r *Runner) intBenchmarks() []string { return r.filterClass(workload.Int) }
func (r *Runner) fpBenchmarks() []string  { return r.filterClass(workload.Float) }

func (r *Runner) filterClass(c workload.Class) []string {
	var out []string
	for _, n := range r.opt.Benchmarks {
		if s, ok := workload.Get(n); ok && s.Class == c {
			out = append(out, n)
		}
	}
	return out
}

// jobs returns the effective worker-pool width.
func (r *Runner) jobs() int {
	if !r.opt.Parallel {
		return 1
	}
	if r.opt.Jobs > 0 {
		return r.opt.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Trace returns (building and caching) the proxy's analyzed trace. Builds
// are deduplicated: concurrent callers for the same proxy share one
// build.
func (r *Runner) Trace(name string) (*trace.Trace, error) {
	r.mu.Lock()
	c, ok := r.traces[name]
	if ok {
		r.mu.Unlock()
		c.wg.Wait()
		return c.tr, c.err
	}
	c = &traceCall{}
	c.wg.Add(1)
	r.traces[name] = c
	r.mu.Unlock()

	if s, ok := workload.Get(name); ok {
		key, kok := r.traceKey(name)
		if kok {
			if tr, hit := r.opt.Cache.LoadTrace(key); hit {
				c.tr = tr
			}
		}
		if c.tr == nil {
			// Builds poll the runner's base context: a -timeout aborts a
			// multi-minute 100M-entry emulation mid-way instead of running
			// it to completion first.
			c.tr, c.err = s.BuildTraceCtx(r.ctx(), r.opt.Budget)
			if c.err == nil && kok {
				r.opt.Cache.StoreTrace(key, c.tr)
			}
		}
	} else {
		c.err = fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	c.wg.Done()
	return c.tr, c.err
}

// traceLen returns the entry count of an already-built trace (0 when the
// build failed or never ran). Used for longest-trace-first scheduling.
func (r *Runner) traceLen(name string) int {
	r.mu.Lock()
	c, ok := r.traces[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	c.wg.Wait()
	if c.tr == nil {
		return 0
	}
	return len(c.tr.Entries)
}

// Run simulates the benchmark under cfg, caching by (benchmark, config
// digest, budget) — the label only names the run in tables and failure
// rows. Concurrent callers requesting the same machine share one
// simulation. A failed run (error or panic) is retried once with the
// pipeline tracer attached; if it fails again the failure is cached and
// recorded (see Failures) so the rest of the suite proceeds without it.
func (r *Runner) Run(name string, cfg config.Config, label string) (*core.Stats, error) {
	return r.RunCtx(r.ctx(), name, cfg, label)
}

// RunCtx is Run bounded by ctx: the executing simulation aborts with a
// structured canceled error when ctx fires. Cancellations are delivered
// to every waiter sharing the call but are NOT negatively cached — the
// same machine can succeed under a longer deadline, so the next request
// re-executes. Concurrent callers still share one in-flight simulation
// (the first caller's context governs it; attached callers inherit the
// outcome).
func (r *Runner) RunCtx(ctx context.Context, name string, cfg config.Config, label string) (*core.Stats, error) {
	key := runKey{bench: name, digest: cfg.Digest(), budget: r.opt.Budget}
	res := join(r, r.calls, key, func() outcome[*core.Stats] {
		return execute(ctx, r, r.coreJob(name, cfg, label))
	})
	return deliver(r, name, label, res)
}

// coreJob describes a single-core run to the executor: persisted as a
// DMDPRES1 record unless fault-injected, and retried once with the
// pipeline tracer attached when it fails.
func (r *Runner) coreJob(name string, cfg config.Config, label string) *job[*core.Stats] {
	j := &job[*core.Stats]{
		bench: name, label: label, retry: true,
		canon: (*core.Stats).MarshalCanonical,
		sim: func(ctx context.Context, tr *trace.Trace, traced bool) (*core.Stats, error) {
			c, err := core.New(cfg, tr)
			if err != nil {
				return nil, err
			}
			if traced {
				c.AttachTracer(64)
			}
			st, err := c.RunContext(ctx)
			if err != nil {
				return nil, err
			}
			// Keep a copy: the returned pointer is into the core, and the
			// result table would pin every core it ever ran.
			cp := *st
			return &cp, nil
		},
	}
	if tk, ok := r.traceKey(name); ok && !cfg.Faults.Enabled() {
		j.key = artifact.ResultKey(tk, cfg.Digest(), r.opt.Budget)
		j.load = func() (*core.Stats, string, bool) { return r.opt.Cache.LoadStats(j.key) }
		j.save = func(st *core.Stats) { r.opt.Cache.StoreStats(j.key, st) }
	}
	return j
}

// RunModel simulates under the default configuration for a model.
func (r *Runner) RunModel(name string, m config.Model) (*core.Stats, error) {
	return r.Run(name, config.Default(m), m.String())
}

// suite crosses the given labelled configurations with every active
// benchmark (benchmark-major order, so one proxy's runs are adjacent).
func (r *Runner) suite(specs ...RunSpec) []RunSpec {
	out := make([]RunSpec, 0, len(specs)*len(r.opt.Benchmarks))
	for _, b := range r.opt.Benchmarks {
		for _, s := range specs {
			s.Bench = b
			out = append(out, s)
		}
	}
	return out
}

// modelSpec is the default-configuration spec for a model.
func modelSpec(m config.Model) RunSpec {
	return RunSpec{Cfg: config.Default(m), Label: m.String()}
}

// WarmUp executes every run the selected experiments declare —
// single-core, machine and sampled runs — on a worker pool sized by
// Options (Jobs, or GOMAXPROCS; 1 when Parallel is off). The union of
// run sets is deduplicated by run key, traces are built first, and runs
// are scheduled longest-first so the slowest never straggle at the
// tail. Rendering the selected experiments afterwards hits only warm
// cache. Individual failures do not abort the warm-up: they are
// negatively cached and recorded (see Failures), and an aggregate count
// is returned as an error.
func (r *Runner) WarmUp(selected ...Experiment) error {
	var d declared
	for _, e := range selected {
		if e.Runs != nil {
			d.runs = append(d.runs, e.Runs(r)...)
		}
		if e.Machines != nil {
			d.machines = append(d.machines, e.Machines(r)...)
		}
		if e.Sampled != nil {
			d.sampled = append(d.sampled, e.Sampled(r)...)
		}
	}
	return r.warm(d)
}

// Prefetch warms the trace and default-model caches (the runs most
// experiments share) on the worker pool. Results remain fully
// deterministic. Returns an aggregate error when any run failed.
func (r *Runner) Prefetch() error {
	return r.warm(declared{runs: r.suite(
		modelSpec(config.Baseline), modelSpec(config.NoSQ),
		modelSpec(config.DMDP), modelSpec(config.Perfect),
	)})
}

// declared is a set of runs to warm, one list per kind.
type declared struct {
	runs     []RunSpec
	machines []MachineSpec
	sampled  []SampledSpec
}

// task is one deduplicated run on the warm-up pool. cost scales the
// trace length into the schedule's length estimate (a machine steps
// one copy of the trace per core).
type task struct {
	bench string
	cost  int
	run   func(ctx context.Context) error
}

// warm deduplicates the declared runs by run key (first-encounter label
// wins, which keeps failure rows deterministic), builds the traces, then
// executes the runs on the pool, longest first. A sampled run on the
// pool simulates its intervals serially, so the pool is never
// oversubscribed.
func (r *Runner) warm(d declared) error {
	var tasks []task
	seen := make(map[any]bool)
	add := func(key any, t task) {
		if !seen[key] {
			seen[key] = true
			tasks = append(tasks, t)
		}
	}
	for _, s := range d.runs {
		add(runKey{bench: s.Bench, digest: s.Cfg.Digest(), budget: r.opt.Budget}, task{s.Bench, 1, func(ctx context.Context) error {
			_, err := r.RunCtx(ctx, s.Bench, s.Cfg, s.Label)
			return err
		}})
	}
	for _, s := range d.machines {
		add(r.machineKey(s), task{s.Bench, s.Cfg.Cores, func(ctx context.Context) error {
			_, err := r.runMachine(ctx, s)
			return err
		}})
	}
	for _, s := range d.sampled {
		add(r.sampledKey(s), task{s.Bench, 1, func(ctx context.Context) error {
			_, err := r.runSampled(ctx, s, 1)
			return err
		}})
	}
	if len(tasks) == 0 {
		return nil
	}
	var benches []string
	seenBench := make(map[string]bool)
	for _, t := range tasks {
		if !seenBench[t.bench] {
			seenBench[t.bench] = true
			benches = append(benches, t.bench)
		}
	}
	ctx := r.ctx()

	// Traces first: they gate every run of their proxy and their lengths
	// drive the schedule.
	r.forEachPooled(ctx, len(benches), func(i int) {
		r.Trace(benches[i])
	})

	// Longest first; stable sort keeps first-encounter order for equal
	// lengths, so the schedule is deterministic.
	sort.SliceStable(tasks, func(i, j int) bool {
		return r.traceLen(tasks[i].bench)*tasks[i].cost > r.traceLen(tasks[j].bench)*tasks[j].cost
	})

	var failed atomic.Int64
	started := r.forEachPooled(ctx, len(tasks), func(i int) {
		if err := tasks[i].run(ctx); err != nil {
			failed.Add(1)
		}
	})
	if skipped := len(tasks) - started; skipped > 0 {
		return fmt.Errorf("experiments: warm-up cancelled (%v): %d of %d runs never started, %d failed (see the failure table)",
			ctx.Err(), skipped, len(tasks), failed.Load())
	}
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("experiments: %d of %d warm-up runs failed (see the failure table)", n, len(tasks))
	}
	return nil
}

// forEachPooled runs f(0..n-1) on the runner's worker pool, claiming no
// new items once ctx is done; returns the number of items started.
func (r *Runner) forEachPooled(ctx context.Context, n int, f func(i int)) int {
	return sched.PoolCtx(ctx, r.jobs(), n, f)
}

// Energy evaluates the power model for a cached run.
func (r *Runner) Energy(name string, m config.Model) (power.Result, error) {
	st, err := r.RunModel(name, m)
	if err != nil {
		return power.Result{}, err
	}
	return power.Compute(st, power.DefaultParams()), nil
}

// Experiment identifies one reproducible artifact. Runs, Machines and
// Sampled declare the experiment's full simulation set up front — its
// single-core runs, multicore machine runs and sampled runs — so the
// runner can execute the union across experiments on the worker pool
// before any rendering starts; Run then renders from warm cache.
type Experiment struct {
	ID       string
	Title    string
	Run      func(r *Runner) (string, error)
	Runs     func(r *Runner) []RunSpec
	Machines func(r *Runner) []MachineSpec
	Sampled  func(r *Runner) []SampledSpec
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig2", Title: "Figure 2: NoSQ load instruction distribution", Run: Fig2, Runs: Fig2Runs},
		{ID: "fig3", Title: "Figure 3: delayed vs bypassing load execution time (NoSQ)", Run: Fig3, Runs: Fig3Runs},
		{ID: "fig5", Title: "Figure 5: low-confidence load prediction outcomes (DMDP)", Run: Fig5, Runs: Fig5Runs},
		{ID: "fig12", Title: "Figure 12: speedup over the baseline", Run: Fig12, Runs: Fig12Runs},
		{ID: "fig14", Title: "Figure 14: store buffer size sweep (DMDP)", Run: Fig14, Runs: Fig14Runs},
		{ID: "fig15", Title: "Figure 15: EDP of DMDP normalized to NoSQ", Run: Fig15, Runs: Fig15Runs},
		{ID: "tab4", Title: "Table IV: average execution time of all loads", Run: TableIV, Runs: TableIVRuns},
		{ID: "tab5", Title: "Table V: average execution time of low-confidence loads", Run: TableV, Runs: TableVRuns},
		{ID: "tab6", Title: "Table VI: memory dependence mispredictions (MPKI)", Run: TableVI, Runs: TableVIRuns},
		{ID: "tab7", Title: "Table VII: re-execution stall cycles per 1k instructions", Run: TableVII, Runs: TableVIIRuns},
		{ID: "alt-issue4", Title: "§VI-g: 4-issue width", Run: AltIssue4, Runs: AltIssue4Runs},
		{ID: "alt-rob512", Title: "§VI-g: 512-entry ROB", Run: AltROB512, Runs: AltROB512Runs},
		{ID: "alt-rmo", Title: "§VI-g: RMO consistency", Run: AltRMO, Runs: AltRMORuns},
		{ID: "alt-prf160", Title: "§VI-f: halved physical register file", Run: AltPRF160, Runs: AltPRF160Runs},
		{ID: "abl-silent", Title: "Ablation: silent-store-aware predictor update (§VI-a)", Run: AblSilentPolicy, Runs: AblSilentPolicyRuns},
		{ID: "abl-biased", Title: "Ablation: biased vs balanced confidence (§IV-E)", Run: AblBiasedConfidence, Runs: AblBiasedConfidenceRuns},
		{ID: "abl-tage", Title: "Ablation: TAGE-like store distance predictor (§VII)", Run: AblTAGE, Runs: AblTAGERuns},
		{ID: "abl-coalesce", Title: "Ablation: store coalescing (§V)", Run: AblCoalescing, Runs: AblCoalescingRuns},
		{ID: "abl-inval", Title: "Ablation: remote invalidation traffic (§IV-F)", Run: AblInvalidations, Runs: AblInvalidationsRuns},
		{ID: "alt-fnf", Title: "Alt: Fire-and-Forget comparison (§VII)", Run: AltFnF, Runs: AltFnFRuns},
		{ID: "abl-prefetch", Title: "Ablation: next-line L1 prefetcher", Run: AblPrefetch, Runs: AblPrefetchRuns},
		{ID: "samp-err", Title: "Methodology: sampled-vs-full IPC error (§V)", Run: SampErr, Runs: SampErrRuns, Sampled: SampErrSampled},
		{ID: "mc-ipc", Title: "Multicore: aggregate IPC scaling over a shared L2", Run: McIPC, Machines: McIPCMachines},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
