package experiments

import (
	"context"
	"fmt"
	"math"

	"dmdp/internal/artifact"
	"dmdp/internal/config"
	"dmdp/internal/sampling"
	"dmdp/internal/stats"
	"dmdp/internal/trace"
)

// SampledSpec names one sampled run: a benchmark, the machine, the
// sampling spec, whether functional warming is on, and the display
// label its failure rows use.
type SampledSpec struct {
	Bench string
	Cfg   config.Config
	Spec  sampling.Spec
	Warm  bool
	Label string
}

// sampledKey identifies a sampled run in the in-memory result table.
type sampledKey struct {
	bench  string
	digest config.Digest
	budget int64
	spec   string
	warm   bool
}

func (r *Runner) sampledKey(s SampledSpec) sampledKey {
	return sampledKey{bench: s.Bench, digest: s.Cfg.Digest(), budget: r.opt.Budget, spec: s.Spec.String(), warm: s.Warm}
}

// RunSampled runs (or reads back) the sampled run s describes, streamed
// from the benchmark's program. Sampled runs go through the same path
// as single-core runs: concurrent callers share one run, results
// persist in the artifact store as DMDPSMP1 records, verify mode
// re-simulates hits, and a failure is cached and recorded as a Failure
// row under s.Label. A result read back from the store carries only its
// Combined: every persisted run had zero cold-start intervals.
func (r *Runner) RunSampled(s SampledSpec) (*sampling.Outcome, error) {
	return r.runSampled(r.ctx(), s, r.jobs())
}

// runSampled runs s with its intervals on a pool of the given width
// (the result is byte-identical at any width).
func (r *Runner) runSampled(ctx context.Context, s SampledSpec, jobs int) (*sampling.Outcome, error) {
	res := join(r, r.sampled, r.sampledKey(s), func() outcome[*sampling.Outcome] {
		return execute(ctx, r, r.sampledJob(s, jobs))
	})
	return deliver(r, s.Bench, s.Label, res)
}

// sampledJob describes a sampled run to the executor. Besides failed
// and fault-injected runs, a warmed run that cold-started any interval
// is not persisted: its result depends on which warm-state records the
// store held, which the key does not cover.
func (r *Runner) sampledJob(s SampledSpec, jobs int) *job[*sampling.Outcome] {
	tk, keyed := r.traceKey(s.Bench)
	j := &job[*sampling.Outcome]{
		bench: s.Bench, label: s.Label,
		canon: func(o *sampling.Outcome) []byte { return o.Combined.MarshalCanonical() },
		sim: func(ctx context.Context, tr *trace.Trace, _ bool) (*sampling.Outcome, error) {
			out, err := sampling.Execute(ctx, s.Cfg, sampling.Request{
				Spec: s.Spec, Budget: r.opt.Budget, Jobs: jobs,
				Checkpoint: r.opt.SampleCheckpoint, Store: r.opt.Cache,
				TraceKey: tk, Prog: tr.Prog, Warm: s.Warm,
			})
			if err != nil {
				return nil, err
			}
			// Detach each interval's stats from its core, as coreJob does.
			for i := range out.Combined.Results {
				st := *out.Combined.Results[i].Stats
				out.Combined.Results[i].Stats = &st
			}
			return out, nil
		},
	}
	if keyed && !s.Cfg.Faults.Enabled() {
		j.key = artifact.SampledKey(tk, s.Cfg.Digest(), r.opt.Budget, s.Spec.String(), s.Warm, sampling.PlannerVersion)
		j.load = func() (*sampling.Outcome, string, bool) {
			var comb *sampling.Combined
			path, ok := r.opt.Cache.LoadSampled(j.key, func(payload []byte) bool {
				var err error
				comb, err = sampling.UnmarshalCombined(payload)
				return err == nil
			})
			if !ok {
				return nil, "", false
			}
			return &sampling.Outcome{Combined: comb}, path, true
		}
		j.save = func(o *sampling.Outcome) {
			if o.ColdStartIntervals == 0 {
				r.opt.Cache.StoreSampled(j.key, o.Combined.MarshalCanonical())
			}
		}
	}
	return j
}

// sampErrModels are the machines the sampled-error experiment compares
// (every model the evaluation uses).
var sampErrModels = []config.Model{
	config.Baseline, config.NoSQ, config.DMDP, config.Perfect, config.FnF,
}

// sampSpec resolves the sampling spec for samp-err: the explicit
// Options.Sample when one was given, otherwise a budget-derived default
// of 10 centered intervals covering ~20% of the trace, each preceded by
// two interval-lengths of warm-up. The heavy warm-up matters: intervals
// restore exact architectural state from checkpoints but start with
// cold caches and predictors, and the cold-start bias decays only over
// ~100k+ instructions on cache-bound proxies (mcf). With warm-up =
// 2x length the mid-budget error is <4% on compute-bound proxies (with
// length/4 it was >30%); streaming proxies keep a structural cold-start
// bias no warm-up length can remove — see EXPERIMENTS.md
// ("Sampled-budget methodology") for the measured L2-saturation trigger.
func (r *Runner) sampSpec() sampling.Spec {
	if s := r.opt.Sample; s.Auto || s.Count > 0 {
		return s
	}
	l := r.opt.Budget / 50
	if l < 500 {
		l = 500
	}
	if l > 1_000_000 {
		l = 1_000_000
	}
	// At tiny (test) budgets the 500-entry floor would overflow the
	// trace; cap the ten intervals at half the budget so the plan
	// always fits.
	if fit := r.opt.Budget / 20; l > fit {
		l = fit
	}
	if l < 1 {
		l = 1
	}
	return sampling.Spec{Count: 10, Len: int(l), Warmup: int(2 * l)}
}

// SampErrRuns declares the full-trace reference runs: all five models.
func SampErrRuns(r *Runner) []RunSpec {
	specs := make([]RunSpec, 0, len(sampErrModels))
	for _, m := range sampErrModels {
		specs = append(specs, modelSpec(m))
	}
	return r.suite(specs...)
}

// sampWarmModes lists the samp-err row kinds: cold-start rows, plus
// functionally warmed rows with Options.SampleWarm.
func (r *Runner) sampWarmModes() []bool {
	if r.opt.SampleWarm {
		return []bool{false, true}
	}
	return []bool{false}
}

// sampErrSpec is samp-err's sampled run of one benchmark under a model.
func (r *Runner) sampErrSpec(bench string, m config.Model, warm bool) SampledSpec {
	label := m.String() + " sampled"
	if warm {
		label += "+warm"
	}
	return SampledSpec{Bench: bench, Cfg: config.Default(m), Spec: r.sampSpec(), Warm: warm, Label: label}
}

// SampErrSampled declares every sampled run the samp-err table reads.
func SampErrSampled(r *Runner) []SampledSpec {
	var out []SampledSpec
	for _, b := range r.Benchmarks() {
		for _, warm := range r.sampWarmModes() {
			for _, m := range sampErrModels {
				out = append(out, r.sampErrSpec(b, m, warm))
			}
		}
	}
	return out
}

// SampErr validates the sampling methodology (paper §V): for every
// benchmark and model, the full-budget IPC is compared against the
// weighted sampled estimate, and the signed error is tabulated. The
// sampled runs stream from each benchmark's program (and, when
// Options.SampleCheckpoint is set, reuse persisted plans and restore
// intervals from persisted checkpoints), so the marginal cost over the
// reference suite is one profiling pass plus the sampled intervals.
func SampErr(r *Runner) (string, error) {
	spec := r.sampSpec()
	t := stats.NewTable(
		fmt.Sprintf("Sampled-vs-full IPC error, spec %s, budget %d", spec.String(), r.opt.Budget),
		"bench", "baseline", "nosq", "dmdp", "perfect", "fnf")
	// With Options.SampleWarm each benchmark gets a second, functionally
	// warmed row (suffix "+warm"): same intervals, but cache/TLB/predictor
	// tag state installed from the profiling pass before detailed
	// simulation. Rows where any interval fell back to a cold start
	// (missing/corrupt warm state) are marked with a trailing dagger: the
	// estimate is still correct, just less representative.
	warmModes := r.sampWarmModes()
	perModel := make([][][]float64, len(warmModes))
	for mi := range warmModes {
		perModel[mi] = make([][]float64, len(sampErrModels))
	}
	var share []float64
	daggered := false
	for _, b := range r.Benchmarks() {
		for mi, warmed := range warmModes {
			label := b
			if warmed {
				label += "+warm"
			}
			cells := []string{label}
			errs := make([]float64, 0, len(sampErrModels))
			coldStarts := false
			for _, m := range sampErrModels {
				full, err := r.RunModel(b, m)
				if err != nil || full.IPC() == 0 {
					cells = nil
					break
				}
				out, err := r.RunSampled(r.sampErrSpec(b, m, warmed))
				if err != nil {
					cells = nil
					break
				}
				if out.ColdStartIntervals > 0 {
					coldStarts = true
				}
				e := 100 * (out.Combined.WeightedIPC - full.IPC()) / full.IPC()
				errs = append(errs, e)
				cells = append(cells, fmt.Sprintf("%+.2f%%", e))
				if m == config.DMDP && !warmed {
					// A full run retires every trace entry, so its
					// instruction count is the trace length.
					share = append(share,
						100*float64(out.Combined.TotalInstructions)/float64(full.Instructions))
				}
			}
			if cells == nil {
				continue // failure recorded; row omitted
			}
			if coldStarts {
				cells[0] += " †"
				daggered = true
			}
			for i, e := range errs {
				perModel[mi][i] = append(perModel[mi][i], math.Abs(e))
			}
			t.Add(cells...)
		}
	}
	out := t.String()
	for mi, warmed := range warmModes {
		if warmed {
			out += "mean |error| (warmed):"
		} else {
			out += "mean |error|:"
		}
		for i, m := range sampErrModels {
			out += fmt.Sprintf(" %s %.2f%%", m, stats.Mean(perModel[mi][i]))
		}
		out += "\n"
	}
	out += fmt.Sprintf("sampled share: %.1f%% of the full trace (dmdp runs)\n", stats.Mean(share))
	if daggered {
		out += "† at least one interval cold-started (warm state missing or corrupt)\n"
	}
	return out, nil
}
