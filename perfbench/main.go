// Command perfbench runs one repetition of one benchmark workload of the
// DMDP simulator and prints its measurements as one JSON line on
// standard output. run.py starts a fresh process per repetition, so peak
// RSS, GC state and the runner's in-memory caches never carry over, and
// aggregates the repetitions.
//
// A repetition sets up the workload's inputs, runs a first (cold) pass
// and the second pass (once or twice, see runner.reruns), and checks
// every simulated output against the digests in expected.json. With
// -trace-out it also records spans around the calls it makes into each
// layer, probes the layers on the workload's inputs, and reports
// per-layer metrics.
//
// Usage (from this directory):
//
//	go run . -workload suite -seed 1 -dir /tmp/pb
//	go run . -workload verify -seed 7 -dir /tmp/pb -trace-out /tmp/pb-trace
//	go run . -workload sampled-gcc -dir /tmp/pb -print-digests
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

// env is what a workload sees: its seed, pool width, scratch directory,
// output checker, and (traced runs only) the tracer and the map of
// per-layer metrics measured directly rather than derived from spans.
type env struct {
	seed   uint64
	jobs   int
	dir    string
	chk    *checker
	tr     *tracer
	layers map[string]float64
}

// simEvents are the simulated events of a pass, summed over every core
// and run whose stats the benchmark can see.
type simEvents struct {
	Instructions, Cycles, Uops, DepMispredicts, Reexecs, L2Misses int64
}

// runner is a workload whose inputs are set up.
type runner struct {
	// pass runs the timed work; n is 1 for the cold pass and counts up
	// over the second passes.
	pass func(parent, n int) error
	// reruns is how often the second pass runs in a repetition. A short
	// second pass in a long repetition runs twice, so that rerun_s, the
	// median, rests on more samples.
	reruns int
	// sim returns the simulated events of the cold pass; main calls it
	// once, after the cold pass.
	sim func() simEvents
	// probe (traced runs only) times the layers' public functions on
	// the workload's own inputs.
	probe func(parent int) error
	// budgets describes the input sizes for the manifest.
	budgets map[string]any
}

// workloads maps a workload name to its set-up function. small selects
// the reduced inputs used when another workload's traced run borrows
// this one to measure layers it does not exercise itself.
var workloads = map[string]func(e *env, parent int, small bool) (*runner, error){
	"suite":       newSuite,
	"sampled-gcc": newSampled,
	"verify":      newVerify,
}

// record is one repetition's output line.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s,omitempty"`
	CPUS      float64            `json:"cpu_s,omitempty"`
	RerunS    []float64          `json:"rerun_s,omitempty"`
	Sim       simEvents          `json:"sim"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Manifest  map[string]any     `json:"manifest"`
}

func main() {
	t0 := processStart()
	var (
		name      = flag.String("workload", "", "suite | sampled-gcc | verify")
		seed      = flag.Uint64("seed", 1, "workload seed")
		dir       = flag.String("dir", "", "scratch directory for artifact stores (emptied first)")
		traceOut  = flag.String("trace-out", "", "record spans, report per-layer metrics, and write <prefix>.spans.json and <prefix>.selftime.txt")
		setupOnly = flag.Bool("setup-only", false, "set up the inputs, report setup_s and exit")
		printDig  = flag.Bool("print-digests", false, "print the computed digests as one JSON line instead of a record")
	)
	flag.Parse()
	newW, ok := workloads[*name]
	if !ok || *dir == "" {
		fatal(fmt.Errorf("need -workload (suite, sampled-gcc or verify) and -dir"))
	}
	var want map[string]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		fatal(fmt.Errorf("expected.json: %w", err))
	}
	if err := os.RemoveAll(*dir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, jobs: runtime.GOMAXPROCS(0), dir: *dir, chk: newChecker(want)}
	if *traceOut != "" {
		e.tr = newTracer(t0)
		e.layers = make(map[string]float64)
	}
	rec := record{Workload: *name, Seed: *seed}

	sp := e.tr.start(0, "setup")
	w, err := newW(e, sp, false)
	e.tr.end(sp)
	if err != nil {
		fatal(fmt.Errorf("%s: setup: %w", *name, err))
	}
	rec.SetupS = time.Since(t0).Seconds()
	rec.Manifest = manifest(e, w)
	if *setupOnly {
		emit(rec)
		return
	}

	ms0 := memStats()
	cpu0 := cpuSeconds()
	start := time.Now()
	sp = e.tr.start(0, "pass.cold")
	if err := w.pass(sp, 1); err != nil {
		e.chk.fail(*name+"/pass1", err)
	}
	e.tr.end(sp)
	rec.WallS = time.Since(start).Seconds()
	rec.CPUS = cpuSeconds() - cpu0
	ms1 := memStats()
	rec.Sim = w.sim()

	for n := 2; n <= 1+w.reruns; n++ {
		// Each second pass starts from a collected heap, not from the
		// garbage and GC pacing the previous pass left behind.
		runtime.GC()
		start = time.Now()
		sp = e.tr.start(0, "pass.rerun")
		if err := w.pass(sp, n); err != nil {
			e.chk.fail(fmt.Sprintf("%s/pass%d", *name, n), err)
		}
		e.tr.end(sp)
		rec.RerunS = append(rec.RerunS, time.Since(start).Seconds())
	}

	if e.tr != nil {
		e.layers["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		e.layers["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		setSim(e.layers, rec.Sim)
		sp = e.tr.start(0, "probe."+*name)
		if err := w.probe(sp); err != nil {
			e.chk.fail(*name+"/probe", err)
		}
		e.tr.end(sp)
		rec.Layers = layerMetrics(e.tr, e.layers)
		borrowLayers(e, *name, rec.Layers)
		summary, unattributed, err := e.tr.writeFiles(*traceOut, time.Since(t0).Nanoseconds())
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(os.Stderr, summary)
		rec.Layers["bench.unattributed_s"] = unattributed
	}

	rec.Attempted, rec.Failed, rec.Failures = e.chk.attempted, e.chk.failed, e.chk.failures
	rec.Digests = e.chk.got
	if *printDig {
		data, err := json.Marshal(e.chk.got)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	emit(rec)
}

// borrowLayers fills the per-layer metrics this workload does not
// exercise by running the other workloads at their small size under a
// tracer of their own; metrics this workload measured are kept.
func borrowLayers(e *env, name string, layers map[string]float64) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, other := range names {
		if other == name || complete(layers) {
			continue
		}
		pe := &env{seed: e.seed, jobs: e.jobs, dir: filepath.Join(e.dir, "borrow-"+other),
			chk: &checker{parent: e.chk}, tr: newTracer(e.tr.origin), layers: make(map[string]float64)}
		root := e.tr.start(0, "borrow."+other)
		err := func() error {
			w, err := workloads[other](pe, 0, true)
			if err != nil {
				return err
			}
			for n := 1; n <= 2; n++ {
				if err := w.pass(0, n); err != nil {
					return err
				}
			}
			return w.probe(0)
		}()
		e.tr.end(root)
		if err != nil {
			e.chk.fail("borrow/"+other, err)
			continue
		}
		for k, v := range layerMetrics(pe.tr, pe.layers) {
			if _, ok := layers[k]; !ok && !ownOnly(k) {
				layers[k] = v
			}
		}
	}
}

// complete reports whether every span-derived per-layer metric is
// present.
func complete(layers map[string]float64) bool {
	for _, k := range layerNames() {
		if _, ok := layers[k]; !ok && !ownOnly(k) {
			return false
		}
	}
	return true
}

// processStart returns the process start time handed over by run.py
// (PERFBENCH_T0, Unix nanoseconds, taken just before the process was
// spawned), or now when run by hand.
func processStart() time.Time {
	if v, err := strconv.ParseInt(os.Getenv("PERFBENCH_T0"), 10, 64); err == nil {
		return time.Unix(0, v)
	}
	return time.Now()
}

func manifest(e *env, w *runner) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"jobs":       e.jobs,
		"seed":       e.seed,
		"budgets":    w.budgets,
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

func emit(rec record) {
	data, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
