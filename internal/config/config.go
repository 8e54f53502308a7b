// Package config defines the simulated machine configurations: the
// baseline processor (the paper's Table III analog), the four store-load
// communication models and the alternative configurations evaluated in
// §VI (4-issue, 512-entry ROB, RMO, halved register file, store buffer
// sweeps).
package config

import (
	"fmt"
	"strings"

	"dmdp/internal/bpred"
	"dmdp/internal/cache"
	"dmdp/internal/faults"
	"dmdp/internal/memdep"
	"dmdp/internal/tlb"
)

// DefaultNoRetireWindow is the watchdog's default deadlock threshold:
// consecutive cycles without a retirement before the core aborts with a
// diagnostic bundle.
const DefaultNoRetireWindow = 400_000

// Watchdog bounds a simulation run. A tripped watchdog aborts the run
// with a structured core.SimError carrying the pipeline state.
type Watchdog struct {
	// MaxCycles caps the total simulated cycles (0 = unlimited).
	MaxCycles int64
	// NoRetireWindow is the number of consecutive cycles without a
	// retirement before the core declares a deadlock (0 = the
	// DefaultNoRetireWindow).
	NoRetireWindow int64
}

// Model selects the store-load communication mechanism.
type Model int

// The four simulated models (paper §V).
const (
	// Baseline: unlimited associative store queue and load queue with
	// constant 4-cycle access, Store Sets scheduling, store buffer.
	Baseline Model = iota
	// NoSQ: store-queue-free; memory cloaking for confident
	// predictions, delayed execution for low-confidence loads.
	NoSQ
	// DMDP: store-queue-free; memory cloaking for confident
	// predictions, dynamic predication (CMP + 2 CMOVs) for
	// low-confidence loads. Biased confidence update (divide by two).
	DMDP
	// Perfect: oracle memory dependence predictor; no delays, no
	// mispredictions, no verification.
	Perfect
	// FnF: Fire-and-Forget (Subramaniam & Loh, §VII): store-queue-free
	// with *store-side* consumer prediction — the store forwards to its
	// predicted consumer load. Included to measure the paper's stated
	// reason for preferring NoSQ: store-side prediction is
	// path-insensitive.
	FnF
)

func (m Model) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case NoSQ:
		return "nosq"
	case DMDP:
		return "dmdp"
	case Perfect:
		return "perfect"
	case FnF:
		return "fnf"
	}
	return "model?"
}

// ParseModel parses a model name as String renders it, in any case.
func ParseModel(s string) (Model, error) {
	for m := Baseline; m <= FnF; m++ {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q (baseline|nosq|dmdp|perfect|fnf)", s)
}

// Consistency selects the store buffer's commit ordering.
type Consistency int

// Memory consistency models (paper §IV-F).
const (
	TSO Consistency = iota // stores commit in program order
	RMO                    // stores may commit out of order
)

func (c Consistency) String() string {
	if c == RMO {
		return "rmo"
	}
	return "tso"
}

// Config is the full machine description consumed by the core.
type Config struct {
	Model       Model
	Consistency Consistency

	// Pipeline widths and structure sizes.
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	RetireWidth int
	ROBSize     int
	IQSize      int
	PhysRegs    int
	LoadPorts   int // cache read ports (LD issues per cycle)

	// Store buffer.
	StoreBufferSize int
	StoreCoalescing bool // coalesce consecutive same-word stores (TSO-safe)

	// Front-end timing.
	FrontEndDepth   int64 // fetch -> rename latency
	RedirectPenalty int64 // extra bubble after a branch misprediction resolves
	RecoveryPenalty int64 // extra bubble after a memory dependence recovery

	// Execution latencies (cycles).
	ALULat, MulLat, DivLat, FPLat, FPDivLat, AGILat, BranchLat int64

	// Substrates.
	Hierarchy cache.HierarchyConfig
	TLB       tlb.Config
	BPred     bpred.Config
	TSSBF     memdep.TSSBFConfig
	SDP       memdep.SDPConfig

	// Baseline-only structures.
	SSITEntries   int
	StoreSetCount int
	SQAccessLat   int64 // constant store-queue/store-buffer search latency

	// DistBits bounds the trainable store distance (6-bit field in the
	// paper's predictor entries).
	DistBits int

	// SilentStoreAwareUpdate trains the Store Distance Predictor on
	// every load re-execution (paper §IV-C a). When false, the original
	// policy applies: train only when the re-execution raises an
	// exception. The paper calls this policy "a double-edged sword"
	// (§VI-a) — the alt-silent experiment reproduces the comparison.
	SilentStoreAwareUpdate bool

	// UseTAGE replaces the two-table Store Distance Predictor with a
	// TAGE-like tagged geometric-history predictor (the adaptation of
	// Perais & Seznec's Instruction Distance Predictor the paper's
	// related-work section proposes, §VII).
	UseTAGE bool

	// InvalidationInterval, when positive, injects a remote-core cache
	// line invalidation every that-many cycles (multi-core consistency
	// traffic, paper §IV-F): a recently written line is dropped from the
	// hierarchy and its words enter the T-SSBF with SSNcommit+1, forcing
	// vulnerable in-flight loads to re-execute.
	InvalidationInterval int64

	// WarmupInstructions, when positive, discards the statistics of the
	// first N retired instructions: caches and predictors stay warm but
	// counters restart. The paper's checkpoints start cold and
	// compensate with 100M-instruction intervals (§V); explicit warmup
	// is the standard alternative for short intervals.
	WarmupInstructions int64

	// DisableFastForward turns off the idle-cycle fast-forward: when the
	// core proves a cycle changed nothing (fetch drained or stalled, no
	// uop ready, nothing retired, no store commit progress), it jumps
	// directly to the next deadline (event completion, store write-back,
	// front-end resume, re-execution finish, watchdog expiry) instead of
	// stepping empty cycles. The jump is exact — statistics are
	// bit-identical either way (see TestFastForwardEquivalence) — so the
	// switch exists only for that equivalence test and for debugging.
	DisableFastForward bool

	// Watchdog bounds runaway simulations (cycle budget + no-retire
	// deadlock window); see the Watchdog type.
	Watchdog Watchdog

	// Faults configures the deterministic fault injector used by the
	// hardening tests (zero value = injection disabled).
	Faults faults.Config
}

// Default returns the 8-wide baseline machine configuration for the given
// model (the reproduction's Table III analog).
func Default(model Model) Config {
	return Config{
		Model:       model,
		Consistency: TSO,

		FetchWidth:  8,
		RenameWidth: 8,
		IssueWidth:  8,
		RetireWidth: 8,
		ROBSize:     256,
		IQSize:      96,
		PhysRegs:    320,
		LoadPorts:   2,

		StoreBufferSize: 32,
		StoreCoalescing: true,

		FrontEndDepth:   6,
		RedirectPenalty: 6,
		RecoveryPenalty: 10,

		ALULat: 1, MulLat: 3, DivLat: 12, FPLat: 4, FPDivLat: 16,
		AGILat: 1, BranchLat: 1,

		Hierarchy: cache.DefaultHierarchyConfig(),
		TLB:       tlb.DefaultConfig(),
		BPred:     bpred.DefaultConfig(),
		TSSBF:     memdep.DefaultTSSBFConfig(),
		SDP:       memdep.DefaultSDPConfig(model == DMDP),

		SSITEntries:   4096,
		StoreSetCount: 256,
		SQAccessLat:   4,

		DistBits:               6,
		SilentStoreAwareUpdate: true,

		Watchdog: Watchdog{NoRetireWindow: DefaultNoRetireWindow},
	}
}

// WithWatchdog returns a copy with the watchdog bounds set (0 keeps a
// field at its unlimited/default behaviour).
func (c Config) WithWatchdog(maxCycles, noRetireWindow int64) Config {
	c.Watchdog = Watchdog{MaxCycles: maxCycles, NoRetireWindow: noRetireWindow}
	return c
}

// WithFastForward returns a copy with the idle-cycle fast-forward set
// (on by default; the off position exists for equivalence testing).
func (c Config) WithFastForward(on bool) Config {
	c.DisableFastForward = !on
	return c
}

// WithFaults returns a copy with the fault injector configured.
func (c Config) WithFaults(f faults.Config) Config {
	c.Faults = f
	return c
}

// WithSilentStorePolicy returns a copy with the silent-store-aware
// predictor update enabled or disabled (§VI-a ablation).
func (c Config) WithSilentStorePolicy(on bool) Config {
	c.SilentStoreAwareUpdate = on
	return c
}

// WithTAGE returns a copy using the TAGE-like Store Distance Predictor.
func (c Config) WithTAGE(on bool) Config {
	c.UseTAGE = on
	return c
}

// WithInvalidations returns a copy injecting a remote invalidation every
// interval cycles (0 disables).
func (c Config) WithInvalidations(interval int64) Config {
	c.InvalidationInterval = interval
	return c
}

// WithCoalescing returns a copy with store coalescing set (ablation).
func (c Config) WithCoalescing(on bool) Config {
	c.StoreCoalescing = on
	return c
}

// WithPrefetch returns a copy with the L1 next-line prefetcher set.
func (c Config) WithPrefetch(on bool) Config {
	c.Hierarchy.NextLinePrefetch = on
	return c
}

// WithTournamentBPred returns a copy using the bimodal+gshare tournament
// branch predictor.
func (c Config) WithTournamentBPred(on bool) Config {
	c.BPred.Tournament = on
	return c
}

// WithWarmup returns a copy that discards the first n retired
// instructions from the statistics.
func (c Config) WithWarmup(n int64) Config {
	c.WarmupInstructions = n
	return c
}

// MaxDist returns the largest trainable store distance.
func (c *Config) MaxDist() int64 { return 1<<c.DistBits - 1 }

// WithIssueWidth returns a copy with issue (and fetch/rename/retire)
// width set to w (the paper's 4-issue alternative).
func (c Config) WithIssueWidth(w int) Config {
	c.FetchWidth, c.RenameWidth, c.IssueWidth, c.RetireWidth = w, w, w, w
	return c
}

// WithROB returns a copy with the ROB size set (the 512-entry
// alternative). The IQ scales with it.
func (c Config) WithROB(n int) Config {
	c.ROBSize = n
	c.IQSize = n * 3 / 8
	return c
}

// WithPhysRegs returns a copy with the physical register file resized
// (the paper's 320 -> 160 pressure experiment).
func (c Config) WithPhysRegs(n int) Config {
	c.PhysRegs = n
	return c
}

// WithStoreBuffer returns a copy with the store buffer resized (Fig. 14).
func (c Config) WithStoreBuffer(n int) Config {
	c.StoreBufferSize = n
	return c
}

// WithConsistency returns a copy using the given consistency model.
func (c Config) WithConsistency(m Consistency) Config {
	c.Consistency = m
	return c
}

// Validate reports configuration errors a user build could hit.
func (c *Config) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{c.FetchWidth > 0 && c.RenameWidth > 0 && c.IssueWidth > 0 && c.RetireWidth > 0, "pipeline widths must be positive"},
		{c.ROBSize > 0 && c.IQSize > 0, "ROB and IQ must be positive"},
		{c.PhysRegs >= 64, "physical register file too small (need >= 64)"},
		{c.StoreBufferSize > 0, "store buffer must have at least one entry"},
		{c.LoadPorts > 0, "need at least one load port"},
		{c.DistBits > 0 && c.DistBits < 32, "DistBits out of range"},
		{c.Watchdog.MaxCycles >= 0 && c.Watchdog.NoRetireWindow >= 0, "watchdog bounds must be non-negative"},
		{c.Faults.Valid(), "fault injection rates must be probabilities in [0, 1]"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return &Error{Msg: ch.msg}
		}
	}
	return nil
}

// Error is a configuration validation error.
type Error struct{ Msg string }

func (e *Error) Error() string { return "config: " + e.Msg }
