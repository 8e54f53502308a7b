// Package core implements the cycle-level out-of-order processor model
// and its four store-load communication mechanisms: the baseline store
// queue machine, NoSQ (memory cloaking + delayed loads), DMDP (memory
// cloaking + dynamic memory dependence predication — the paper's
// contribution) and a Perfect oracle.
//
// The core is trace-driven over the architecturally correct path produced
// by the functional emulator. Speculation outcomes are exact: the core
// maintains the committed memory image cycle by cycle, so the value a
// load would have obtained from the cache at the moment it read it — and
// hence whether cloaking/predication/delaying produced the right value —
// is computed, not approximated. Branch mispredictions stall the front
// end until the branch resolves; memory dependence mispredictions flush
// the pipeline at retire and refetch, like the machine in the paper.
package core

import (
	"fmt"
	"math"

	"dmdp/internal/faults"
)

// LoadCategory classifies how a load obtained its value (paper Fig. 2).
type LoadCategory uint8

// Load categories.
const (
	// LoadDirect read the cache with no predicted dependence.
	LoadDirect LoadCategory = iota
	// LoadBypass reused an in-flight store's data register (cloaking).
	LoadBypass
	// LoadDelayed waited for the predicted store to commit, then read
	// the cache (NoSQ low-confidence handling).
	LoadDelayed
	// LoadPredicated executed the DMDP CMP/CMOV sequence.
	LoadPredicated

	numLoadCategories
)

func (c LoadCategory) String() string {
	switch c {
	case LoadDirect:
		return "direct"
	case LoadBypass:
		return "bypass"
	case LoadDelayed:
		return "delayed"
	case LoadPredicated:
		return "predicated"
	}
	return "cat?"
}

// LowConfOutcome classifies the dependence-prediction ground truth of a
// low-confidence load (paper Fig. 5).
type LowConfOutcome uint8

// Low-confidence load outcomes.
const (
	// LowConfIndepStore: predicted dependent but actually independent of
	// any in-flight store.
	LowConfIndepStore LowConfOutcome = iota
	// LowConfDiffStore: dependent on a different in-flight store.
	LowConfDiffStore
	// LowConfCorrect: the predicted store was the actual collider.
	LowConfCorrect

	numLowConfOutcomes
)

// Stats aggregates everything the experiments report.
type Stats struct {
	Cycles       int64
	Instructions int64
	Uops         int64

	// Loads by category, with execution-time sums (cycles between rename
	// and the result becoming available, floored at zero).
	LoadCount    [numLoadCategories]int64
	LoadExecTime [numLoadCategories]int64
	// LoadLatency is a power-of-two histogram of load execution times:
	// bucket i counts loads with latency in [2^(i-1), 2^i).
	LoadLatency [latencyBuckets]int64

	// Low-confidence loads (delayed or predicated) tracked separately
	// for Table V / Fig. 5.
	LowConfCount    int64
	LowConfExecTime int64
	LowConfOutcomes [numLowConfOutcomes]int64

	// Memory dependence machinery.
	DepMispredicts      int64                    // full recoveries (exceptions) — Table VI numerator
	DepMispredictsByCat [numLoadCategories]int64 // exception source breakdown
	Reexecs             int64                    // load re-executions issued
	ReexecStallCycle    int64                    // retire-stall cycles waiting for drain + re-execution (Table VII)
	SBFullStall         int64                    // retire-stall cycles because the store buffer was full
	Predications        int64                    // CMP/CMOV sequences inserted (DMDP)
	Cloaks              int64                    // loads renamed onto a store's data register
	DelayedLoads        int64                    // NoSQ delayed loads
	Violations          int64                    // baseline memory ordering violations
	Invalidations       int64                    // injected remote-core line invalidations (§IV-F)

	// Front end.
	BranchMispredicts int64
	FetchStallCycles  int64

	// Stores.
	StoresCommitted int64
	StoresCoalesced int64

	// Structure activity (consumed by the power model).
	RegReads, RegWrites     int64
	IQWakeups, IQInserts    int64
	ROBWrites               int64
	SQSearches              int64 // baseline CAM searches
	TSSBFReads, TSSBFWrites int64
	SDPReads, SDPWrites     int64
	CacheAccesses           int64
	L2Accesses              int64
	DRAMAccesses            int64
	TLBAccesses             int64
	SquashedUops            int64

	// Cache behaviour.
	L1MissRate, L2MissRate float64

	// Hardening layer.
	OracleChecks int64         // commit-time oracle comparisons performed
	Faults       faults.Counts // injected faults by class (zero when disabled)

	// SimWallClockNS is the host wall-clock duration of the Run call in
	// nanoseconds. Observability only: it is the one Stats field allowed
	// to differ between otherwise identical runs, so determinism
	// comparisons (and DigestLine) must exclude it.
	SimWallClockNS int64
}

// SimIPS returns the simulator's own throughput in simulated instructions
// per host wall-clock second (0 when the wall clock was not recorded).
func (s *Stats) SimIPS() float64 {
	if s.SimWallClockNS == 0 {
		return 0
	}
	return float64(s.Instructions) / (float64(s.SimWallClockNS) / 1e9)
}

// latencyBuckets spans latencies up to 2^23 cycles.
const latencyBuckets = 24

// latencyBucket maps a latency to its histogram bucket.
func latencyBucket(lat int64) int {
	b := 0
	for lat > 0 && b < latencyBuckets-1 {
		lat >>= 1
		b++
	}
	return b
}

// LoadLatencyPercentile returns an upper bound (bucket boundary, a power
// of two) for the p-th percentile load execution time, p in (0,100].
func (s *Stats) LoadLatencyPercentile(p float64) int64 {
	var total int64
	for _, n := range s.LoadLatency {
		total += n
	}
	if total == 0 {
		return 0
	}
	// Ceiling, not truncation: the percentile rank is the smallest k with
	// k >= p/100*total. Truncating put exact bucket boundaries (and p=100
	// with small totals) one bucket too low.
	target := int64(math.Ceil(p / 100 * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range s.LoadLatency {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			return 1 << uint(i)
		}
	}
	return 1 << (latencyBuckets - 1)
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MPKI returns memory dependence mispredictions per 1000 instructions
// (Table VI).
func (s *Stats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.DepMispredicts) / float64(s.Instructions)
}

// ReexecStallsPerKilo returns retire-stall cycles per 1000 committed
// instructions (Table VII).
func (s *Stats) ReexecStallsPerKilo() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.ReexecStallCycle) / float64(s.Instructions)
}

// SBStallsPerKilo returns store-buffer-full stall cycles per 1000
// committed instructions (§VI-e).
func (s *Stats) SBStallsPerKilo() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.SBFullStall) / float64(s.Instructions)
}

// TotalLoads returns the number of retired loads.
func (s *Stats) TotalLoads() int64 {
	var n int64
	for _, c := range s.LoadCount {
		n += c
	}
	return n
}

// MeanLoadExecTime returns the average load execution time in cycles
// across all categories (Table IV).
func (s *Stats) MeanLoadExecTime() float64 {
	loads := s.TotalLoads()
	if loads == 0 {
		return 0
	}
	var t int64
	for _, x := range s.LoadExecTime {
		t += x
	}
	return float64(t) / float64(loads)
}

// MeanExecTime returns the mean execution time of one load category.
func (s *Stats) MeanExecTime(c LoadCategory) float64 {
	if s.LoadCount[c] == 0 {
		return 0
	}
	return float64(s.LoadExecTime[c]) / float64(s.LoadCount[c])
}

// MeanLowConfExecTime returns the mean execution time of low-confidence
// loads (Table V).
func (s *Stats) MeanLowConfExecTime() float64 {
	if s.LowConfCount == 0 {
		return 0
	}
	return float64(s.LowConfExecTime) / float64(s.LowConfCount)
}

// DigestLine renders every deterministic counter of one run on a single
// fixed-format line. Two builds of the simulator are behaviorally
// identical iff their digest lines are byte-identical; wall-clock
// observability counters (SimWallClockNS and friends) are deliberately
// excluded — they are the only Stats fields allowed to differ between
// runs. Field order is frozen; do not reorder (diffs against recorded
// digests would churn). Shared by the committed golden files under
// internal/goldens/testdata/goldens/ and the difftest aggregate digest.
func (s *Stats) DigestLine() string {
	return fmt.Sprintf("cyc=%d inst=%d uops=%d loads=%v loadt=%v lat=%v "+
		"lowconf=%d/%d/%v mpred=%d/%v reexec=%d stall=%d sbstall=%d "+
		"pred=%d cloak=%d delay=%d viol=%d inval=%d bmiss=%d fstall=%d "+
		"sc=%d/%d rr=%d rw=%d iqw=%d iqi=%d robw=%d sqs=%d tssbf=%d/%d "+
		"sdp=%d/%d ca=%d l2=%d dram=%d tlb=%d squash=%d miss=%.6f/%.6f oracle=%d",
		s.Cycles, s.Instructions, s.Uops, s.LoadCount, s.LoadExecTime, s.LoadLatency,
		s.LowConfCount, s.LowConfExecTime, s.LowConfOutcomes,
		s.DepMispredicts, s.DepMispredictsByCat, s.Reexecs, s.ReexecStallCycle, s.SBFullStall,
		s.Predications, s.Cloaks, s.DelayedLoads, s.Violations, s.Invalidations,
		s.BranchMispredicts, s.FetchStallCycles,
		s.StoresCommitted, s.StoresCoalesced, s.RegReads, s.RegWrites,
		s.IQWakeups, s.IQInserts, s.ROBWrites, s.SQSearches, s.TSSBFReads, s.TSSBFWrites,
		s.SDPReads, s.SDPWrites, s.CacheAccesses, s.L2Accesses, s.DRAMAccesses,
		s.TLBAccesses, s.SquashedUops, s.L1MissRate, s.L2MissRate, s.OracleChecks)
}
