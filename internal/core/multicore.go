package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dmdp/internal/cache"
	"dmdp/internal/config"
	"dmdp/internal/dram"
	"dmdp/internal/faults"
	"dmdp/internal/trace"
)

// This file is the multicore machine: N timing cores stepped in global
// lockstep over a shared coherent L2, with cross-core store visibility
// delivered as remote line invalidations plus T-SSBF sentinel stamps
// (the paper's §IV-F plumbing made real instead of synthetic). Each
// core's DMDP machinery — T-SSBF, SDP, cloaking, predication, retire
// re-execution — stays private; the machine only couples the cores at
// the two consistency-relevant points: store visibility (retire under
// SC, store-buffer drain under TSO) and load value resolution at retire
// (the semantic coupling layer in mcsem.go).
//
// The cores remain trace-driven: each replays its thread's isolated
// trace, so all intra-core speculation checks stay valid. Concurrent
// semantics (what value a load really sees under this interleaving) are
// computed by the semantic layer at the retire boundary, which is sound
// because litmus programs keep addresses and control flow independent
// of shared data (the machine verifies this and fails otherwise).

// MemModel selects the consistency contract the machine enforces and
// the litmus checker verifies against the I2E reference.
type MemModel int

const (
	// MemSC: sequential consistency. Stores become globally visible at
	// retirement; every load effectively reads at retirement.
	MemSC MemModel = iota
	// MemTSO: total store order. Stores become globally visible when the
	// timing store buffer drains them (FIFO), and loads may forward from
	// the core's own pending stores.
	MemTSO
)

func (m MemModel) String() string {
	if m == MemTSO {
		return "tso"
	}
	return "sc"
}

// ParseMemModel parses "sc" or "tso".
func ParseMemModel(s string) (MemModel, error) {
	switch s {
	case "sc":
		return MemSC, nil
	case "tso":
		return MemTSO, nil
	}
	return 0, fmt.Errorf("unknown memory model %q (want sc or tso)", s)
}

// MachineConfig describes a multicore machine.
type MachineConfig struct {
	Cores int
	// Core is the per-core timing configuration. The machine forces
	// DisableFastForward (lockstep stepping needs every core on the same
	// global clock), clears fault injection and the synthetic
	// invalidation interval (real cross-core traffic replaces it), and
	// requires TSO store-buffer draining.
	Core config.Config
	// MemModel selects the store-visibility point and the contract the
	// semantic layer enforces.
	MemModel MemModel
	// Seed drives the interleaving: per-core start stagger and per-cycle
	// stall jitter are drawn from per-core splitmix64 streams.
	Seed uint64
	// StallProb is the per-core per-cycle probability of skipping the
	// cycle (interleaving diversity). Zero disables jitter.
	StallProb float64
	// MaxStagger bounds the per-core start offset drawn from the seed.
	MaxStagger int64
	// Semantics attaches the semantic coupling layer: per-core
	// architectural register files and a globally ordered memory whose
	// values are resolved at retire. Off = timing-only (IPC studies);
	// cross-core invalidations still fire at store drain.
	Semantics bool
	// Weaken disables the enforcement: remote stores no longer stamp the
	// T-SSBF sentinel, and the retire-time backstop re-read is skipped,
	// so stale early cache samples survive to the architectural state.
	// This is the deliberately broken build the litmus checker must
	// catch (SB r1=r2=0 under SC and friends).
	Weaken bool
	// SharedL2 points every core's hierarchy at one shared L2 and DRAM.
	SharedL2 bool
	// MaxGlobalCycles bounds the global clock (0 = rely on the per-core
	// watchdogs only).
	MaxGlobalCycles int64
}

// Digest is the content hash of the machine description: the per-core
// config digest plus every machine-level field. Persisted machine
// results are keyed by it (with the trace key and budget), so a field
// left out here would let two different machines share one record;
// TestMachineDigestCoversEveryField perturbs each field.
func (c *MachineConfig) Digest() config.Digest {
	h := sha256.New()
	h.Write([]byte("dmdp-machine\x00"))
	cd := c.Core.Digest()
	h.Write(cd[:])
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	put(uint64(c.Cores))
	put(uint64(c.MemModel))
	put(c.Seed)
	put(math.Float64bits(c.StallProb))
	put(uint64(c.MaxStagger))
	put(flag(c.Semantics))
	put(flag(c.Weaken))
	put(flag(c.SharedL2))
	put(uint64(c.MaxGlobalCycles))
	var d config.Digest
	h.Sum(d[:0])
	return d
}

// DefaultMachineConfig returns an n-core machine over the given per-core
// model with litmus-grade defaults: semantics on, shared L2, moderate
// interleaving jitter.
func DefaultMachineConfig(n int, model config.Model, mm MemModel) MachineConfig {
	return MachineConfig{
		Cores:      n,
		Core:       config.Default(model),
		MemModel:   mm,
		StallProb:  0.2,
		MaxStagger: 32,
		Semantics:  true,
		SharedL2:   true,
	}
}

// MachineStats aggregates a multicore run. Machine-level counters live
// here, deliberately outside core.Stats (whose canonical codec and
// golden digests are frozen). The artifact store persists it as its own
// record (DMDPMCH1), which embeds each core's canonical Stats encoding
// and leaves SimWallClockNS out.
type MachineStats struct {
	GlobalCycles int64
	Instructions int64 // retired, summed over cores

	// Cross-core visibility traffic.
	DrainEvents         int64 // store-buffer entries drained (all cores)
	RemoteInvalidations int64 // line invalidations delivered to remote L1s
	RemoteStamps        int64 // T-SSBF sentinel stampings delivered

	// Enforcement outcomes for non-re-executed cache-sourced loads whose
	// word was globally written after their sample cycle: the backstop
	// re-read them at retire (enforced) or — weakened build — the stale
	// sample was kept.
	EnforcedReads  int64
	StaleReadsKept int64

	PerCore        []Stats
	SimWallClockNS int64
}

// IPC returns aggregate retired instructions per global cycle.
func (s *MachineStats) IPC() float64 {
	if s.GlobalCycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.GlobalCycles)
}

// DigestLines renders the machine counters in a fixed order (no map
// iteration anywhere: the lines are byte-identical across runs and -j
// widths for identical inputs).
func (s *MachineStats) DigestLines() []string {
	lines := []string{
		fmt.Sprintf("machine cycles=%d instructions=%d ipc=%.4f", s.GlobalCycles, s.Instructions, s.IPC()),
		fmt.Sprintf("machine drains=%d rinval=%d rstamps=%d enforced=%d stale=%d",
			s.DrainEvents, s.RemoteInvalidations, s.RemoteStamps, s.EnforcedReads, s.StaleReadsKept),
	}
	for i := range s.PerCore {
		c := &s.PerCore[i]
		lines = append(lines, fmt.Sprintf("core%d cycles=%d instructions=%d reexecs=%d invals=%d",
			i, c.Cycles, c.Instructions, c.Reexecs, c.Invalidations))
	}
	return lines
}

// machineFixed is the length of the fixed head of a canonical machine
// encoding: seven machine counters and the core count.
const machineFixed = 8 * 8

// MarshalCanonical serializes a machine result into its canonical
// little-endian form (the DMDPMCH1 artifact payload and the verify-mode
// comparison): GlobalCycles, Instructions, DrainEvents,
// RemoteInvalidations, RemoteStamps, EnforcedReads, StaleReadsKept and
// the core count, 8 bytes each, then every core's canonical Stats
// encoding in core order. SimWallClockNS is left out, as in the Stats
// encoding.
func (s *MachineStats) MarshalCanonical() []byte {
	buf := make([]byte, 0, machineFixed+len(s.PerCore)*statsWireSize)
	for _, v := range [...]int64{
		s.GlobalCycles, s.Instructions, s.DrainEvents,
		s.RemoteInvalidations, s.RemoteStamps, s.EnforcedReads,
		s.StaleReadsKept, int64(len(s.PerCore)),
	} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for i := range s.PerCore {
		buf = append(buf, s.PerCore[i].MarshalCanonical()...)
	}
	return buf
}

// UnmarshalCanonicalMachine decodes a MarshalCanonical encoding. The
// length must match the encoded core count exactly.
func UnmarshalCanonicalMachine(data []byte) (*MachineStats, error) {
	if len(data) < machineFixed {
		return nil, fmt.Errorf("core: canonical machine stats length %d, want at least %d", len(data), machineFixed)
	}
	var v [machineFixed / 8]int64
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	n := v[7]
	if n < 1 || n > int64(len(data)/statsWireSize) || len(data) != machineFixed+int(n)*statsWireSize {
		return nil, fmt.Errorf("core: canonical machine stats length %d does not hold %d cores", len(data), n)
	}
	s := &MachineStats{
		GlobalCycles: v[0], Instructions: v[1], DrainEvents: v[2],
		RemoteInvalidations: v[3], RemoteStamps: v[4], EnforcedReads: v[5],
		StaleReadsKept: v[6],
		PerCore:        make([]Stats, n),
	}
	for i := range s.PerCore {
		off := machineFixed + i*statsWireSize
		st, err := UnmarshalCanonicalStats(data[off : off+statsWireSize])
		if err != nil {
			return nil, err
		}
		s.PerCore[i] = *st
	}
	return s, nil
}

// mcRand is a splitmix64 stream (stable across Go versions, one stream
// per core so jitter decisions never shift between cores).
type mcRand struct{ s uint64 }

func (r *mcRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *mcRand) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

func (r *mcRand) chance(p float64) bool {
	return float64(r.next()>>11)/(1<<53) < p
}

// Machine runs N cores in global lockstep.
type Machine struct {
	cfg   MachineConfig
	cores []*Core
	sem   *mcSem // nil when cfg.Semantics is off

	g       int64 // global cycle
	rngs    []mcRand
	stagger []int64
	// l2g maps each core's local cycle L (1-based) to the global cycle it
	// executed on: l2g[i][L-1]. Only maintained with semantics attached.
	l2g [][]int64

	window int64 // per-core no-retire watchdog window
	stats  MachineStats
}

// NewMachine builds the machine over one isolated trace per core. With
// semantics attached, every trace must carry its program and initial
// memory, and all initial images must agree (same program, different
// entry points).
func NewMachine(cfg MachineConfig, traces []*trace.Trace) (*Machine, error) {
	if cfg.Cores < 1 || cfg.Cores != len(traces) {
		return nil, fmt.Errorf("machine: %d cores but %d traces", cfg.Cores, len(traces))
	}
	if cfg.Core.Consistency != config.TSO {
		return nil, fmt.Errorf("machine: per-core consistency must be TSO (in-order drain); got %v", cfg.Core.Consistency)
	}
	if m := cfg.Core.Model; m != config.Baseline && m != config.DMDP {
		// The I2E litmus reference checks only these two (Perfect's
		// verifyLoad does not even read the remote-invalidation stamps).
		return nil, fmt.Errorf("machine: per-core model must be baseline or dmdp, the models the litmus oracle checks; got %v", m)
	}
	cc := cfg.Core
	cc.DisableFastForward = true
	cc.InvalidationInterval = 0
	cc.Faults = faults.Config{}

	m := &Machine{
		cfg:     cfg,
		cores:   make([]*Core, cfg.Cores),
		rngs:    make([]mcRand, cfg.Cores),
		stagger: make([]int64, cfg.Cores),
		window:  cc.Watchdog.NoRetireWindow,
	}
	if m.window <= 0 {
		m.window = config.DefaultNoRetireWindow
	}
	if err := cc.Validate(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	var l2 *cache.Cache
	var dr *dram.DRAM
	if cfg.SharedL2 {
		l2 = cache.NewCache(cc.Hierarchy.L2)
		dr = dram.New(cc.Hierarchy.DRAM)
	}
	for i := range m.cores {
		var hier *cache.Hierarchy
		if cfg.SharedL2 {
			hier = cache.NewHierarchyOver(cc.Hierarchy, l2, dr)
		} else {
			hier = cache.NewHierarchy(cc.Hierarchy)
		}
		m.cores[i] = newCore(cc, traces[i], hier)
	}
	// Per-core interleaving streams: seed mixed with the core index so
	// every (seed, core) pair is an independent splitmix sequence.
	for i := range m.rngs {
		m.rngs[i] = mcRand{s: cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))}
		if cfg.MaxStagger > 0 {
			m.stagger[i] = m.rngs[i].intn(cfg.MaxStagger + 1)
		}
	}
	if cfg.Semantics {
		sem, err := newMCSem(m, traces)
		if err != nil {
			return nil, err
		}
		m.sem = sem
		m.l2g = make([][]int64, cfg.Cores)
	}
	for i, c := range m.cores {
		i := i
		c.AttachCommitHook(func(rec CommitRecord) error { return m.onRetire(i, rec) })
		c.drainHook = func(e *sbEntry) { m.onDrain(i, e) }
	}
	return m, nil
}

// coreFinished reports whether core i has retired everything AND made
// all of its stores globally visible (timing store buffer drained and,
// under TSO semantics, the semantic buffer too). A halted core keeps
// being stepped until then so other cores observe its final stores.
func (m *Machine) coreFinished(i int) bool {
	c := m.cores[i]
	if len(c.tr.Entries) == 0 {
		return true
	}
	if !c.done || !c.sb.empty() {
		return false
	}
	return m.sem == nil || len(m.sem.sbs[i]) == 0
}

// Run steps all cores to completion and returns the machine statistics.
func (m *Machine) Run() (*MachineStats, error) { return m.RunContext(context.Background()) }

// RunContext is Run bounded by ctx: once ctx is done the machine stops
// with a structured ErrCanceled SimError (polled every
// cancelPollInterval global cycles, like a single core's RunContext).
func (m *Machine) RunContext(ctx context.Context) (*MachineStats, error) {
	defer func() {
		for _, c := range m.cores {
			c.rob.release()
		}
	}()
	start := time.Now()
	done := ctx.Done()
	poll := cancelPollInterval - 1 // the first cycle polls too
	for {
		if poll++; done != nil && poll >= cancelPollInterval {
			poll = 0
			select {
			case <-done:
				return nil, &SimError{Kind: ErrCanceled, Idx: -1,
					Msg: fmt.Sprintf("machine: run cancelled: %v (global cycle %d)", ctx.Err(), m.g)}
			default:
			}
		}
		alive := false
		for i := range m.cores {
			if !m.coreFinished(i) {
				alive = true
				break
			}
		}
		if !alive {
			break
		}
		m.g++
		if max := m.cfg.MaxGlobalCycles; max > 0 && m.g > max {
			return nil, &SimError{Kind: ErrWatchdog, Idx: -1,
				Msg: fmt.Sprintf("machine: global cycle budget %d exhausted", max)}
		}
		for i, c := range m.cores {
			if m.coreFinished(i) || m.g <= m.stagger[i] {
				continue
			}
			if m.cfg.StallProb > 0 && m.rngs[i].chance(m.cfg.StallProb) {
				continue
			}
			if m.l2g != nil {
				m.l2g[i] = append(m.l2g[i], m.g)
			}
			c.step(m.window, 0)
			if c.simErr != nil {
				return nil, fmt.Errorf("machine: core %d: %w", i, c.simErr)
			}
			if m.sem != nil && m.sem.err != nil {
				return nil, m.sem.err
			}
		}
	}
	m.stats.GlobalCycles = m.g
	m.stats.PerCore = make([]Stats, len(m.cores))
	for i, c := range m.cores {
		m.finalizeCore(c)
		m.stats.PerCore[i] = c.stats
		m.stats.Instructions += c.stats.Instructions
	}
	m.stats.SimWallClockNS = time.Since(start).Nanoseconds()
	return &m.stats, nil
}

// finalizeCore mirrors the stats finalization RunContext performs for a
// single-core run (the machine drives step directly, bypassing it).
func (m *Machine) finalizeCore(c *Core) {
	c.stats.Cycles = c.now - c.cycleBase
	c.stats.L1MissRate = c.hier.L1D.MissRate()
	c.stats.L2MissRate = c.hier.L2.MissRate()
	c.stats.L2Accesses = c.hier.L2.Accesses
	c.stats.DRAMAccesses = c.hier.DRAM.Reads + c.hier.DRAM.Writes
	c.stats.TLBAccesses = c.tlb.Accesses
}

// globalOf translates core i's local cycle to the global cycle it ran
// on. Local cycles are 1-based; out-of-range values clamp.
func (m *Machine) globalOf(i int, local int64) int64 {
	l := m.l2g[i]
	switch {
	case local <= 0 || len(l) == 0:
		return 0
	case local > int64(len(l)):
		return l[len(l)-1]
	default:
		return l[local-1]
	}
}

// onRetire is the commit-stream hook for core i: with semantics
// attached it executes the retiring instruction against the semantic
// architectural state (resolving the load value from the global memory
// order) and, under SC, publishes retiring stores immediately. A
// returned error vetoes the retirement (surfacing as ErrLockstep).
func (m *Machine) onRetire(i int, rec CommitRecord) error {
	if m.sem == nil {
		return nil
	}
	return m.sem.retire(i, rec)
}

// onDrain fires when core i's store buffer makes entry e's bytes
// visible: the TSO global visibility point. The semantic layer (if any)
// publishes the matching semantic store; in every mode the drained
// line is invalidated in all remote cores.
func (m *Machine) onDrain(i int, e *sbEntry) {
	m.stats.DrainEvents++
	if m.sem != nil {
		if m.cfg.MemModel == MemTSO {
			m.sem.drain(i, e)
		}
		// Under SC semantics the store was already published (and remote
		// cores invalidated) at retirement; the timing drain is only a
		// pipeline event.
		return
	}
	m.remoteInvalidate(i, e.addr)
}

// remoteInvalidate delivers the coherence consequence of core src
// writing addr: every other core's L1 drops the line and — unless the
// build is weakened — its T-SSBF records the invalidation sentinel so
// vulnerable in-flight loads re-execute at retire (paper §IV-F). With a
// shared L2 the line stays resident there (the write updates it); with
// private L2s both levels are dropped.
func (m *Machine) remoteInvalidate(src int, addr uint32) {
	for j, c := range m.cores {
		if j == src {
			continue
		}
		line := addr &^ uint32(c.hier.LineBytes()-1)
		if m.cfg.SharedL2 {
			c.hier.L1D.Invalidate(line)
		} else {
			c.hier.Invalidate(line)
		}
		m.stats.RemoteInvalidations++
		c.stats.Invalidations++
		if !m.cfg.Weaken && c.cfg.Model != config.Baseline {
			c.tssbf.InvalidateLine(line, c.hier.LineBytes())
			c.stats.TSSBFWrites += int64(c.hier.LineBytes() / 4)
			m.stats.RemoteStamps++
		}
	}
}
