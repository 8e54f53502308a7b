// Package warm implements SMARTS-style functional warming for
// checkpointed sampling: compact, timing-free models of the cache
// hierarchy, TLB, branch predictor and memory-dependence predictor tag
// state, updated continuously during the single streaming profiling
// pass and installed into the detailed models before each sampled
// interval. Without it, every interval starts with cold
// microarchitectural state and long-horizon effects — most visibly the
// L2-saturation regime change on streaming workloads — are invisible to
// the sample (the PR 7 cold-start artifact).
//
// The models are the real substrate implementations, and warming
// changes their state by the detailed core's own rules: every memory
// access runs cache.Walk, the tag walk inside cache.Hierarchy.Access,
// and every load trains the store distance predictor through
// memdep.TrainLoad, the rule the core applies at retire. Only the
// verdict a load is trained on is warming's own. The warmed state is
// therefore installable by construction. Only the two-table SDP is
// warmed: sampling.Execute rejects warming for a TAGE-predictor
// configuration. The hot loop performs no allocation; see
// warm_bench_test.go for the throughput benchmark and the AllocsPerRun
// guard.
//
// Determinism: snapshots are canonical byte encodings (LRU structures
// are rank-normalized — only the relative recency order survives, which
// is exactly the part that determines future replacement decisions), so
// continuous warming, snapshot-restore-continue, and store round trips
// all yield byte-identical state for the same instruction prefix.
package warm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"dmdp/internal/bpred"
	"dmdp/internal/cache"
	"dmdp/internal/config"
	"dmdp/internal/memdep"
	"dmdp/internal/tlb"
	"dmdp/internal/trace"
)

// Version is the warm snapshot format/algorithm version; it joins the
// artifact key so format or policy changes invalidate stored warm state
// wholesale instead of decoding garbage.
const Version = 2

// Config is the warm-relevant subset of the machine configuration: the
// geometries and training policies that shape tag state. It is
// deliberately narrower than config.Config — two machines that differ
// only in timing parameters (latencies, widths, watchdogs) share warm
// state, so the artifact store is not split per model needlessly.
type Config struct {
	Hierarchy cache.HierarchyConfig
	TLB       tlb.Config
	BPred     bpred.Config
	TSSBF     memdep.TSSBFConfig
	SDP       memdep.SDPConfig
	// MaxDist bounds trainable store distances (config.MaxDist()).
	MaxDist int64
}

// ConfigFrom extracts the warm-relevant parameters of a machine
// configuration.
func ConfigFrom(c config.Config) Config {
	return Config{
		Hierarchy: c.Hierarchy,
		TLB:       c.TLB,
		BPred:     c.BPred,
		TSSBF:     c.TSSBF,
		SDP:       c.SDP,
		MaxDist:   c.MaxDist(),
	}
}

// ParamsHash digests the warm-relevant configuration plus the format
// version for artifact keying: machines with equal hashes produce (and
// may share) identical warm state.
func (c Config) ParamsHash() [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "dmdp-warm\x00v%d\x00", Version)
	// The DRAM section of the hierarchy holds no tag state; everything
	// else in Config shapes the snapshot.
	fmt.Fprintf(h, "l1:%#v\x00l2:%#v\x00pf:%t\x00", c.Hierarchy.L1D, c.Hierarchy.L2, c.Hierarchy.NextLinePrefetch)
	fmt.Fprintf(h, "tlb:%#v\x00bp:%#v\x00tssbf:%#v\x00sdp:%#v\x00", c.TLB, c.BPred, c.TSSBF, c.SDP)
	fmt.Fprintf(h, "maxdist:%d\x00", c.MaxDist)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// State is the functional warm model: real substrate instances driven
// without timing. The substrates' own statistics counters accumulate
// during warming but are never installed — the detailed core's counters
// keep their whole-run semantics.
type State struct {
	cfg   Config
	L1    *cache.Cache
	L2    *cache.Cache
	TLB   *tlb.TLB
	BP    *bpred.Predictor
	SDP   *memdep.SDP
	TSSBF *memdep.TSSBF

	// Stores is the absolute SSN of the most recent store processed
	// (the rebase point at install time).
	Stores int64
	// Entries counts processed trace entries (throughput accounting).
	Entries int64

	// Last-VPN shortcut: consecutive accesses to the same page skip the
	// fully associative TLB scan. Sound because a repeated hit only
	// re-bumps the already-MRU entry — a no-op in the rank order the
	// canonical encoding preserves.
	lastVPN   uint32
	lastVPNOK bool

	pageBytes uint32
	prefetch  bool
}

// New builds an empty (cold) warm state for the configuration.
func New(cfg Config) *State {
	return &State{
		cfg:       cfg,
		L1:        cache.NewCache(cfg.Hierarchy.L1D),
		L2:        cache.NewCache(cfg.Hierarchy.L2),
		TLB:       tlb.New(cfg.TLB),
		BP:        bpred.New(cfg.BPred),
		SDP:       memdep.NewSDP(cfg.SDP),
		TSSBF:     memdep.NewTSSBF(cfg.TSSBF),
		pageBytes: cfg.TLB.PageBytes,
		prefetch:  cfg.Hierarchy.NextLinePrefetch,
	}
}

// Update advances the warm state by one trace entry. It uses only the
// raw entry fields (PC, op, address, size, taken, target) — streamed
// entries are un-analyzed, and the analyzed dependence fields must not
// influence warm state or the streamed path would diverge from a
// warming pass over a built trace.
//
// Per entry, in the detailed core's trace order:
//   - control ops train the branch predictor (fetch trains in trace
//     order, exactly like this);
//   - memory ops translate (AGI TLB access) and run cache.Walk, the
//     tag walk of cache.Hierarchy.Access;
//   - loads probe the SDP (the rename-stage lookup, an LRU touch) and
//     train it through memdep.TrainLoad on warming's verdict (see
//     verdict);
//   - stores bump the SSN and insert into the T-SSBF (retire order).
//
// This is functional warming: accesses happen in trace order rather
// than the out-of-order schedule, and no MSHRs are modelled, so an
// access to a line in flight does not merge and no prefetch is dropped
// for MSHR occupancy — the standard SMARTS approximations, documented in
// DESIGN.md §13.
func (s *State) Update(e *trace.Entry) {
	s.Entries++
	op := e.Instr.Op
	switch {
	case op.IsControl():
		s.BP.PredictAndTrain(e.PC, op, e.Taken, e.Target)
	case op.IsLoad():
		s.translate(e.Addr)
		cache.Walk(s.L1, s.L2, e.Addr, false, s.prefetch)
		hist := s.BP.History()
		pred, hit := s.SDP.Predict(e.PC, hist)
		memdep.TrainLoad(s.SDP, e.PC, hist, s.verdict(e, pred, hit))
	case op.IsStore():
		s.translate(e.Addr)
		cache.Walk(s.L1, s.L2, e.Addr, true, s.prefetch)
		s.Stores++
		s.TSSBF.Insert(e.WordAddr(), e.BAB(), s.Stores)
	}
}

// UpdateChunk processes a chunk of entries (the BuildStream callback
// granularity).
func (s *State) UpdateChunk(chunk []trace.Entry) {
	for i := range chunk {
		s.Update(&chunk[i])
	}
}

func (s *State) translate(addr uint32) {
	vpn := addr / s.pageBytes
	if s.lastVPNOK && vpn == s.lastVPN {
		return
	}
	s.TLB.Translate(addr)
	s.lastVPN, s.lastVPNOK = vpn, true
}

// verdict judges a load the way warming can without timing: the T-SSBF
// names the youngest earlier store to its word, and that store collided
// when its distance is within the predictor's range. A prediction is
// used whenever a store that old exists (the core also needs it still
// in flight), and correct when it names the colliding store. An
// unpredicted collision is caught at verify and re-executes.
func (s *State) verdict(e *trace.Entry, pred memdep.Prediction, hit bool) memdep.Verdict {
	ssn, tagMatch, _ := s.TSSBF.LookupCovering(e.WordAddr(), e.BAB())
	actual := s.Stores - ssn
	collided := tagMatch && actual >= 0 && actual <= s.cfg.MaxDist
	switch {
	case !hit:
		return memdep.Verdict{Collided: collided, ActualDist: actual, Reexecuted: collided}
	case s.Stores-pred.Dist < 1:
		// No store that old exists yet: the core never arms the bypass.
		return memdep.Verdict{}
	}
	return memdep.Verdict{
		Used: true, UsedDist: pred.Dist,
		Correct:  collided && actual == pred.Dist,
		Collided: collided, ActualDist: actual,
	}
}

// Snapshot serialization: a magic/version header, the store count, then
// one length-prefixed section per substrate.
var snapMagic = [8]byte{'D', 'M', 'D', 'P', 'W', 'R', 'M', '1'}

const snapHeader = 8 + 8

// Snapshot encodes the complete warm state canonically. Two states that
// would behave identically from here on encode to identical bytes (LRU
// timestamps are rank-normalized away), so snapshots double as the
// determinism oracle between the streamed path, a continuous warming
// pass over a built trace, and store round trips.
func (s *State) Snapshot() []byte {
	size := snapHeader + 4 + s.L1.WarmStateLen() + 4 + s.L2.WarmStateLen() +
		4 + s.TLB.WarmStateLen() + 4 + s.BP.WarmStateLen() + 4 + s.SDP.WarmStateLen() + 4 + s.TSSBF.WarmStateLen()
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Stores))
	buf = appendSection(buf, s.L1.AppendWarmState)
	buf = appendSection(buf, s.L2.AppendWarmState)
	buf = appendSection(buf, s.TLB.AppendWarmState)
	buf = appendSection(buf, s.BP.AppendWarmState)
	buf = appendSection(buf, s.SDP.AppendWarmState)
	buf = appendSection(buf, s.TSSBF.AppendWarmState)
	return buf
}

func appendSection(buf []byte, fn func([]byte) []byte) []byte {
	at := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = fn(buf)
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	return buf
}

// FromSnapshot rebuilds a warm state from its canonical encoding under
// the given configuration. Any structural mismatch — wrong magic,
// truncation, geometry disagreement, trailing bytes — is an error; the
// caller treats it as a cold start.
func (s *State) loadSection(buf []byte, off int, load func([]byte) (int, error)) (int, error) {
	if off+4 > len(buf) {
		return 0, fmt.Errorf("warm: snapshot truncated")
	}
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	if n < 0 || off+n > len(buf) {
		return 0, fmt.Errorf("warm: snapshot section overruns buffer")
	}
	used, err := load(buf[off : off+n])
	if err != nil {
		return 0, err
	}
	if used != n {
		return 0, fmt.Errorf("warm: snapshot section length %d, decoded %d", n, used)
	}
	return off + n, nil
}

// FromSnapshot decodes snap into a fresh State for cfg.
func FromSnapshot(cfg Config, snap []byte) (*State, error) {
	if len(snap) < snapHeader || [8]byte(snap[:8]) != snapMagic {
		return nil, fmt.Errorf("warm: bad snapshot magic")
	}
	s := New(cfg)
	s.Stores = int64(binary.LittleEndian.Uint64(snap[8:16]))
	if s.Stores < 0 {
		return nil, fmt.Errorf("warm: negative store count")
	}
	off := snapHeader
	var err error
	if off, err = s.loadSection(snap, off, s.L1.LoadWarmState); err != nil {
		return nil, err
	}
	if off, err = s.loadSection(snap, off, s.L2.LoadWarmState); err != nil {
		return nil, err
	}
	if off, err = s.loadSection(snap, off, s.TLB.LoadWarmState); err != nil {
		return nil, err
	}
	if off, err = s.loadSection(snap, off, s.BP.LoadWarmState); err != nil {
		return nil, err
	}
	if off, err = s.loadSection(snap, off, s.SDP.LoadWarmState); err != nil {
		return nil, err
	}
	if off, err = s.loadSection(snap, off, s.TSSBF.LoadWarmState); err != nil {
		return nil, err
	}
	if off != len(snap) {
		return nil, fmt.Errorf("warm: %d trailing snapshot bytes", len(snap)-off)
	}
	return s, nil
}

// InstallInto transplants the warm tag state into a detailed core's
// substrates. Substrate statistics counters are untouched (they keep
// their whole-run semantics); the T-SSBF SSNs are rebased so the
// pre-interval stores appear older than anything the interval renames
// (see TSSBF.CopyWarmRebased).
func (s *State) InstallInto(h *cache.Hierarchy, t *tlb.TLB, bp *bpred.Predictor, sdp *memdep.SDP, tssbf *memdep.TSSBF) {
	h.L1D.CopyWarmFrom(s.L1)
	h.L2.CopyWarmFrom(s.L2)
	t.CopyWarmFrom(s.TLB)
	bp.CopyWarmFrom(s.BP)
	sdp.CopyWarmFrom(s.SDP)
	tssbf.CopyWarmRebased(s.TSSBF, s.Stores)
}
