package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dmdp/internal/bpred"
	"dmdp/internal/cache"
	"dmdp/internal/config"
	"dmdp/internal/faults"
	"dmdp/internal/isa"
	"dmdp/internal/mem"
	"dmdp/internal/memdep"
	"dmdp/internal/tlb"
	"dmdp/internal/trace"
)

// fqCap is the fetch queue capacity. Power of two: the queue is a ring.
const fqCap = 64

// fetchEntry is a fetched instruction waiting to rename.
type fetchEntry struct {
	idx      int
	readyAt  int64
	blocking bool   // mispredicted control op: fetch stalls behind it
	hist     uint32 // global branch history as of this instruction's fetch
}

// robQ is the reorder buffer: a FIFO ring of instruction slots. An
// instruction lives in its slot from rename to retire (or squash); the
// slot's state is zeroed when the next instruction takes it. Renamed
// instructions get consecutive seqs and a flush empties the ring, so the
// ring holds a run of consecutive seqs and an in-flight instruction is
// found by its seq (bySeq).
//
// A core takes its ring at its first rename, and a run hands the ring
// back when it returns (release) for the next core to take from robPool,
// so a sweep of thousands of short runs (verify's litmus and difftest
// programs) reuses a few rings instead of allocating ~150 KB per core.
type robQ struct {
	slots    []inst // nil until the first push and after release
	capacity int
	head     int
	size     int
}

// robPool holds the rings of finished runs. A reused ring needs no
// clearing: push zeroes a slot's state as rename takes it, and newUop
// rewrites each uop whole.
var robPool sync.Pool // of *[]inst

func newRobQ(capacity int) *robQ { return &robQ{capacity: capacity} }

// take gives the queue its ring: a pooled one of its size, or a new one.
func (q *robQ) take() {
	if p, ok := robPool.Get().(*[]inst); ok && len(*p) == q.capacity {
		q.slots = *p
		return
	}
	q.slots = make([]inst, q.capacity)
	for i := range q.slots {
		q.slots[i].base = uopRef(i << 3)
	}
}

// release empties the queue and hands its ring to robPool; it is called
// when a run returns.
func (q *robQ) release() {
	if q.slots != nil {
		s := q.slots
		robPool.Put(&s)
	}
	q.slots, q.head, q.size = nil, 0, 0
}

// uop returns the uop r names.
func (q *robQ) uop(r uopRef) *uop { return &q.slots[r>>3].uops[r&7-1] }

// entry returns the trace entry in executes.
func (c *Core) entry(in *inst) *trace.Entry { return &c.tr.Entries[in.idx] }

// instOf returns the instruction u belongs to.
func (q *robQ) instOf(u *uop) *inst { return &q.slots[u.ref>>3] }

func (q *robQ) full() bool   { return q.size == q.capacity }
func (q *robQ) empty() bool  { return q.size == 0 }
func (q *robQ) len() int     { return q.size }
func (q *robQ) front() *inst { return &q.slots[q.head] }

// push takes the slot after the youngest instruction, zeroed, and returns
// it. The caller must check full first.
func (q *robQ) push() *inst {
	if q.slots == nil {
		q.take()
	}
	i := q.head + q.size
	if i >= len(q.slots) {
		i -= len(q.slots)
	}
	q.size++
	in := &q.slots[i]
	in.instState = instState{}
	return in
}

// popFront releases the oldest slot and returns it; its contents stay
// readable until the slot is pushed again.
func (q *robQ) popFront() *inst {
	in := &q.slots[q.head]
	if q.head++; q.head == len(q.slots) {
		q.head = 0
	}
	q.size--
	return in
}

// at returns the i-th oldest instruction.
func (q *robQ) at(i int) *inst {
	i += q.head
	if i >= len(q.slots) {
		i -= len(q.slots)
	}
	return &q.slots[i]
}

// bySeq returns the in-flight instruction with dynamic number seq, or nil
// (retired, squashed or not yet renamed).
func (q *robQ) bySeq(seq int64) *inst {
	if q.size == 0 {
		return nil
	}
	d := seq - q.slots[q.head].seq
	if d < 0 || d >= int64(q.size) {
		return nil
	}
	return q.at(int(d))
}

func (q *robQ) clear() { q.head, q.size = 0, 0 }

// Core is one timing simulation of a trace under a configuration.
type Core struct {
	cfg config.Config
	tr  *trace.Trace

	// Substrates.
	hier  *cache.Hierarchy
	tlb   *tlb.TLB
	bp    *bpred.Predictor
	tssbf *memdep.TSSBF
	sdp   memdep.DistancePredictor
	sets  *memdep.StoreSets
	ssn   memdep.SSN

	// Committed memory state (exactly the retired stores).
	image *mem.Image

	// Pipeline state.
	now     int64
	rf      *regFile
	rob     *robQ
	iqCount int
	ready   readyHeap
	events  eventWheel
	delayed []uopRef // gateSSNCommit uops parked until SSN.Commit advances

	fq            []fetchEntry // ring of fqCap entries
	fqHead, fqLen int
	fetchIdx      int
	fetchStalled  bool  // mispredicted control op in flight
	fetchBlockIdx int   // trace idx of the blocking op
	blockSeq      int64 // seq of the blocking op once renamed (0 = none)
	fetchResumeAt int64

	sb  *storeBuffer
	srb *storeRegBuffer

	seqCounter     int64
	uopSeq         int64
	retired        int64
	lastRetireAt   int64
	divBusyUntil   int64
	fpDivBusyUntil int64
	done           bool

	// Idle-cycle fast-forward: progress records whether the current
	// cycle changed any simulation state; a cycle that provably did
	// nothing lets the core jump straight to the next deadline (see
	// fastForward). ffEnabled gates the whole mechanism — off when the
	// config disables it and under fault injection (the injector draws
	// from its PRNG every cycle, so skipping cycles would change the
	// fault schedule).
	progress  bool
	ffEnabled bool

	// Hardening layer: the first structured failure (oracle divergence,
	// watchdog expiry, desync, refcount underflow), the diagnostic ring
	// of recently retired instructions, and the fault injector (nil when
	// injection is disabled).
	simErr    *SimError
	retireLog [retireLogCap]RetireRecord
	inj       *faults.Injector

	// Commit-stream observer (difftest lockstep; nil when unattached).
	commitHook CommitHook

	// drainHook observes each store-buffer entry as its bytes become
	// globally visible (finishCommit). The multicore Machine uses it as
	// the TSO store-visibility point; nil when unattached.
	drainHook func(e *sbEntry)

	// trackInval: record recently written lines for invalidation
	// injection (periodic or fault-injected).
	trackInval bool

	// Remote-invalidation injection state (paper §IV-F).
	recentLines []uint32
	invalPick   uint32

	// Warmup bookkeeping: the cycle and cache counters at the end of
	// the measurement warmup.
	cycleBase        int64
	warmL1A, warmL1M int64

	// Fire-and-Forget state: load sequence numbers and the pending
	// store->load forwards keyed by target LSN.
	sft        *memdep.SFT
	lsnRename  int64
	lsnRetire  int64
	pendingFwd *fwdRing

	// Per-cycle scratch: the steady-state cycle loop must not allocate
	// (see the allocation-regression guard in core tests).
	stash     []uopRef  // issue(): uops popped but not issuable this cycle
	srcRegBuf []isa.Reg // srcPhys(): logical source scratch
	srcBuf    []int     // srcPhys(): physical source scratch
	sbRefBuf  []int     // flush(): surviving store-buffer register refs

	// onDepMispredict, when set, observes each dependence exception
	// (diagnostics/tests).
	onDepMispredict func(*inst)

	// tracer, when attached, records per-instruction stage timings.
	tracer *PipeTracer

	stats Stats
}

// New builds a core over the analyzed trace.
func New(cfg config.Config, tr *trace.Trace) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newCore(cfg, tr, cache.NewHierarchy(cfg.Hierarchy)), nil
}

// newCore builds a core over a validated configuration and the given
// cache hierarchy. The trace is only read: a trace without an initial
// image starts from an empty one.
func newCore(cfg config.Config, tr *trace.Trace, hier *cache.Hierarchy) *Core {
	image := mem.NewImage()
	if tr.InitMem != nil {
		image = tr.InitMem.Clone()
	}
	c := &Core{
		cfg:       cfg,
		tr:        tr,
		hier:      hier,
		tlb:       tlb.New(cfg.TLB),
		bp:        bpred.New(cfg.BPred),
		tssbf:     memdep.NewTSSBF(cfg.TSSBF),
		sdp:       newDistancePredictor(cfg),
		sets:      memdep.NewStoreSets(cfg.SSITEntries, cfg.StoreSetCount),
		image:     image,
		rf:        newRegFile(cfg.PhysRegs),
		rob:       newRobQ(cfg.ROBSize),
		sb:        newStoreBuffer(cfg.StoreBufferSize, cfg.Consistency == config.RMO),
		srb:       newStoreRegBuffer(cfg.ROBSize + cfg.StoreBufferSize + 2),
		fq:        make([]fetchEntry, fqCap),
		srcRegBuf: make([]isa.Reg, 0, 3),
		srcBuf:    make([]int, 0, 3),
	}
	if cfg.Model == config.FnF {
		c.sft = memdep.NewSFT(memdep.DefaultFnFConfig())
		c.pendingFwd = newFwdRing(cfg.ROBSize + int(cfg.MaxDist()) + 2)
	}
	if cfg.Faults.Enabled() {
		c.inj = faults.NewInjector(cfg.Faults)
	}
	c.events.rob = c.rob
	c.trackInval = cfg.InvalidationInterval > 0 || (c.inj != nil && c.inj.WantsInvalidations())
	c.ffEnabled = !cfg.DisableFastForward && c.inj == nil
	return c
}

// Run simulates the whole trace and returns the statistics.
func (c *Core) Run() (*Stats, error) { return c.RunContext(context.Background()) }

// cancelPollInterval is how many cycle-loop iterations RunContext steps
// between context polls. Polling is off the hot path (one counter
// increment per iteration; the channel read only every interval), so
// cancellation support costs nothing measurable and does not perturb
// simulation state: statistics are byte-identical with or without a
// deadline, as long as it does not fire.
const cancelPollInterval = 4096

// RunContext simulates the whole trace, aborting with a structured
// ErrCanceled SimError when ctx is cancelled or its deadline passes.
// Cancellation is polled every cancelPollInterval loop iterations, so a
// fired deadline surfaces within microseconds of wall clock, never
// mid-cycle: the returned SimError carries a consistent pipeline
// snapshot. A nil ctx behaves as context.Background().
func (c *Core) RunContext(ctx context.Context) (*Stats, error) {
	if len(c.tr.Entries) == 0 {
		return &c.stats, nil
	}
	defer c.rob.release() // nothing reads the ROB once the run returns
	start := time.Now()
	window := c.cfg.Watchdog.NoRetireWindow
	if window <= 0 {
		window = config.DefaultNoRetireWindow
	}
	maxCycles := c.cfg.Watchdog.MaxCycles
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	poll := 0
	for !c.done {
		c.step(window, maxCycles)
		if poll++; poll >= cancelPollInterval {
			poll = 0
			if done != nil {
				select {
				case <-done:
					c.fail(&SimError{Kind: ErrCanceled, Idx: -1,
						Msg: fmt.Sprintf("run cancelled: %v (retired %d/%d)", ctx.Err(), c.retired, len(c.tr.Entries))})
				default:
				}
			}
		}
	}
	if c.simErr != nil {
		return nil, c.simErr
	}
	if c.inj != nil {
		c.stats.Faults = c.inj.Counts
	}
	c.stats.Cycles = c.now - c.cycleBase
	c.stats.L1MissRate = c.hier.L1D.MissRate()
	if a := c.hier.L1D.Accesses - c.warmL1A; a > 0 && c.cfg.WarmupInstructions > 0 {
		c.stats.L1MissRate = float64(c.hier.L1D.Misses-c.warmL1M) / float64(a)
	}
	c.stats.L2MissRate = c.hier.L2.MissRate()
	c.stats.L2Accesses = c.hier.L2.Accesses
	c.stats.DRAMAccesses = c.hier.DRAM.Reads + c.hier.DRAM.Writes
	c.stats.TLBAccesses = c.tlb.Accesses
	c.stats.SimWallClockNS = time.Since(start).Nanoseconds()
	return &c.stats, nil
}

// step advances the simulation by one cycle: the body of Run's loop,
// split out so the allocation-regression guard can measure a single
// steady-state cycle.
func (c *Core) step(window, maxCycles int64) {
	c.now++
	c.progress = false
	if c.inj != nil && c.inj.InvalidateLine() {
		c.injectInvalidation()
	}
	if c.cfg.InvalidationInterval > 0 && c.now%c.cfg.InvalidationInterval == 0 {
		c.injectInvalidation()
	}
	c.commitStores()
	c.handleEvents()
	c.retire()
	c.issue()
	c.rename()
	c.fetch()

	if maxCycles > 0 && c.now >= maxCycles {
		c.fail(&SimError{Kind: ErrWatchdog, Idx: -1,
			Msg: fmt.Sprintf("cycle budget %d exhausted (retired %d/%d)", maxCycles, c.retired, len(c.tr.Entries))})
	}
	if c.now-c.lastRetireAt > window {
		c.fail(&SimError{Kind: ErrWatchdog, Idx: -1,
			Msg: fmt.Sprintf("no retirement for %d cycles: deadlock (retired %d/%d)", window, c.retired, len(c.tr.Entries))})
	}
	if !c.progress {
		c.fastForward(window, maxCycles)
	}
}

// fastForward jumps over provably empty cycles. It runs only after a
// cycle in which no pipeline stage changed any state (nothing committed,
// completed, retired, issued, renamed or fetched): everything left in
// flight is waiting on a known future cycle, so the simulation state at
// every intermediate cycle is identical to the current one and stepping
// through them one by one would only burn host time. The core jumps to
// one cycle before the earliest deadline — the next completion event,
// store write-back, front-end resume, re-execution finish, invalidation
// tick or watchdog expiry — and credits the per-cycle stall counters
// (fetch stall, re-execution stall, store-buffer-full stall) for the
// skipped cycles exactly as stepping would have. Statistics are therefore
// bit-identical with the switch on or off (TestFastForwardEquivalence).
func (c *Core) fastForward(window, maxCycles int64) {
	if !c.ffEnabled || c.done || c.simErr != nil || c.ready.Len() > 0 {
		return
	}
	deadline := int64(-1)
	add := func(t int64) {
		if t > c.now && (deadline < 0 || t < deadline) {
			deadline = t
		}
	}
	if t := c.events.nextAt(); t >= 0 {
		add(t)
	}
	for i := range c.sb.entries {
		if e := &c.sb.entries[i]; e.issued {
			add(e.doneAt)
		}
	}
	if c.fetchIdx < len(c.tr.Entries) && !c.fetchStalled {
		add(c.fetchResumeAt)
	}
	if c.fqLen > 0 {
		add(c.fq[c.fqHead].readyAt)
	}
	var head *inst
	if !c.rob.empty() {
		head = c.rob.front()
		if head.reexecAt > 0 {
			add(head.reexecAt)
		}
	}
	if iv := c.cfg.InvalidationInterval; iv > 0 {
		add(c.now + iv - c.now%iv)
	}
	if maxCycles > 0 {
		add(maxCycles)
	}
	add(c.lastRetireAt + window + 1)

	skipped := deadline - c.now - 1
	if skipped <= 0 {
		return
	}
	// The skipped cycles would each have ticked the same per-cycle stall
	// counters this (stateless) cycle ticked: the conditions below are
	// all functions of state that cannot change before the deadline.
	if c.fetchIdx < len(c.tr.Entries) && (c.fetchStalled || c.now < c.fetchResumeAt) {
		c.stats.FetchStallCycles += skipped
	}
	if head != nil && head.complete() {
		switch {
		case head.isLoad() && head.needReexec && (!c.sb.empty() || c.now < head.reexecAt):
			c.stats.ReexecStallCycle += skipped
		case head.isStore() && c.sb.full():
			c.stats.SBFullStall += skipped
		}
	}
	c.now = deadline - 1
}

// CheckInvariants validates internal consistency (used by tests).
func (c *Core) CheckInvariants() error { return c.rf.checkInvariants() }

// newDistancePredictor picks the configured store distance predictor.
func newDistancePredictor(cfg config.Config) memdep.DistancePredictor {
	if cfg.UseTAGE {
		return memdep.NewTAGESDP(memdep.DefaultTAGEConfig(cfg.SDP.Biased))
	}
	return memdep.NewSDP(cfg.SDP)
}

// injectInvalidation models remote-core consistency traffic (paper
// §IV-F): a recently written cache line is invalidated; its words enter
// the T-SSBF with SSNcommit+1 so vulnerable in-flight loads re-execute.
func (c *Core) injectInvalidation() {
	c.progress = true
	if len(c.recentLines) == 0 {
		return
	}
	line := c.recentLines[int(c.invalPick)%len(c.recentLines)]
	c.invalPick++
	c.hier.Invalidate(line)
	if c.cfg.Model != config.Baseline {
		c.tssbf.InvalidateLine(line, c.hier.LineBytes())
		c.stats.TSSBFWrites += int64(c.hier.LineBytes() / 4)
	}
	c.stats.Invalidations++
}

// ---------- store commit ----------

// commitStores advances the store buffer: completes finished cache writes
// (applying their bytes to the committed image and publishing SSNcommit)
// and issues new ones through a pipelined write port (one issue per
// cycle). TSO completes strictly in order (a younger store's write
// becomes visible no earlier than its elders), with consecutive
// same-word coalescing; RMO may issue any entry whose word has no older
// pending write and completes in any order, with SSNcommit trailing the
// oldest uncommitted store.
func (c *Core) commitStores() {
	// Complete finished writes.
	if c.cfg.Consistency == config.TSO {
		for len(c.sb.entries) > 0 {
			head := &c.sb.entries[0]
			if !head.issued || head.doneAt > c.now {
				break
			}
			c.finishCommit(0)
		}
	} else {
		for {
			progressed := false
			for i := 0; i < len(c.sb.entries); i++ {
				e := &c.sb.entries[i]
				if e.issued && e.doneAt <= c.now {
					c.finishCommit(i)
					progressed = true
					break
				}
			}
			if !progressed {
				break
			}
		}
	}

	// Issue one new commit per cycle (pipelined write port).
	if c.sb.empty() {
		return
	}
	if c.cfg.Consistency == config.TSO {
		var lastDone int64
		for i := 0; i < len(c.sb.entries); i++ {
			e := &c.sb.entries[i]
			if e.issued {
				if e.doneAt > lastDone {
					lastDone = e.doneAt
				}
				continue
			}
			if !c.rf.regs[e.dataPhys].ready {
				return
			}
			c.progress = true
			done := c.hier.Access(c.now, e.addr, true)
			// Enforce in-order visibility behind older stores.
			if done <= lastDone {
				done = lastDone + 1
			}
			e.issued = true
			e.doneAt = done
			if c.cfg.StoreCoalescing {
				// Consecutive stores to the same word ride along.
				for j := i + 1; j < len(c.sb.entries); j++ {
					n := &c.sb.entries[j]
					if n.addr&^3 != e.addr&^3 || !c.rf.regs[n.dataPhys].ready {
						break
					}
					n.issued = true
					n.doneAt = done
					c.stats.StoresCoalesced++
				}
			}
			return
		}
		return
	}
	// RMO: issue the oldest unissued entry whose word has no older
	// pending write (one issue per cycle).
	for i := range c.sb.entries {
		e := &c.sb.entries[i]
		if e.issued || !c.rf.regs[e.dataPhys].ready {
			continue
		}
		if c.sb.hasOlderSameWord(i) {
			continue
		}
		c.progress = true
		e.issued = true
		e.doneAt = c.hier.Access(c.now, e.addr, true)
		break
	}
}

// finishCommit applies entry i's bytes, releases its registers and
// advances SSNcommit.
func (c *Core) finishCommit(i int) {
	c.progress = true
	e := c.sb.entries[i]
	c.image.Write(e.addr, e.size, e.value)
	if c.drainHook != nil {
		// Hand the hook the buffer slot, not &e: a pointer to the local
		// copy would move e to the heap on every committed store.
		c.drainHook(&c.sb.entries[i])
	}
	if c.trackInval {
		line := e.addr &^ uint32(c.hier.LineBytes()-1)
		if len(c.recentLines) < 8 {
			c.recentLines = append(c.recentLines, line)
		} else {
			c.recentLines[int(e.ssn)%8] = line
		}
	}
	c.rf.dropConsumer(e.dataPhys)
	c.rf.dropConsumer(e.addrPhys)
	c.checkRefs(e.idx)
	c.srb.remove(e.ssn)
	c.sb.entries = append(c.sb.entries[:i], c.sb.entries[i+1:]...)
	c.stats.StoresCommitted++

	var newCommit int64
	if c.cfg.Consistency == config.TSO {
		newCommit = e.ssn
	} else {
		// RMO: SSNcommit trails the oldest store still pending. Every
		// retired store passes through the buffer, so when it drains,
		// everything up to SSNretire has committed.
		newCommit = c.sb.oldestUncommittedSSN(c.ssn.Retire)
		if newCommit < c.ssn.Commit {
			newCommit = c.ssn.Commit
		}
	}
	if newCommit > c.ssn.Commit {
		c.ssn.Commit = newCommit
		c.wakeDelayed()
	}
}

// wakeDelayed re-activates parked uops whose SSNcommit gate opened.
func (c *Core) wakeDelayed() {
	kept := c.delayed[:0]
	for _, r := range c.delayed {
		if u := c.rob.uop(r); c.ssn.Commit >= u.gateArg {
			c.ready.push(u)
		} else {
			kept = append(kept, r)
		}
	}
	if len(kept) != len(c.delayed) {
		c.delayed = kept
	}
}

// ---------- events / writeback ----------

func (c *Core) handleEvents() {
	for c.simErr == nil {
		u := c.events.popDue(c.now)
		if u == nil {
			return
		}
		c.progress = true
		c.completeUop(u)
	}
}

// writeback publishes a register value and wakes its waiters.
func (c *Core) writeback(p int) {
	if p < 0 {
		return
	}
	c.stats.RegWrites++
	for n := c.rf.setReady(p, c.now); n != 0; {
		w := c.rob.uop(uopRef(n >> 1))
		n = w.wnext[n&1]
		w.waitCnt--
		c.stats.IQWakeups++
		if w.waitCnt == 0 {
			c.dispatchReady(w)
		}
	}
}

// await registers wait k (0 or 1) of u on register p, at the tail of
// p's waiter list; it returns false when p is already ready (no wait
// needed). A wait link is free again once p's writeback has walked it.
func (c *Core) await(p int, u *uop, k int) bool {
	r := &c.rf.regs[p]
	if r.ready {
		return false
	}
	n := waitRef(u.ref)<<1 | waitRef(k)
	u.wnext[k] = 0
	if t := r.wtail; t != 0 {
		c.rob.uop(uopRef(t >> 1)).wnext[t&1] = n
	} else {
		r.whead = n
	}
	r.wtail = n
	return true
}

// dispatchReady routes a uop whose operands are all ready: through its
// gate (delayed-load structure, store-set wait) or into the ready queue;
// zero-cost bookkeeping uops (cloak trackers) complete immediately.
func (c *Core) dispatchReady(u *uop) {
	if u.kind == uopCloakTrack {
		c.completeUop(u)
		return
	}
	switch u.gate {
	case gateSSNCommit:
		if c.ssn.Commit >= u.gateArg {
			c.ready.push(u)
			return
		}
		// Parked loads leave the IQ for the (unlimited) delayed-load
		// structure (paper §V: NoSQ's delayed-load storage).
		c.leaveIQ(u)
		c.delayed = append(c.delayed, u.ref)
	case gateStoreExec:
		// A gating store no longer in flight has retired, and long
		// resolved its address.
		st := c.rob.bySeq(u.gateArg)
		if st == nil || st.addrReady {
			c.ready.push(u)
			return
		}
		u.execNext, st.execHead = st.execHead, u.ref
	default:
		c.ready.push(u)
	}
}

// completeUop handles a finished micro-operation.
func (c *Core) completeUop(u *uop) {
	if u.done {
		return
	}
	u.done = true
	in := c.rob.instOf(u)

	switch u.kind {
	case uopALU:
		c.writeback(int(u.dst))
	case uopBranch:
		c.writeback(int(u.dst))
		if c.fetchStalled && c.blockSeq == in.seq {
			c.fetchStalled = false
			c.blockSeq = 0
			c.fetchResumeAt = c.now + c.cfg.RedirectPenalty
		}
	case uopAGI:
		in.addrReady = true
		c.writeback(int(u.dst))
		if in.isStore() {
			c.sets.StoreExecuted(c.entry(in).PC, in.seq)
			for r := in.execHead; r != 0; {
				w := c.rob.uop(r)
				r = w.execNext
				c.ready.push(w)
			}
			in.execHead = 0
			if c.cfg.Model == config.Baseline {
				c.checkViolations(in)
			}
		}
	case uopLoad:
		c.completeLoadAccess(u)
	case uopCMP:
		c.completeCMP(u)
	case uopCMOV:
		c.completeCMOV(u)
	case uopCloakTrack:
		// The predicted store's data register is ready: the cloaked
		// load's value is available now.
		in.valueAt = c.now
	}

	in.pending--
	if in.pending == 0 {
		in.completedAt = c.now
	}
}

// ---------- issue ----------

func (c *Core) issue() {
	issued := 0
	loadPorts := 0
	stash := c.stash[:0]
	for issued < c.cfg.IssueWidth && c.ready.Len() > 0 {
		u := c.rob.uop(c.ready.pop())
		if u.kind == uopLoad && loadPorts >= c.cfg.LoadPorts {
			stash = append(stash, u.ref)
			continue
		}
		if u.kind == uopALU {
			switch u.class {
			case isa.ClassDiv:
				if c.divBusyUntil > c.now {
					stash = append(stash, u.ref)
					continue
				}
			case isa.ClassFPDiv:
				if c.fpDivBusyUntil > c.now {
					stash = append(stash, u.ref)
					continue
				}
			}
		}
		replayed := c.issueUop(u)
		if u.kind == uopLoad {
			loadPorts++
		}
		issued++
		if replayed {
			continue
		}
	}
	for _, r := range stash {
		c.ready.push(c.rob.uop(r))
	}
	if cap(stash) != cap(c.stash) {
		c.stash = stash // grown: keep the larger scratch
	}
}

// leaveIQ releases u's issue queue slot (idempotent).
func (c *Core) leaveIQ(u *uop) {
	if u.counted {
		u.counted = false
		c.iqCount--
	}
}

// issueUop begins execution; returns true when the uop re-gated itself
// (baseline loads discovering an unready forwarder).
func (c *Core) issueUop(u *uop) bool {
	c.progress = true
	in := c.rob.instOf(u)
	c.leaveIQ(u)
	c.stats.RegReads += int64(u.nSrcs)

	switch u.kind {
	case uopLoad:
		return c.issueLoad(u)
	case uopAGI:
		lat := c.cfg.AGILat + c.tlb.Translate(c.entry(in).Addr)
		u.issued = true
		c.events.schedule(c.now+lat, u)
	case uopALU, uopBranch:
		lat := c.latencyFor(u)
		u.issued = true
		c.events.schedule(c.now+lat, u)
	case uopCMP, uopCMOV:
		u.issued = true
		c.events.schedule(c.now+1, u)
	}
	return false
}

func (c *Core) latencyFor(u *uop) int64 {
	switch u.class {
	case isa.ClassMul:
		return c.cfg.MulLat
	case isa.ClassDiv:
		c.divBusyUntil = c.now + c.cfg.DivLat
		return c.cfg.DivLat
	case isa.ClassFP:
		return c.cfg.FPLat
	case isa.ClassFPDiv:
		c.fpDivBusyUntil = c.now + c.cfg.FPDivLat
		return c.cfg.FPDivLat
	case isa.ClassBranch:
		return c.cfg.BranchLat
	default:
		return c.cfg.ALULat
	}
}

// ---------- rename ----------

// spaceFor conservatively checks resources for one instruction (worst
// case: a predicated load = 5 uops, 4 fresh registers).
func (c *Core) spaceFor() bool {
	return !c.rob.full() &&
		c.rf.freeCount() >= 6 &&
		c.iqCount+5 <= c.cfg.IQSize
}

func (c *Core) rename() {
	for n := 0; n < c.cfg.RenameWidth; n++ {
		if c.fqLen == 0 || c.simErr != nil {
			return
		}
		fe := c.fq[c.fqHead]
		if fe.readyAt > c.now || !c.spaceFor() {
			return
		}
		c.fqHead = (c.fqHead + 1) & (fqCap - 1)
		c.fqLen--
		in := c.renameOne(fe.idx, fe.hist)
		if fe.blocking {
			c.blockSeq = in.seq
			// If the blocking op completed already (e.g. a no-uop
			// jump), unblock immediately.
			if in.pending == 0 && c.fetchStalled {
				c.fetchStalled = false
				c.blockSeq = 0
				c.fetchResumeAt = c.now + c.cfg.RedirectPenalty
			}
		}
	}
}

// newUop takes the instruction's next uop, wiring operand wakeup.
func (c *Core) newUop(in *inst, kind uopKind, class isa.Class, srcs []int, dst int) *uop {
	c.uopSeq++
	u := &in.uops[in.nUops]
	in.nUops++
	*u = uop{}
	u.ref, u.seq, u.dst, u.kind, u.class = in.base|uopRef(in.nUops), c.uopSeq, int32(dst), kind, class
	for _, s := range srcs {
		if s < 0 {
			continue
		}
		if c.await(s, u, int(u.nSrcs)) {
			u.waitCnt++
		}
		u.nSrcs++
	}
	in.pending++
	if kind != uopCloakTrack {
		u.counted = true
		c.iqCount++
		c.stats.IQInserts++
	}
	return u
}

// finishUopSetup routes a fresh uop whose operands may already be ready.
func (c *Core) finishUopSetup(u *uop) {
	if u.waitCnt == 0 {
		c.dispatchReady(u)
	}
}

// mapDest allocates and maps a destination register.
func (c *Core) mapDest(in *inst, l isa.Reg) int {
	p := c.rf.alloc()
	c.rf.rat[l] = p
	if in.destLog < 0 && !isHardwareReg(l) {
		in.destLog = int(l)
		in.destPhys = p
	} else {
		in.addAux(l, p)
	}
	return p
}

func isHardwareReg(l isa.Reg) bool { return l >= isa.HwAddr }

// mapAux maps a hardware-only logical register.
func (c *Core) mapAux(in *inst, l isa.Reg) int {
	p := c.rf.alloc()
	c.rf.rat[l] = p
	in.addAux(l, p)
	return p
}

// addAux records an auxiliary logical mapping for retire.
func (in *inst) addAux(l isa.Reg, p int) {
	in.auxLog[in.nAux] = l
	in.auxPhys[in.nAux] = p
	in.nAux++
}

func (c *Core) renameOne(idx int, hist uint32) *inst {
	c.progress = true
	e := &c.tr.Entries[idx]
	c.seqCounter++
	in := c.rob.push()
	in.idx = idx
	in.seq = c.seqCounter
	in.renamedAt = c.now
	in.destLog = -1
	in.destPhys = -1
	in.predIdx = -1
	in.forwardIdx = -1
	in.histAtRen = hist
	c.stats.ROBWrites++
	op := e.Instr.Op
	in.load, in.store = op.IsLoad(), op.IsStore()

	switch {
	case op == isa.OpNOP || op == isa.OpHALT || op == isa.OpJ:
		in.completedAt = c.now
	case op == isa.OpJAL:
		dst := c.mapDest(in, isa.RA)
		u := c.newUop(in, uopALU, isa.ClassALU, nil, dst)
		c.finishUopSetup(u)
	case in.load:
		c.renameLoad(in)
	case in.store:
		c.renameStore(in)
	case op.IsBranch() || op == isa.OpJR || op == isa.OpJALR:
		srcs := c.srcPhys(e)
		dst := -1
		if op == isa.OpJALR && e.Instr.Dest() != isa.NoReg {
			dst = c.mapDest(in, e.Instr.Dest())
		}
		u := c.newUop(in, uopBranch, isa.ClassBranch, srcs, dst)
		c.finishUopSetup(u)
	default:
		srcs := c.srcPhys(e)
		dst := -1
		if d := e.Instr.Dest(); d != isa.NoReg {
			dst = c.mapDest(in, d)
		}
		u := c.newUop(in, uopALU, op.Class(), srcs, dst)
		c.finishUopSetup(u)
	}
	return in
}

// srcPhys maps an instruction's logical sources through the RAT. The
// returned slice aliases per-core scratch: it is only valid until the
// next call (newUop copies it immediately).
func (c *Core) srcPhys(e *trace.Entry) []int {
	logical := e.Instr.Srcs(c.srcRegBuf[:0])
	out := c.srcBuf[:0]
	for _, l := range logical {
		out = append(out, c.rf.rat[l])
	}
	return out
}

// ---------- fetch ----------

func (c *Core) fetch() {
	if c.fetchIdx >= len(c.tr.Entries) {
		return
	}
	if c.fetchStalled || c.now < c.fetchResumeAt {
		c.stats.FetchStallCycles++
		return
	}
	for n := 0; n < c.cfg.FetchWidth && c.fqLen < fqCap && c.fetchIdx < len(c.tr.Entries); n++ {
		idx := c.fetchIdx
		e := &c.tr.Entries[idx]
		fe := fetchEntry{idx: idx, readyAt: c.now + c.cfg.FrontEndDepth, hist: c.bp.History()}
		c.fetchIdx++
		if e.Instr.Op.IsControl() {
			correct := c.bp.PredictAndTrain(e.PC, e.Instr.Op, e.Taken, e.Target)
			if !correct {
				c.stats.BranchMispredicts++
				fe.blocking = true
				c.fqPush(fe)
				c.fetchStalled = true
				c.fetchBlockIdx = idx
				return
			}
		}
		c.fqPush(fe)
	}
}

func (c *Core) fqPush(fe fetchEntry) {
	c.progress = true
	c.fq[(c.fqHead+c.fqLen)&(fqCap-1)] = fe
	c.fqLen++
}

// ---------- retire ----------

func (c *Core) retire() {
	for budget := c.cfg.RetireWidth; budget > 0 && !c.rob.empty(); budget-- {
		in := c.rob.front()
		if !in.complete() {
			return
		}

		if in.isLoad() {
			switch c.verifyLoad(in) {
			case verifyStall:
				return
			case verifyRecoverReplay:
				// Baseline ordering violation: the load itself
				// re-executes; flush everything including it.
				c.flush(in.idx)
				return
			}
		}

		if in.isStore() {
			if c.sb.full() {
				c.stats.SBFullStall++
				return
			}
			c.retireStore(in)
		}

		c.retireCommon(in)
		c.rob.popFront()

		if in.recoverAfter {
			// Memory dependence exception: flush everything younger
			// and refetch after the (now corrected) load.
			c.flush(in.idx + 1)
			return
		}
		if c.done {
			return
		}
	}
}

func (c *Core) retireStore(in *inst) {
	e := c.entry(in)
	c.ssn.Retire = in.ssn
	c.sb.push(sbEntry{
		ssn:      in.ssn,
		idx:      in.idx,
		addr:     e.Addr,
		size:     uint32(e.Size),
		value:    e.Value,
		dataPhys: in.dataPhys,
		addrPhys: in.addrPhys,
	})
	if c.cfg.Model != config.Baseline {
		c.tssbf.Insert(e.WordAddr(), e.BAB(), in.ssn)
		c.stats.TSSBFWrites++
	}
}

// retireCommon updates architectural rename state, releases registers and
// accounts statistics.
func (c *Core) retireCommon(in *inst) {
	c.progress = true
	if in.destLog >= 0 {
		old := c.rf.arat[in.destLog]
		c.rf.arat[in.destLog] = in.destPhys
		c.rf.dropProducer(old)
	}
	for i, l := range in.auxLog[:in.nAux] {
		old := c.rf.arat[l]
		c.rf.arat[l] = in.auxPhys[i]
		c.rf.dropProducer(old)
	}

	c.retired++
	c.lastRetireAt = c.now
	if c.inj != nil && in.isLoad() && c.inj.CorruptValue() {
		// Injected architectural corruption: the lockstep hook (if
		// attached) and the oracle below must catch it.
		in.gotValue ^= 0x8000_0001
	}
	c.recordRetire(in)
	// External commit-stream observer (difftest lockstep) sees the
	// retirement first, then the built-in commit-time oracle: the
	// verification machinery must never let a wrong architectural
	// effect retire.
	c.notifyCommit(in)
	c.oracleRetireCheck(in)
	c.checkRefs(in.idx)
	if c.tracer != nil {
		c.tracer.onRetire(in, c.entry(in), c.now)
	}
	if c.cfg.WarmupInstructions > 0 && c.retired == c.cfg.WarmupInstructions {
		// End of warmup: structures stay warm, counters restart. The
		// boundary instruction itself is not measured.
		oracleChecks := c.stats.OracleChecks
		c.stats = Stats{}
		c.stats.OracleChecks = oracleChecks // soundness coverage is not a warmup metric
		c.cycleBase = c.now
		c.warmL1A, c.warmL1M = c.hier.L1D.Accesses, c.hier.L1D.Misses
		if in.isLoad() {
			c.lsnRetire++
		}
	} else {
		c.stats.Instructions++
		n := int64(in.nUops)
		if n == 0 {
			n = 1
		}
		c.stats.Uops += n

		if in.isLoad() {
			c.lsnRetire++
			c.accountLoad(in)
		}
	}

	if c.entry(in).Instr.Op == isa.OpHALT || c.retired == int64(len(c.tr.Entries)) {
		c.done = true
	}
}

func (c *Core) accountLoad(in *inst) {
	c.stats.LoadCount[in.cat]++
	t := in.valueAt - in.renamedAt
	if t < 0 {
		t = 0
	}
	c.stats.LoadExecTime[in.cat] += t
	c.stats.LoadLatency[latencyBucket(t)]++
	if in.lowConf {
		c.stats.LowConfCount++
		c.stats.LowConfExecTime += t
		switch {
		case !in.actualInFly:
			c.stats.LowConfOutcomes[LowConfIndepStore]++
		case c.entry(in).DepStore == in.ssnByp:
			c.stats.LowConfOutcomes[LowConfCorrect]++
		default:
			c.stats.LowConfOutcomes[LowConfDiffStore]++
		}
	}
}

// ---------- recovery ----------

// flush squashes every in-flight instruction, restores the rename state
// from the architectural map (the paper recovers the reference counters by
// walking the squashed instructions; restoring from the ARAT plus the
// surviving store buffer references is equivalent at a full-window flush)
// and refetches from refetchIdx.
func (c *Core) flush(refetchIdx int) {
	c.progress = true
	// A flush squashes the whole window, so every reference to an
	// in-flight instruction dies with it: the ready queue, delayed-load
	// structure, event wheel and register waiter lists hold only stale
	// entries afterwards and are cleared below (resetToARAT empties the
	// waiter lists), and the emptied ROB slots are zeroed as rename
	// reuses them.
	for i := 0; i < c.rob.len(); i++ {
		in := c.rob.at(i)
		if c.tracer != nil {
			c.tracer.onSquash(in.idx)
		}
		for k := range in.uops[:in.nUops] {
			if !in.uops[k].done {
				c.stats.SquashedUops++
			}
		}
	}
	c.rob.clear()
	c.iqCount = 0
	c.ready.clear()
	c.delayed = c.delayed[:0]
	c.events.clear()

	c.ssn.Rename = c.ssn.Retire
	c.lsnRename = c.lsnRetire
	c.srb.dropYoungerThan(c.ssn.Retire)
	c.sets.Invalidate(0) // all tracked stores were in flight: clear LFST

	c.sbRefBuf = c.sb.regRefs(c.sbRefBuf[:0])
	c.rf.resetToARAT(c.sbRefBuf)

	c.fqHead, c.fqLen = 0, 0
	c.fetchIdx = refetchIdx
	c.fetchStalled = false
	c.blockSeq = 0
	c.fetchResumeAt = c.now + c.cfg.RecoveryPenalty
}
