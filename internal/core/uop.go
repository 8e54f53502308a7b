package core

import (
	"math/bits"

	"dmdp/internal/isa"
)

// uopKind enumerates the MicroOp types the decoder/renamer emits.
type uopKind uint8

const (
	uopALU        uopKind = iota // integer/fp computation, jumps with link
	uopBranch                    // conditional branch / indirect jump (resolves fetch)
	uopAGI                       // address generation + TLB translation
	uopLoad                      // cache read (LD)
	uopCMP                       // predication: address comparison -> predicate
	uopCMOV                      // predication: conditional move (two per load)
	uopCloakTrack                // zero-cost tracker: cloaked load's data register readiness
)

// gate describes an extra issue condition beyond operand readiness.
type gateKind uint8

const (
	gateNone      gateKind = iota
	gateSSNCommit          // wait until SSN.Commit >= gateArg (NoSQ delayed load, baseline partial-overlap)
	gateStoreExec          // wait until the in-flight store with seq gateArg resolves its address (store sets)
	// Baseline loads waiting for a forwarder's *data* register replay
	// through the ordinary operand-wakeup path (issueLoadBaseline).
)

// uopRef names a uop by its ROB slot and its place in the slot:
// slot<<3 | (k+1) for the slot's k-th uop; the zero value names none.
// The ready queue, the event wheel, the delayed-load structure and the
// register waiter lists hold refs, not pointers: they are pointer-free,
// so updating them costs no GC write barrier.
type uopRef int32

// waitRef names one of the (at most two) register waits of a uop:
// ref<<1 | k. The zero value names none.
type waitRef int32

// uop is one scheduled micro-operation, held inline in its
// instruction's ROB slot.
type uop struct {
	seq int64 // global dispatch order (issue priority)
	at  int64 // event wheel: completion cycle

	// gateArg is the gate's operand: the SSN that must commit
	// (gateSSNCommit) or the seq of the store whose address must resolve
	// (gateStoreExec; the store is found in flight by it).
	gateArg int64

	ref      uopRef     // this uop's own name
	next     uopRef     // event wheel: next event of the same bucket
	wnext    [2]waitRef // register waiter lists: next waiter after each wait
	execNext uopRef     // next uop waiting on the same store's address

	dst     int32 // physical register destination (-1 = none)
	waitCnt int32 // unready sources remaining

	kind    uopKind
	class   isa.Class // execution class (latency / functional unit)
	gate    gateKind
	nSrcs   uint8 // physical register sources read at issue
	counted bool  // currently occupies an IQ slot

	// cmovSel: for uopCMOV, true when this is the predicate-true arm
	// (selects the store data).
	cmovSel bool

	issued bool
	done   bool
}

// maxUops bounds the uops of one instruction (a predicated load: AGI,
// LD, CMP and two CMOVs) and maxAux its hardware-only register mappings
// (HwAddr, HwTmp, HwPred).
const (
	maxUops = 5
	maxAux  = 3
)

// inst is one in-flight dynamic instruction (a trace entry instance),
// held in its ROB slot. It holds no pointers, so the slot ring is
// nothing for the GC to scan and clearing a slot needs no write barrier.
type inst struct {
	instState
	uops [maxUops]uop // the first nUops are live
	base uopRef       // slot<<3: the slot's k-th uop is base | (k+1)
}

// instState is the part of an inst that is zeroed when its ROB slot is
// reused: everything but the inline uops, which newUop rewrites whole.
type instState struct {
	idx int   // trace index of the entry (correct-path ground truth; Core.entry)
	seq int64 // unique dynamic number (monotone across squashes)

	load, store bool // decoded once at rename

	nUops   uint8
	pending int // uops not yet done

	// Rename state.
	destLog  int // logical destination (-1 = none); loads with predication also map HwTmp/HwPred
	destPhys int
	// auxiliary logical mappings created by cracking (HwAddr, HwTmp,
	// HwPred): recorded so retire updates the ARAT for them too.
	nAux    uint8
	auxLog  [maxAux]isa.Reg
	auxPhys [maxAux]int

	renamedAt int64

	// Store state.
	ssn       int64
	dataPhys  int // store data register (consumer-counted until commit)
	addrPhys  int // AGI destination (address register)
	addrReady bool

	// Load state.
	cat         LoadCategory
	lowConf     bool
	predHit     bool  // SDP produced a prediction
	usedDist    int64 // predicted store distance
	ssnByp      int64 // predicted colliding store SSN (0 = none used)
	predIdx     int   // trace index of the predicted store (-1 = none)
	histAtRen   uint32
	actualInFly bool // ground truth: DepStore was in flight at rename

	predicate     bool // CMP outcome: predicted store forwards
	predicateDone bool

	gotValue  uint32 // value the load obtained speculatively
	valueAt   int64  // cycle the value became available
	readCache bool   // value came from the cache (vs an in-flight store)
	ssnNvul   int64  // SSN.Commit captured when the cache was read

	// Fire-and-Forget state.
	lsn       int64 // load sequence number
	fnfTarget int64 // store: target LSN of the registered forward (0 = none)

	violated   bool  // baseline: ordering violation -> recover at head
	srcSSN     int64 // baseline: SSN of the store that supplied the value (-1 = cache read pending)
	forwardIdx int   // baseline: trace index of the forwarding store (-1 = none)

	// Predication register references (consumer-counted).
	predAddrPhys int
	predDataPhys int

	cacheValue     uint32 // raw cache-read result (predication keeps it separate)
	cacheValueSeen bool

	// Retire-time verification state machine.
	verifyChecked bool
	needReexec    bool
	didReexec     bool // the SVW check forced a retire-time re-execution
	tssbfSSN      int64
	tssbfMatch    bool
	tssbfCovered  bool
	reexecAt      int64 // completion cycle of the re-execution (0 = not issued)
	recoverAfter  bool  // exception: flush younger instructions after this retires

	// execHead lists the uops gated on this store's address resolution
	// (store sets), threaded through uop.execNext. They go to the ready
	// heap together, so their order does not matter.
	execHead uopRef

	completedAt int64
}

func (in *inst) isLoad() bool  { return in.load }
func (in *inst) isStore() bool { return in.store }

// complete reports whether the instruction can retire (all uops done).
func (in *inst) complete() bool { return in.pending == 0 }

// ---------- ready queue (issue priority by age) ----------

// readyEntry is one ready uop keyed by its seq, held inline so sifting
// compares without dereferencing the uop.
type readyEntry struct {
	seq int64
	ref uopRef
}

// readyHeap is a hand-rolled binary min-heap ordered by uop seq. It
// deliberately avoids container/heap: the interface indirection costs a
// dynamic dispatch per sift step, and this queue sits on the per-cycle
// issue path. The heap is a[:n]; keeping the length apart means pushes
// and pops never rewrite the slice header (and pay its write barrier)
// once the array has grown to the steady-state size.
type readyHeap struct {
	a []readyEntry
	n int
}

func (h *readyHeap) Len() int { return h.n }

func (h *readyHeap) clear() { h.n = 0 }

func (h *readyHeap) push(u *uop) {
	e := readyEntry{seq: u.seq, ref: u.ref}
	if h.n == len(h.a) {
		h.a = append(h.a, e)
	}
	a := h.a
	i := h.n
	h.n++
	for i > 0 {
		p := (i - 1) / 2
		if a[p].seq <= e.seq {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
}

func (h *readyHeap) pop() uopRef {
	h.n--
	a := h.a[:h.n+1]
	u := a[0].ref
	if h.n > 0 {
		siftDownReady(a[:h.n], a[h.n])
	}
	return u
}

// siftDownReady places e, taken from the end of the heap, starting at the
// vacated root.
func siftDownReady(a []readyEntry, e readyEntry) {
	n := len(a)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && a[r].seq < a[l].seq {
			m = r
		}
		if e.seq <= a[m].seq {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// ---------- completion events ----------

// wheelSize is the event wheel's window in cycles: every fixed execution
// latency and every L1/L2 access of the default machine completes within
// it; DRAM completions go to the overflow heap. Power of two.
const wheelSize = 64

// eventWheel holds the pending completion events and hands them out in
// (cycle, uop seq) order. Each of its buckets is an intrusive list,
// threaded through uop.next and kept in (at, seq) order, of the events
// due at one cycle of the window [base, base+wheelSize); the bucket of
// base also holds the late events, scheduled at or before a cycle
// already drained. Events beyond the window wait in a small (at, seq)
// heap and move into their bucket as the window reaches them. Nothing is
// allocated per event.
type eventWheel struct {
	rob      *robQ // where the uops live
	bucket   [wheelSize]uopRef
	tail     [wheelSize]uopRef // last event of each non-empty bucket
	occupied uint64            // bit b set iff bucket b is non-empty
	base     int64             // lowest cycle not yet drained
	n        int               // events in buckets
	far      farHeap
}

// schedule adds u's completion at cycle at.
func (w *eventWheel) schedule(at int64, u *uop) {
	u.at = at
	if at >= w.base+wheelSize {
		w.far.push(farEvent{at: at, seq: u.seq, ref: u.ref})
		return
	}
	w.insert(u)
}

// insert links u into its bucket in (at, seq) order; late events join
// the bucket of base. Events mostly arrive in order, so the tail is
// tried first.
func (w *eventWheel) insert(u *uop) {
	b := u.at
	if b < w.base {
		b = w.base
	}
	b &= wheelSize - 1
	w.n++
	if w.occupied&(1<<b) == 0 {
		w.bucket[b], w.tail[b] = u.ref, u.ref
		w.occupied |= 1 << b
		u.next = 0
		return
	}
	if t := w.rob.uop(w.tail[b]); eventBefore(t, u) {
		t.next, w.tail[b] = u.ref, u.ref
		u.next = 0
		return
	}
	p := &w.bucket[b]
	for {
		e := w.rob.uop(*p)
		if !eventBefore(e, u) {
			break
		}
		p = &e.next
	}
	u.next = *p
	*p = u.ref
}

// eventBefore orders events by (at, seq).
func eventBefore(a, b *uop) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// popDue removes and returns the next event due at or before now, or nil.
func (w *eventWheel) popDue(now int64) *uop {
	for {
		b := w.base & (wheelSize - 1)
		if w.occupied&(1<<b) != 0 {
			// Every other event is due after base: the head is the
			// earliest. It may be a late event scheduled after the
			// window passed now.
			u := w.rob.uop(w.bucket[b])
			if u.at > now {
				return nil
			}
			w.bucket[b] = u.next
			if u.next == 0 {
				w.occupied &^= 1 << b
			}
			w.n--
			return u
		}
		if w.base > now {
			return nil
		}
		if w.n > 0 {
			w.base++
		} else {
			// Nothing in the window: jump to now+1 or to the earliest
			// far event, whichever comes first.
			w.base = now + 1
			if len(w.far) > 0 && w.far[0].at < w.base {
				w.base = w.far[0].at
			}
		}
		for len(w.far) > 0 && w.far[0].at < w.base+wheelSize {
			w.insert(w.rob.uop(w.far.pop()))
		}
	}
}

// nextAt returns the cycle of the earliest pending event, or -1.
func (w *eventWheel) nextAt() int64 {
	if w.n > 0 {
		// Buckets hold base, base+1, ...: rotate so the first set bit is
		// the earliest bucket. The bucket of base may hold late events,
		// whose head is still its minimum.
		s := uint(w.base & (wheelSize - 1))
		occ := w.occupied>>s | w.occupied<<(wheelSize-s)
		return w.rob.uop(w.bucket[(w.base+int64(bits.TrailingZeros64(occ)))&(wheelSize-1)]).at
	}
	if len(w.far) > 0 {
		return w.far[0].at
	}
	return -1
}

// clear drops every pending event (a full pipeline flush).
func (w *eventWheel) clear() {
	w.occupied, w.n = 0, 0
	w.far = w.far[:0]
}

// farEvent is an event beyond the wheel's window, keyed by (at, seq).
type farEvent struct {
	at, seq int64
	ref     uopRef
}

func (e farEvent) before(o farEvent) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// farHeap is a binary min-heap of the events beyond the wheel's window.
type farHeap []farEvent

func (h *farHeap) push(e farEvent) {
	a := append(*h, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
	*h = a
}

func (h *farHeap) pop() uopRef {
	a := *h
	u := a[0].ref
	n := len(a) - 1
	last := a[n]
	a = a[:n]
	if n > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && a[r].before(a[l]) {
				m = r
			}
			if !a[m].before(last) {
				break
			}
			a[i] = a[m]
			i = m
		}
		a[i] = last
	}
	*h = a
	return u
}
