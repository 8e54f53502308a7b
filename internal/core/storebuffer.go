package core

import "dmdp/internal/trace"

// sbEntry is one retired-but-uncommitted store held in the store buffer.
// The store queue is gone in the SQ-free models, but the store buffer is
// still required to overlap store-miss latency and implement the
// consistency model (paper §I, §IV-F). The physical register identities
// are kept so their lifetimes extend to commit (consumer counters).
type sbEntry struct {
	ssn      int64
	idx      int // trace index
	addr     uint32
	size     uint32
	value    uint32
	dataPhys int
	addrPhys int

	// A coalesced entry (TSO store coalescing of consecutive same-word
	// stores) is issued with, and completes at the doneAt of, the entry
	// carrying it.
	issued bool
	doneAt int64
}

// storeBuffer models the post-retirement store queue with TSO (in-order,
// head-only commit with consecutive coalescing) or RMO (out-of-order
// commit, per-word ordering preserved) policies.
type storeBuffer struct {
	entries []sbEntry
	cap     int
	rmo     bool
}

func newStoreBuffer(capacity int, rmo bool) *storeBuffer {
	return &storeBuffer{cap: capacity, rmo: rmo}
}

func (sb *storeBuffer) full() bool  { return len(sb.entries) >= sb.cap }
func (sb *storeBuffer) empty() bool { return len(sb.entries) == 0 }
func (sb *storeBuffer) len() int    { return len(sb.entries) }

func (sb *storeBuffer) push(e sbEntry) { sb.entries = append(sb.entries, e) }

// regRefs appends the physical registers still referenced by pending
// stores (used to rebuild consumer counts after a recovery).
func (sb *storeBuffer) regRefs(dst []int) []int {
	for i := range sb.entries {
		dst = append(dst, sb.entries[i].dataPhys, sb.entries[i].addrPhys)
	}
	return dst
}

// oldestUncommittedSSN returns the SSN preceding the oldest pending store
// (the RMO SSNcommit rule) or retired if the buffer is empty (an empty
// buffer means every retired store has committed).
func (sb *storeBuffer) oldestUncommittedSSN(retired int64) int64 {
	if len(sb.entries) == 0 {
		return retired
	}
	min := sb.entries[0].ssn
	for _, e := range sb.entries[1:] {
		if e.ssn < min {
			min = e.ssn
		}
	}
	return min - 1
}

// hasOlderSameWord reports whether an older pending entry writes the same
// word (RMO must preserve per-address order).
func (sb *storeBuffer) hasOlderSameWord(i int) bool {
	w := sb.entries[i].addr &^ 3
	for j := range sb.entries {
		if sb.entries[j].ssn < sb.entries[i].ssn && sb.entries[j].addr&^3 == w {
			return true
		}
	}
	return false
}

// srbEntry is one Store Register Buffer record: the data and address
// physical register identities of an in-flight store, live from rename to
// commit, consulted by memory cloaking and predication insertion (paper
// Fig. 6).
type srbEntry struct {
	ssn      int64
	idx      int   // trace index
	seq      int64 // the store's dynamic number: in flight iff the ROB holds it
	dataPhys int
	addrPhys int
}

// storeRegBuffer maps SSN -> register identities for all in-flight
// stores. It is an open ring indexed by ssn&mask (ssn 0 marks an empty
// slot; real SSNs start at 1): live SSNs usually span at most
// ROB+SB entries, but under RMO an old store can stay pending while
// rename advances arbitrarily, so add grows the ring whenever a live
// entry would collide.
type storeRegBuffer struct {
	entries []srbEntry
	mask    int64
}

func newStoreRegBuffer(span int) *storeRegBuffer {
	n := 1
	for n < span {
		n <<= 1
	}
	return &storeRegBuffer{entries: make([]srbEntry, n), mask: int64(n - 1)}
}

func (s *storeRegBuffer) add(e srbEntry) {
	for s.entries[e.ssn&s.mask].ssn != 0 {
		s.grow()
	}
	s.entries[e.ssn&s.mask] = e
}

// grow re-places every live entry into a larger ring, doubling until no
// two live SSNs share a slot.
func (s *storeRegBuffer) grow() {
	old := s.entries
	size := 2 * len(old)
retry:
	for {
		entries := make([]srbEntry, size)
		mask := int64(size - 1)
		for i := range old {
			if old[i].ssn == 0 {
				continue
			}
			if entries[old[i].ssn&mask].ssn != 0 {
				size *= 2
				continue retry
			}
			entries[old[i].ssn&mask] = old[i]
		}
		s.entries, s.mask = entries, mask
		return
	}
}

func (s *storeRegBuffer) get(ssn int64) *srbEntry {
	if e := &s.entries[ssn&s.mask]; e.ssn == ssn {
		return e
	}
	return nil
}

func (s *storeRegBuffer) remove(ssn int64) {
	if e := &s.entries[ssn&s.mask]; e.ssn == ssn {
		*e = srbEntry{}
	}
}

// dropYoungerThan removes squashed stores (SSN > keep) during recovery.
func (s *storeRegBuffer) dropYoungerThan(keep int64) {
	for i := range s.entries {
		if s.entries[i].ssn > keep {
			s.entries[i] = srbEntry{}
		}
	}
}

// forwardValue computes the value a load obtains when store entry st
// forwards to it (wraps trace.ForwardValue for call sites holding trace
// entries).
func forwardValue(st, ld *trace.Entry) uint32 { return trace.ForwardValue(st, ld) }
