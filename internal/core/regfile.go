package core

import (
	"fmt"

	"dmdp/internal/isa"
)

// physReg is one physical register's bookkeeping state. DMDP extends the
// conventional lifetime rules (paper §IV-B): a register may be defined
// more than once (memory cloaking, the two CMOVs sharing a destination),
// tracked by the producer counter, and may be read after its last
// definition retires (store data/address registers read at commit,
// predication MicroOps reading in-flight store registers), tracked by the
// consumer counter. A register frees only when both counters are zero.
type physReg struct {
	ready     bool
	readyAt   int64 // cycle the value became available
	producers int   // live definitions
	consumers int   // outstanding late readers (stores pending commit, predication uops)
	free      bool

	// The uops stalled on this register: an intrusive FIFO list threaded
	// through their wait links (Core.await).
	whead, wtail waitRef
}

// refErr records a reference-count underflow observed by maybeFree; the
// core surfaces it as a structured SimError attributed to the
// instruction whose release triggered it (see Core.checkRefs).
type refErr struct {
	p                    int
	producers, consumers int
}

// regFile is the physical register file plus the speculative and
// architectural rename tables and the free list.
type regFile struct {
	regs     []physReg
	rat      [isa.NumLogicalRegs]int // speculative map
	arat     [isa.NumLogicalRegs]int // architectural (retired) map
	freeList []int                   // freeList[:nFree] are the free registers
	nFree    int

	// badRef holds the first refcount underflow until the core collects
	// it (nil when the counters are consistent).
	badRef *refErr
}

func newRegFile(n int) *regFile {
	rf := &regFile{regs: make([]physReg, n), freeList: make([]int, n)}
	// Logical registers start mapped to p0..p34, ready and live.
	for l := 0; l < isa.NumLogicalRegs; l++ {
		rf.rat[l] = l
		rf.arat[l] = l
		rf.regs[l] = physReg{ready: true, producers: 1}
	}
	for p := n - 1; p >= isa.NumLogicalRegs; p-- {
		rf.regs[p].free = true
		rf.pushFree(p)
	}
	return rf
}

// freeCount returns the number of allocatable registers.
func (rf *regFile) freeCount() int { return rf.nFree }

// pushFree adds p to the free list. The list is allocated at the file
// size, so it never grows and allocating never rewrites its header.
func (rf *regFile) pushFree(p int) {
	rf.freeList[rf.nFree] = p
	rf.nFree++
}

// alloc takes a register from the free list with one producer.
func (rf *regFile) alloc() int {
	rf.nFree--
	p := rf.freeList[rf.nFree]
	rf.regs[p] = physReg{free: false, producers: 1}
	return p
}

// addProducer registers an additional definition of p (cloaking, second
// CMOV).
func (rf *regFile) addProducer(p int) { rf.regs[p].producers++ }

// addConsumer extends p's lifetime past release (store regs pending
// commit, predication reads).
func (rf *regFile) addConsumer(p int) { rf.regs[p].consumers++ }

// dropConsumer releases one late-reader reference, freeing p if dead.
func (rf *regFile) dropConsumer(p int) {
	rf.regs[p].consumers--
	rf.maybeFree(p)
}

// dropProducer virtually releases one definition of p (at retire of the
// redefining instruction), freeing p if dead.
func (rf *regFile) dropProducer(p int) {
	rf.regs[p].producers--
	rf.maybeFree(p)
}

func (rf *regFile) maybeFree(p int) {
	r := &rf.regs[p]
	if r.producers < 0 || r.consumers < 0 {
		// Record the underflow (first wins) instead of panicking; the
		// register is left un-freed so the state stays inspectable.
		if rf.badRef == nil {
			rf.badRef = &refErr{p: p, producers: r.producers, consumers: r.consumers}
		}
		return
	}
	if r.producers == 0 && r.consumers == 0 && !r.free {
		r.free = true
		rf.pushFree(p)
	}
}

// setReady marks p's value available at cycle and detaches its waiter
// list, returning the first waiter (0 = none). The caller walks the list
// — safe because nothing waits on a ready register, and p cannot be
// re-allocated mid-writeback (only rename allocates).
func (rf *regFile) setReady(p int, cycle int64) waitRef {
	r := &rf.regs[p]
	r.ready = true
	r.readyAt = cycle
	w := r.whead
	r.whead, r.wtail = 0, 0
	return w
}

// resetToARAT rebuilds the speculative state from the architectural map
// after a full-pipeline recovery: the RAT becomes the ARAT, producer
// counts are recomputed from ARAT occupancy, consumer counts are
// recomputed from the surviving late readers (the store buffer's pending
// data/address registers, passed in by the caller), and everything else
// returns to the free list, ready.
func (rf *regFile) resetToARAT(sbRefs []int) {
	rf.rat = rf.arat
	for p := range rf.regs {
		rf.regs[p].producers = 0
		rf.regs[p].consumers = 0
		rf.regs[p].whead, rf.regs[p].wtail = 0, 0
	}
	for _, p := range rf.arat {
		rf.regs[p].producers++
	}
	for _, p := range sbRefs {
		rf.regs[p].consumers++
	}
	rf.nFree = 0
	for p := len(rf.regs) - 1; p >= 0; p-- {
		r := &rf.regs[p]
		r.free = r.producers == 0 && r.consumers == 0
		r.ready = true
		if r.free {
			rf.pushFree(p)
		}
	}
}

// checkInvariants panics when reference counting is inconsistent (used by
// tests via Core.CheckInvariants).
func (rf *regFile) checkInvariants() error {
	if b := rf.badRef; b != nil {
		return fmt.Errorf("core: negative refcount on p%d (%d/%d)", b.p, b.producers, b.consumers)
	}
	seen := make(map[int]bool, rf.nFree)
	for _, p := range rf.freeList[:rf.nFree] {
		if seen[p] {
			return fmt.Errorf("core: p%d on free list twice", p)
		}
		seen[p] = true
		if !rf.regs[p].free {
			return fmt.Errorf("core: p%d on free list but not marked free", p)
		}
		if rf.regs[p].producers != 0 || rf.regs[p].consumers != 0 {
			return fmt.Errorf("core: free p%d has refs %d/%d", p, rf.regs[p].producers, rf.regs[p].consumers)
		}
	}
	for l, p := range rf.rat {
		if rf.regs[p].free {
			return fmt.Errorf("core: RAT[%d] -> free p%d", l, p)
		}
	}
	for l, p := range rf.arat {
		if rf.regs[p].free {
			return fmt.Errorf("core: ARAT[%d] -> free p%d", l, p)
		}
	}
	return nil
}
