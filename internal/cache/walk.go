package cache

// memSide receives what a tag walk sends past the tag arrays. The timed
// Hierarchy schedules it on MSHRs and DRAM; functional warming
// (untimed) has no timing and drops it.
type memSide interface {
	// miss is called on an L1 demand miss, before L2 is probed.
	miss()
	// writeback sends a dirty L2 victim to DRAM.
	writeback(addr uint32)
	// fill starts the fill of lineAddr into L1, found in L2 (l2hit) or
	// fetched from DRAM; demand is false for a prefetch.
	fill(lineAddr uint32, l2hit, demand bool)
	// mayPrefetch reports whether a next-line prefetch of lineAddr,
	// absent from L1, issues.
	mayPrefetch(lineAddr uint32) bool
}

// walk is the one definition of how a demand access changes L1 and L2
// tag state, shared by the timed Hierarchy.Access and functional
// warming (Walk): L1 is accessed with fill and a dirty L1 victim is
// written back into L2; on an L1 miss L2 is probed and filled; with
// next-line prefetch, the next line, when absent from L1, is filled
// through L2 into L1. It reports whether the access hit L1.
func walk(l1, l2 *Cache, addr uint32, write, prefetch bool, m memSide) bool {
	if accessL1(l1, l2, addr, write, m) {
		return true
	}
	m.miss()
	lineAddr := l1.LineAddr(addr)
	fillL2(l2, addr, lineAddr, true, m)
	if next := lineAddr + uint32(l1.cfg.LineBytes); prefetch && !l1.Lookup(next) && m.mayPrefetch(next) {
		fillL2(l2, next, next, false, m)
		accessL1(l1, l2, next, false, m)
	}
	return false
}

// accessL1 accesses l1 with fill, writing a dirty victim back into l2.
func accessL1(l1, l2 *Cache, addr uint32, write bool, m memSide) bool {
	hit, wbAddr, wb := l1.access(addr, write, true)
	if wb {
		if _, wb2Addr, wb2 := l2.access(wbAddr, true, true); wb2 {
			m.writeback(wb2Addr)
		}
	}
	return hit
}

// fillL2 reads the line holding addr through l2 on its way into L1.
func fillL2(l2 *Cache, addr, lineAddr uint32, demand bool, m memSide) {
	hit, wbAddr, wb := l2.access(addr, false, true)
	if wb {
		m.writeback(wbAddr)
	}
	m.fill(lineAddr, hit, demand)
}

// untimed is functional warming's memSide: no MSHRs, so no stall and no
// prefetch is ever suppressed, and no DRAM.
type untimed struct{}

func (untimed) miss()                   {}
func (untimed) writeback(uint32)        {}
func (untimed) fill(uint32, bool, bool) {}
func (untimed) mayPrefetch(uint32) bool { return true }

// Walk changes the tag state of l1 (over l2) for one access exactly as
// Hierarchy.Access does, without timing: the functional-warming entry
// point. With no MSHRs modelled, an access to a line in flight does not
// merge and MSHR occupancy never suppresses a prefetch. Counters
// accumulate as usual; warm callers discard them.
func Walk(l1, l2 *Cache, addr uint32, write, prefetch bool) {
	walk(l1, l2, addr, write, prefetch, untimed{})
}
