// Package cache models the data cache hierarchy: a VIPT L1 (the paper
// reads the data and tag arrays in parallel with the TLB lookup, so
// non-bypassing loads pay no extra translation latency) backed by a
// unified L2 and DRAM, with MSHR-style merging of outstanding misses.
// Timing is returned as absolute completion cycles so the trace-driven
// core can schedule wakeups deterministically.
package cache

import (
	"dmdp/internal/dram"
)

// Config describes one cache level.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	Latency   int64 // access (hit) latency in cycles
	MSHRs     int   // max outstanding misses (0 = unlimited)
}

type line struct {
	tag   uint32
	valid bool
	dirty bool
	used  int64 // LRU timestamp
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg Config
	// lines holds every set back to back: set si is
	// lines[si*Ways : (si+1)*Ways]. One pointer-free allocation per level
	// keeps construction cheap and gives the GC nothing to scan.
	lines    []line
	numSets  uint32
	setShift uint
	setMask  uint32
	tick     int64

	// Stats.
	Accesses, Misses, Evictions, Writebacks, Invalidations int64
}

// NewCache builds a cache level; size/line/ways must be powers of two and
// consistent.
func NewCache(cfg Config) *Cache {
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, numSets*cfg.Ways),
		numSets:  uint32(numSets),
		setShift: uint(log2(cfg.LineBytes)),
		setMask:  uint32(numSets - 1),
	}
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func (c *Cache) setIndex(addr uint32) uint32 { return addr >> c.setShift & c.setMask }
func (c *Cache) tagOf(addr uint32) uint32    { return addr >> c.setShift / c.numSets }

// set returns the ways of set si.
func (c *Cache) set(si uint32) []line {
	w := uint32(c.cfg.Ways)
	return c.lines[si*w : si*w+w]
}

// LineAddr returns the line-aligned address.
func (c *Cache) LineAddr(addr uint32) uint32 {
	return addr &^ uint32(c.cfg.LineBytes-1)
}

// Lookup probes without modifying replacement state.
func (c *Cache) Lookup(addr uint32) bool {
	set := c.set(c.setIndex(addr))
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// access touches the line; returns hit and, on fill, whether a dirty line
// was evicted (with its reconstructed address for the writeback).
func (c *Cache) access(addr uint32, write bool, fill bool) (hit bool, wbAddr uint32, wb bool) {
	c.tick++
	c.Accesses++
	si := c.setIndex(addr)
	set := c.set(si)
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.tick
			if write {
				set[i].dirty = true
			}
			return true, 0, false
		}
	}
	c.Misses++
	if !fill {
		return false, 0, false
	}
	// Fill: evict LRU.
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].valid {
		c.Evictions++
		if set[victim].dirty {
			c.Writebacks++
			wb = true
			wbAddr = (set[victim].tag*c.numSets + si) << c.setShift
		}
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, used: c.tick}
	return false, wbAddr, wb
}

// Invalidate drops the line containing addr (consistency hook). It
// reports whether the line was present.
func (c *Cache) Invalidate(addr uint32) bool {
	set := c.set(c.setIndex(addr))
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i] = line{}
			c.Invalidations++
			return true
		}
	}
	return false
}

// MissRate returns Misses/Accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// mshr tracks one outstanding line fill.
type mshr struct {
	lineAddr uint32
	readyAt  int64
}

// Hierarchy is the L1D + L2 + DRAM stack used by the cores.
type Hierarchy struct {
	L1D  *Cache
	L2   *Cache
	DRAM *dram.DRAM

	outstanding []mshr
	maxMSHRs    int
	prefetch    bool
	// at is the cycle the walk in progress issues its L2 and DRAM
	// traffic at (the access cycle, or later after an MSHR stall);
	// ready is its demand fill's completion cycle.
	at, ready int64

	// Stats.
	L1Hits, L2Hits, DRAMFills, MSHRMerges, MSHRStalls, Prefetches int64
}

// HierarchyConfig collects the whole stack's parameters.
type HierarchyConfig struct {
	L1D  Config
	L2   Config
	DRAM dram.Config
	// NextLinePrefetch issues a tagged next-line prefetch on every L1
	// demand miss (sequential streams hide most of their miss latency).
	NextLinePrefetch bool
}

// DefaultHierarchyConfig mirrors the paper's 4-cycle L1 access and a
// contemporary L2/DRAM behind it.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:  Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, Latency: 4, MSHRs: 16},
		L2:   Config{SizeBytes: 2 << 20, LineBytes: 64, Ways: 8, Latency: 12},
		DRAM: dram.DefaultConfig(),
	}
}

// NewHierarchy builds the full stack.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return NewHierarchyOver(cfg, NewCache(cfg.L2), dram.New(cfg.DRAM))
}

// NewHierarchyOver builds a private L1D over the given L2 and DRAM, which
// several hierarchies may share (a multicore machine's shared L2). The L2
// and DRAM fields of cfg are not used.
func NewHierarchyOver(cfg HierarchyConfig, l2 *Cache, d *dram.DRAM) *Hierarchy {
	return &Hierarchy{
		L1D:      NewCache(cfg.L1D),
		L2:       l2,
		DRAM:     d,
		maxMSHRs: cfg.L1D.MSHRs,
		prefetch: cfg.NextLinePrefetch,
	}
}

// Access performs a data access at cycle now and returns the absolute
// cycle at which the data is available (for loads) or accepted (for
// stores). Write misses allocate (write-allocate, write-back).
//
// Latency model: L1 hit = L1 latency; L2 hit = L1 + L2 latency; otherwise
// the DRAM completion time. The L1 tag is filled at access time but the
// line is tracked in an MSHR until its data returns, so accesses to a line
// in flight merge with (and wait for) the outstanding fill. Every other
// access changes tag state through walk, the same walk functional
// warming runs (Walk).
func (h *Hierarchy) Access(now int64, addr uint32, write bool) int64 {
	lineAddr := h.L1D.LineAddr(addr)
	h.pruneMSHRs(now)
	for _, m := range h.outstanding {
		if m.lineAddr == lineAddr {
			// The line is being filled: merge. Touch the L1 for
			// replacement/dirty state. The pre-filled tag may have been
			// evicted meanwhile, so the refill can push out a dirty
			// victim, which goes to L2 like any other write-back.
			h.at = now
			accessL1(h.L1D, h.L2, addr, write, h)
			h.MSHRMerges++
			done := m.readyAt
			if min := now + h.L1D.cfg.Latency; done < min {
				done = min
			}
			return done
		}
	}
	h.at = now
	if walk(h.L1D, h.L2, addr, write, h.prefetch, h) {
		h.L1Hits++
		return now + h.L1D.cfg.Latency
	}
	return h.ready
}

// miss implements memSide: a demand miss needs an MSHR; when all are
// busy it waits for the earliest to free, and everything after the
// L1 probe starts then.
func (h *Hierarchy) miss() {
	if h.maxMSHRs == 0 || len(h.outstanding) < h.maxMSHRs {
		return
	}
	h.MSHRStalls++
	earliest := h.outstanding[0].readyAt
	for _, m := range h.outstanding[1:] {
		if m.readyAt < earliest {
			earliest = m.readyAt
		}
	}
	h.at = earliest
	h.pruneMSHRsAt(earliest)
}

// writeback implements memSide: a dirty L2 victim occupies a DRAM bank
// but is not waited on.
func (h *Hierarchy) writeback(addr uint32) { h.DRAM.Access(h.at, addr, true) }

// fill implements memSide: an MSHR tracks the line until its data
// returns from L2 or DRAM, so a later access merges with it.
func (h *Hierarchy) fill(lineAddr uint32, l2hit, demand bool) {
	var ready int64
	if l2hit {
		if demand {
			h.L2Hits++
		}
		ready = h.at + h.L1D.cfg.Latency + h.L2.cfg.Latency
	} else {
		if demand {
			h.DRAMFills++
		}
		ready = h.DRAM.Access(h.at+h.L1D.cfg.Latency+h.L2.cfg.Latency, lineAddr, false)
	}
	h.outstanding = append(h.outstanding, mshr{lineAddr: lineAddr, readyAt: ready})
	if demand {
		h.ready = ready
	}
}

// mayPrefetch implements memSide: a next-line prefetch is dropped when
// the line is already in flight or every MSHR is busy (it never stalls
// a demand access).
func (h *Hierarchy) mayPrefetch(lineAddr uint32) bool {
	for _, m := range h.outstanding {
		if m.lineAddr == lineAddr {
			return false
		}
	}
	if h.maxMSHRs > 0 && len(h.outstanding) >= h.maxMSHRs {
		return false
	}
	h.Prefetches++
	return true
}

func (h *Hierarchy) pruneMSHRs(now int64) { h.pruneMSHRsAt(now) }

func (h *Hierarchy) pruneMSHRsAt(now int64) {
	kept := h.outstanding[:0]
	for _, m := range h.outstanding {
		if m.readyAt > now {
			kept = append(kept, m)
		}
	}
	h.outstanding = kept
}

// Invalidate drops the line from both levels (consistency hook) and
// reports whether it was present in L1.
func (h *Hierarchy) Invalidate(addr uint32) bool {
	inL1 := h.L1D.Invalidate(addr)
	h.L2.Invalidate(addr)
	return inL1
}

// L1Latency exposes the L1 hit latency (the paper's constant 4-cycle
// cache/SQ/SB access time).
func (h *Hierarchy) L1Latency() int64 { return h.L1D.cfg.Latency }

// LineBytes returns the L1 line size.
func (h *Hierarchy) LineBytes() int { return h.L1D.cfg.LineBytes }
