package cache

import (
	"bytes"
	"math/rand"
	"testing"
)

// refCache is a straightforward reference model: per-set LRU lists.
type refCache struct {
	lineBytes int
	ways      int
	sets      map[uint32][]uint32 // set index -> line addrs, MRU first
	numSets   uint32
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		lineBytes: cfg.LineBytes,
		ways:      cfg.Ways,
		numSets:   uint32(cfg.SizeBytes / cfg.LineBytes / cfg.Ways),
		sets:      make(map[uint32][]uint32),
	}
}

func (r *refCache) access(addr uint32) bool {
	line := addr &^ uint32(r.lineBytes-1)
	si := (line / uint32(r.lineBytes)) % r.numSets
	set := r.sets[si]
	for i, l := range set {
		if l == line {
			// Move to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	// Miss: insert at MRU, evict LRU.
	set = append([]uint32{line}, set...)
	if len(set) > r.ways {
		set = set[:r.ways]
	}
	r.sets[si] = set
	return false
}

// TestCacheMatchesReferenceLRU drives the cache and the reference model
// with identical random access streams and requires identical hit/miss
// sequences.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	cfg := Config{SizeBytes: 2048, LineBytes: 64, Ways: 2, Latency: 1}
	c := NewCache(cfg)
	ref := newRefCache(cfg)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		addr := uint32(r.Intn(1 << 14))
		hit, _, _ := c.access(addr, r.Intn(3) == 0, true)
		want := ref.access(addr)
		if hit != want {
			t.Fatalf("access %d addr 0x%x: cache hit=%v, reference=%v", i, addr, hit, want)
		}
	}
	if c.Accesses != 20000 {
		t.Fatalf("accesses %d", c.Accesses)
	}
}

// TestHierarchyMonotoneTime: completion times never precede the request.
func TestHierarchyMonotoneTime(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	r := rand.New(rand.NewSource(5))
	now := int64(0)
	for i := 0; i < 5000; i++ {
		addr := uint32(r.Intn(1 << 22))
		done := h.Access(now, addr, r.Intn(4) == 0)
		if done < now {
			t.Fatalf("completion %d before request %d", done, now)
		}
		if r.Intn(2) == 0 {
			now = done
		} else {
			now += int64(r.Intn(10))
		}
	}
}

// TestWalkMatchesTimedAccess: with no fill in flight, the timed
// Hierarchy.Access and functional warming's Walk change L1 and L2 tag
// state identically, prefetch on and off. Small caches make dirty
// evictions, L2 victims and prefetch fills frequent.
func TestWalkMatchesTimedAccess(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := DefaultHierarchyConfig()
			cfg.L1D = Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, Latency: 4, MSHRs: 4}
			cfg.L2 = Config{SizeBytes: 4096, LineBytes: 64, Ways: 4, Latency: 12}
			cfg.NextLinePrefetch = prefetch
			h := NewHierarchy(cfg)
			l1, l2 := NewCache(cfg.L1D), NewCache(cfg.L2)
			r := rand.New(rand.NewSource(seed))
			now := int64(0)
			for i := 0; i < 20000; i++ {
				addr := uint32(r.Intn(1 << 15))
				write := r.Intn(3) == 0
				h.Access(now, addr, write)
				Walk(l1, l2, addr, write, prefetch)
				// Advance past every outstanding fill so the next access
				// never merges with one (warming models no MSHRs).
				for _, m := range h.outstanding {
					if m.readyAt >= now {
						now = m.readyAt + 1
					}
				}
			}
			if h.Prefetches == 0 && prefetch {
				t.Fatalf("prefetch seed %d: no prefetch issued", seed)
			}
			if !bytes.Equal(h.L1D.AppendWarmState(nil), l1.AppendWarmState(nil)) {
				t.Fatalf("prefetch=%t seed %d: L1 tag state differs", prefetch, seed)
			}
			if !bytes.Equal(h.L2.AppendWarmState(nil), l2.AppendWarmState(nil)) {
				t.Fatalf("prefetch=%t seed %d: L2 tag state differs", prefetch, seed)
			}
		}
	}
}
