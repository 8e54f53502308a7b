package cache

import (
	"encoding/binary"
	"fmt"
)

// Functional-warming support: the warm package drives a Cache as a pure
// tag-state model (WarmAccess) and snapshots/restores that state through
// a canonical byte encoding (AppendWarmState/LoadWarmState). The encoding
// is rank-normalized: ways are serialized oldest-to-youngest by LRU
// timestamp and reloaded with used = 1..k, so only the *relative*
// recency order — the part of the state that determines every future
// replacement decision — survives the round trip. Serialize-then-load is
// therefore behavior-preserving, and two states with equal tag content
// and equal recency order encode to identical bytes regardless of the
// absolute tick values they were built with.

// WarmAccess performs one functional (timing-free) access with fill: the
// tag, dirty and LRU state change exactly as in the timed access path,
// and the dirty-eviction writeback address is reported so a caller can
// propagate it down the hierarchy. Counters accumulate as usual; warm
// callers discard them.
func (c *Cache) WarmAccess(addr uint32, write bool) (hit bool, wbAddr uint32, wb bool) {
	return c.access(addr, write, true)
}

// warmLineBytes is the serialized size of one valid line.
const warmLineBytes = 4 + 1 // tag + dirty flag

// WarmStateLen returns the maximum encoded warm-state size for this
// cache (every set full).
func (c *Cache) WarmStateLen() int {
	return int(c.numSets) * (1 + c.cfg.Ways*warmLineBytes)
}

// AppendWarmState appends the canonical warm encoding: per set, a count
// byte followed by the valid ways oldest-to-youngest, each as tag (4 LE
// bytes) and a dirty flag byte.
func (c *Cache) AppendWarmState(buf []byte) []byte {
	var orderBuf [64]int // way indices sorted by used; Ways is small
	order := orderBuf[:]
	if c.cfg.Ways > len(order) {
		order = make([]int, c.cfg.Ways)
	}
	for si := uint32(0); si < c.numSets; si++ {
		set := c.set(si)
		n := 0
		for i := range set {
			if !set[i].valid {
				continue
			}
			// Insertion sort by LRU timestamp, oldest first.
			j := n
			for j > 0 && set[order[j-1]].used > set[i].used {
				order[j] = order[j-1]
				j--
			}
			order[j] = i
			n++
		}
		buf = append(buf, byte(n))
		for k := 0; k < n; k++ {
			l := &set[order[k]]
			buf = binary.LittleEndian.AppendUint32(buf, l.tag)
			d := byte(0)
			if l.dirty {
				d = 1
			}
			buf = append(buf, d)
		}
	}
	return buf
}

// LoadWarmState replaces the cache's tag state with the encoded state
// and returns the number of bytes consumed. The geometry must match the
// cache the state was captured from; any structural mismatch is an
// error and leaves no partial state behind the caller should trust.
// Counters are untouched.
func (c *Cache) LoadWarmState(buf []byte) (int, error) {
	off := 0
	for si := uint32(0); si < c.numSets; si++ {
		set := c.set(si)
		if off >= len(buf) {
			return 0, fmt.Errorf("cache: warm state truncated at set %d", si)
		}
		n := int(buf[off])
		off++
		if n > c.cfg.Ways {
			return 0, fmt.Errorf("cache: warm state set %d holds %d ways (cache has %d)", si, n, c.cfg.Ways)
		}
		if off+n*warmLineBytes > len(buf) {
			return 0, fmt.Errorf("cache: warm state truncated in set %d", si)
		}
		for i := range set {
			set[i] = line{}
		}
		for k := 0; k < n; k++ {
			if d := buf[off+4]; d > 1 {
				return 0, fmt.Errorf("cache: warm state set %d has dirty byte %d", si, d)
			}
			set[k] = line{
				tag:   binary.LittleEndian.Uint32(buf[off:]),
				valid: true,
				dirty: buf[off+4] == 1,
				used:  int64(k + 1),
			}
			off += warmLineBytes
		}
	}
	c.tick = int64(c.cfg.Ways)
	return off, nil
}

// CopyWarmFrom transplants src's tag state into c (both caches must
// share a geometry). Counters are untouched; the copy is exact, so a
// state loaded from canonical bytes installs without re-normalizing.
func (c *Cache) CopyWarmFrom(src *Cache) {
	copy(c.lines, src.lines)
	c.tick = src.tick
}
