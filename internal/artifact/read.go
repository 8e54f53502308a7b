package artifact

import (
	"os"
	"sync/atomic"
)

// readEntireOwned reads the whole file into an owned buffer. Store
// entries whose decoders copy everything out of the raw bytes —
// checkpoints, plans, stats — must use this instead of readEntire: the
// mmap-backed readEntire is deliberately never unmapped (decoded traces
// alias the mapping for the process lifetime), so routing high-frequency
// loads through it — one checkpoint restore per interval per sampled
// run — leaks a mapping per read until the kernel's vm.max_map_count is
// exhausted, at which point the Go runtime aborts on its next heap
// mapping. An empty file reads as (empty, true): a corrupt cache entry
// for the decoder to reject, not a miss.
func readEntireOwned(path string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	return data, true
}

// load reads the record file at path and hands it to decode, which
// reports whether the bytes are a well-formed record. A missing file
// counts a miss; a file decode rejects is dropped as corrupt and counts
// a miss; an accepted one counts a hit and refreshes the file's LRU
// mtime.
func (s *Store) load(path string, hits, misses *atomic.Int64, decode func(buf []byte) bool) bool {
	buf, ok := readEntireOwned(path)
	if !ok {
		misses.Add(1)
		return false
	}
	if !decode(buf) {
		s.drop(path)
		misses.Add(1)
		return false
	}
	hits.Add(1)
	s.bytesRead.Add(int64(len(buf)))
	s.touch(path)
	return true
}
