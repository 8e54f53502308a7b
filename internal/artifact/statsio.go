package artifact

import "dmdp/internal/core"

// Result store format v1 ("DMDPRES1").
//
//	[8] magic+version  [4] CRC32C of the payload (see frame)
//	payload: one canonical core.Stats encoding (fixed width; see
//	core.MarshalCanonical). The stats schema version is part of the
//	cache key, not the file, so a schema bump changes keys and the old
//	files simply age out.
var resultMagic = [8]byte{'D', 'M', 'D', 'P', 'R', 'E', 'S', '1'}

const resultSuffix = ".stats"

func encodeStats(st *core.Stats) []byte {
	return frame(resultMagic, st.MarshalCanonical())
}

func decodeStats(buf []byte) *core.Stats {
	payload, ok := unframe(resultMagic, buf)
	if !ok {
		return nil
	}
	st, err := core.UnmarshalCanonicalStats(payload)
	if err != nil {
		return nil
	}
	return st
}

// LoadStats fetches the simulation result stored under key, or
// (nil, "", false) on any miss. The returned path names the file the
// entry was read from (for verify-mode diagnostics). Corrupt entries
// are deleted in read-write modes.
func (s *Store) LoadStats(key Key) (*core.Stats, string, bool) {
	if s == nil {
		return nil, "", false
	}
	path := s.path(key, resultSuffix)
	var st *core.Stats
	if !s.load(path, &s.resultHits, &s.resultMisses, func(buf []byte) bool {
		st = decodeStats(buf)
		return st != nil
	}) {
		return nil, "", false
	}
	return st, path, true
}

// StoreStats persists st under key (no-op for nil or read-only stores).
// Callers must not persist failed or fault-injected runs — the store
// cannot tell them apart from clean ones.
func (s *Store) StoreStats(key Key, st *core.Stats) {
	if !s.writable() || st == nil {
		return
	}
	s.publish(s.path(key, resultSuffix), encodeStats(st))
}
