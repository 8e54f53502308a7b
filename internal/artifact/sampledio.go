package artifact

import (
	"crypto/sha256"
	"encoding/binary"

	"dmdp/internal/config"
	"dmdp/internal/core"
)

// Sampled-run store format v1 ("DMDPSMP1").
//
//	[8] magic+version  [4] CRC32C of the payload (see frame)
//	payload: one canonical sampling.Combined encoding (see
//	sampling.Combined.MarshalCanonical): per interval, in plan order,
//	the bounds, the weight bits and a canonical core.Stats encoding,
//	then the weighted aggregates.
//
// The artifact layer treats the payload as opaque bytes; the sampling
// package owns the layout and validates it on load.
var sampledMagic = [8]byte{'D', 'M', 'D', 'P', 'S', 'M', 'P', '1'}

const sampledSuffix = ".sampled"

// SampledKey derives the store key for one sampled run of the trace
// identified by traceKey: the trace key, the config digest, the budget,
// the canonical sampling spec string, the functional-warming flag, the
// planner version and the stats schema version. Checkpoint reuse does
// not change a sampled result, so it is not part of the key.
func SampledKey(traceKey Key, cfg config.Digest, budget int64, spec string, warm bool, plannerVersion int64) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-sampled\x00"))
	h.Write(sampledMagic[:])
	h.Write(traceKey[:])
	h.Write(cfg[:])
	var b [25]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(budget))
	binary.LittleEndian.PutUint64(b[8:16], uint64(plannerVersion))
	binary.LittleEndian.PutUint64(b[16:24], core.StatsSchemaVersion)
	if warm {
		b[24] = 1
	}
	h.Write(b[:])
	h.Write([]byte(spec))
	var k Key
	h.Sum(k[:0])
	return k
}

// LoadSampled reads the sampled-run record stored under key and hands
// its payload to decode, which must copy what it keeps and report
// whether the payload is well formed. It returns the file the record
// was read from, or ("", false) on any miss. Sampled lookups count as
// result hits and misses; a payload decode rejects is corrupt: deleted
// in read-write modes and counted as a miss.
func (s *Store) LoadSampled(key Key, decode func(payload []byte) bool) (string, bool) {
	if s == nil {
		return "", false
	}
	path := s.path(key, sampledSuffix)
	if !s.load(path, &s.resultHits, &s.resultMisses, func(buf []byte) bool {
		payload, ok := unframe(sampledMagic, buf)
		return ok && decode(payload)
	}) {
		return "", false
	}
	return path, true
}

// StoreSampled persists a sampled run's canonical encoding under key
// (no-op for nil or read-only stores). Callers must not persist failed,
// cancelled or fault-injected runs, nor warmed runs that cold-started
// an interval (their result depends on which warm records the store
// held).
func (s *Store) StoreSampled(key Key, canonical []byte) {
	if !s.writable() || canonical == nil {
		return
	}
	s.publish(s.path(key, sampledSuffix), encodeSampled(canonical))
}

func encodeSampled(canonical []byte) []byte { return frame(sampledMagic, canonical) }
