package artifact

import (
	"crypto/sha256"
	"encoding/binary"
)

// Warm-state store format v2 checkpoint companion ("DMDPCKP2").
//
//	[8] magic+version  [4] CRC32C of the payload (see frame)
//	payload:
//	  [8] at  [8] baseAt (two's complement; -1 = self-contained frame)
//	  rest: warm blob — a full warm snapshot when baseAt < 0, otherwise a
//	  block delta (internal/warm) against the snapshot stored at baseAt
//
// Warm state rides next to the DMDPCKP1 architectural checkpoints: one
// record per planned checkpoint boundary, delta-compressed against the
// previous boundary's snapshot with periodic keyframes so a lost or
// corrupt record only costs cold-starting the intervals that needed it
// — never a wrong simulation. The artifact layer treats the blob as
// opaque bytes; the warm package owns the snapshot and delta formats.
var warmMagic = [8]byte{'D', 'M', 'D', 'P', 'C', 'K', 'P', '2'}

const (
	warmSuffix = ".warm"
	warmFixed  = 8 + 8
)

// WarmRecord is one boundary's persisted warm state.
type WarmRecord struct {
	// At is the instruction index of the boundary the state was captured
	// at.
	At int64
	// BaseAt is the boundary whose snapshot the payload is a delta
	// against, or -1 when the payload is a self-contained snapshot.
	BaseAt int64
	// Payload is the warm snapshot or delta bytes (opaque here).
	Payload []byte
}

// WarmKey derives the warm-state store key for the functional warm
// state at instruction index at of the trace identified by traceKey,
// captured by a warmer with the given parameter digest (warm-relevant
// configuration plus format version — see warm.Config.ParamsHash).
func WarmKey(traceKey Key, at int64, params [sha256.Size]byte) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-warm\x00"))
	h.Write(warmMagic[:])
	h.Write(traceKey[:])
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(at))
	h.Write(b[:])
	h.Write(params[:])
	var k Key
	h.Sum(k[:0])
	return k
}

func encodeWarm(r *WarmRecord) []byte {
	payload := make([]byte, 0, warmFixed+len(r.Payload))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(r.At))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(r.BaseAt))
	payload = append(payload, r.Payload...)
	return frame(warmMagic, payload)
}

func decodeWarm(buf []byte) *WarmRecord {
	payload, ok := unframe(warmMagic, buf)
	if !ok || len(payload) < warmFixed {
		return nil
	}
	r := &WarmRecord{
		At:     int64(binary.LittleEndian.Uint64(payload[0:8])),
		BaseAt: int64(binary.LittleEndian.Uint64(payload[8:16])),
	}
	if r.At < 0 || (r.BaseAt < 0 && r.BaseAt != -1) || r.BaseAt >= r.At && r.BaseAt != -1 {
		return nil
	}
	r.Payload = append([]byte(nil), payload[warmFixed:]...)
	return r
}

// LoadWarm fetches the warm-state record stored under key, or
// (nil, false) on any miss. Corrupt entries are deleted in read-write
// modes and count as misses — the sampling layer degrades the affected
// intervals to cold starts.
func (s *Store) LoadWarm(key Key) (*WarmRecord, bool) {
	if s == nil {
		return nil, false
	}
	path := s.path(key, warmSuffix)
	var r *WarmRecord
	if !s.load(path, &s.warmHits, &s.warmMisses, func(buf []byte) bool {
		r = decodeWarm(buf)
		return r != nil
	}) {
		return nil, false
	}
	s.warmBytes.Add(int64(len(r.Payload)))
	return r, true
}

// StoreWarm persists r under key (no-op for nil or read-only stores).
func (s *Store) StoreWarm(key Key, r *WarmRecord) {
	if !s.writable() || r == nil {
		return
	}
	s.publish(s.path(key, warmSuffix), encodeWarm(r))
}
