package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/mem"
)

// Checkpoint store format v1 ("DMDPCKP1").
//
//	[8] magic+version  [4] CRC32C of the payload (see frame)
//	payload:
//	  [8] at  [4] pc  [1] hasArch  [3] zero pad
//	  NumArchRegs x [4] regs
//	  [4] page count, then per page (ascending base address):
//	    [4] base  [PageSize] content
//
// Checkpoints are memory-image deltas plus architectural state; they are
// independently restorable, so corruption of one checkpoint only costs a
// longer roll-forward from an earlier one (or from the program start).
var checkpointMagic = [8]byte{'D', 'M', 'D', 'P', 'C', 'K', 'P', '1'}

// Plan store format v1 ("DMDPPLN1").
//
//	[8] magic+version  [4] CRC32C of the payload (see frame)
//	payload:
//	  [8] chunkLen  [8] total  [8] warmup  [1] hitHalt  [7] zero pad
//	  [8] interval count, then per interval: [8] start [8] end [8] weight bits
var planMagic = [8]byte{'D', 'M', 'D', 'P', 'P', 'L', 'N', '1'}

const (
	checkpointSuffix = ".ckpt"
	planSuffix       = ".plan"
)

// CheckpointKey derives the checkpoint-store key for the architectural
// state at instruction index start of the trace identified by traceKey
// (which already encodes workload, budget and trace format).
func CheckpointKey(traceKey Key, start int64) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-ckpt\x00"))
	h.Write(checkpointMagic[:])
	h.Write(traceKey[:])
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(start))
	h.Write(b[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// PlanKey derives the plan-store key for a sampling plan computed over
// the trace identified by traceKey with the given sampling spec string
// and planner algorithm version.
func PlanKey(traceKey Key, spec string, version int64) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-plan\x00"))
	h.Write(planMagic[:])
	h.Write(traceKey[:])
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(version))
	h.Write(b[:])
	h.Write([]byte(spec))
	var k Key
	h.Sum(k[:0])
	return k
}

func encodeCheckpoint(ck *emu.Checkpoint) []byte {
	bases := make([]uint32, 0, len(ck.Pages))
	for base := range ck.Pages {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	size := 8 + 4 + 4 + 4*isa.NumArchRegs + 4 + len(bases)*(4+mem.PageSize)
	payload := make([]byte, 0, size)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(ck.At))
	payload = binary.LittleEndian.AppendUint32(payload, ck.PC)
	hasArch := byte(0)
	if ck.HasArch {
		hasArch = 1
	}
	payload = append(payload, hasArch, 0, 0, 0)
	for _, r := range ck.Regs {
		payload = binary.LittleEndian.AppendUint32(payload, r)
	}
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(bases)))
	for _, base := range bases {
		payload = binary.LittleEndian.AppendUint32(payload, base)
		payload = append(payload, ck.Pages[base][:]...)
	}
	return frame(checkpointMagic, payload)
}

func decodeCheckpoint(buf []byte) *emu.Checkpoint {
	payload, ok := unframe(checkpointMagic, buf)
	if !ok {
		return nil
	}
	fixed := 8 + 4 + 4 + 4*isa.NumArchRegs + 4
	if len(payload) < fixed {
		return nil
	}
	ck := &emu.Checkpoint{
		At:      int64(binary.LittleEndian.Uint64(payload[0:8])),
		PC:      binary.LittleEndian.Uint32(payload[8:12]),
		HasArch: payload[12] == 1,
	}
	off := 16
	for i := range ck.Regs {
		ck.Regs[i] = binary.LittleEndian.Uint32(payload[off : off+4])
		off += 4
	}
	n := int(binary.LittleEndian.Uint32(payload[off : off+4]))
	off += 4
	if len(payload) != fixed+n*(4+mem.PageSize) {
		return nil
	}
	ck.Pages = make(map[uint32]*[mem.PageSize]byte, n)
	for i := 0; i < n; i++ {
		base := binary.LittleEndian.Uint32(payload[off : off+4])
		off += 4
		pg := new([mem.PageSize]byte)
		copy(pg[:], payload[off:off+mem.PageSize])
		off += mem.PageSize
		ck.Pages[base] = pg
	}
	return ck
}

// LoadCheckpoint fetches the checkpoint stored under key, or (nil, false)
// on any miss. Corrupt entries are deleted in read-write modes and count
// as misses — the sampling layer degrades to rolling forward from an
// earlier checkpoint (ultimately re-simulation from the start).
func (s *Store) LoadCheckpoint(key Key) (*emu.Checkpoint, bool) {
	if s == nil {
		return nil, false
	}
	path := s.path(key, checkpointSuffix)
	var ck *emu.Checkpoint
	ok := s.load(path, &s.ckptHits, &s.ckptMisses, func(buf []byte) bool {
		ck = decodeCheckpoint(buf)
		return ck != nil
	})
	return ck, ok
}

// StoreCheckpoint persists ck under key (no-op for nil or read-only
// stores).
func (s *Store) StoreCheckpoint(key Key, ck *emu.Checkpoint) {
	if !s.writable() || ck == nil {
		return
	}
	s.publish(s.path(key, checkpointSuffix), encodeCheckpoint(ck))
}

// PlanInterval is one sampled interval of a persisted plan, in trace
// entry indices. The artifact layer stores plans in this neutral form so
// it does not depend on the sampling package (which imports artifact).
type PlanInterval struct {
	Start, End int64
	Weight     float64
}

// PlanRecord is a persisted sampling plan plus the stream facts needed
// to reuse it without re-streaming the trace.
type PlanRecord struct {
	// ChunkLen is the BBV chunk length the plan was computed over.
	ChunkLen int64
	// Total is the number of instructions the plan's stream executed
	// (may be below the budget when the program halted).
	Total int64
	// Warmup is the per-interval warm-up length the plan was built for.
	Warmup int64
	// HitHalt reports whether the stream reached HALT before the budget.
	HitHalt   bool
	Intervals []PlanInterval
}

func encodePlan(p *PlanRecord) []byte {
	payload := make([]byte, 0, 40+24*len(p.Intervals))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(p.ChunkLen))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(p.Total))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(p.Warmup))
	hitHalt := byte(0)
	if p.HitHalt {
		hitHalt = 1
	}
	payload = append(payload, hitHalt, 0, 0, 0, 0, 0, 0, 0)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(p.Intervals)))
	for _, iv := range p.Intervals {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(iv.Start))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(iv.End))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(iv.Weight))
	}
	return frame(planMagic, payload)
}

func decodePlan(buf []byte) *PlanRecord {
	payload, ok := unframe(planMagic, buf)
	if !ok {
		return nil
	}
	const fixed = 40
	if len(payload) < fixed {
		return nil
	}
	p := &PlanRecord{
		ChunkLen: int64(binary.LittleEndian.Uint64(payload[0:8])),
		Total:    int64(binary.LittleEndian.Uint64(payload[8:16])),
		Warmup:   int64(binary.LittleEndian.Uint64(payload[16:24])),
		HitHalt:  payload[24] == 1,
	}
	n := int(binary.LittleEndian.Uint64(payload[32:40]))
	if n < 0 || len(payload) != fixed+24*n {
		return nil
	}
	p.Intervals = make([]PlanInterval, n)
	for i := range p.Intervals {
		off := fixed + 24*i
		p.Intervals[i] = PlanInterval{
			Start:  int64(binary.LittleEndian.Uint64(payload[off : off+8])),
			End:    int64(binary.LittleEndian.Uint64(payload[off+8 : off+16])),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16 : off+24])),
		}
	}
	return p
}

// LoadPlan fetches the sampling plan stored under key, or (nil, false)
// on any miss. Corrupt entries are deleted in read-write modes.
func (s *Store) LoadPlan(key Key) (*PlanRecord, bool) {
	if s == nil {
		return nil, false
	}
	path := s.path(key, planSuffix)
	var p *PlanRecord
	ok := s.load(path, &s.ckptHits, &s.ckptMisses, func(buf []byte) bool {
		p = decodePlan(buf)
		return p != nil
	})
	return p, ok
}

// StorePlan persists p under key (no-op for nil or read-only stores).
func (s *Store) StorePlan(key Key, p *PlanRecord) {
	if !s.writable() || p == nil {
		return
	}
	s.publish(s.path(key, planSuffix), encodePlan(p))
}
