package artifact

import (
	"crypto/sha256"
	"encoding/binary"

	"dmdp/internal/config"
	"dmdp/internal/core"
)

// Machine result store format v1 ("DMDPMCH1").
//
//	[8] magic+version  [4] CRC32C of the payload (see frame)
//	payload: one canonical core.MachineStats encoding (see
//	core.MachineStats.MarshalCanonical): the machine counters, the core
//	count, then each core's canonical core.Stats encoding in core order.
//
// SimWallClockNS is left out, as in the single-core record. The stats
// schema version is part of the key, like the single-core record's.
var machineMagic = [8]byte{'D', 'M', 'D', 'P', 'M', 'C', 'H', '1'}

const machineSuffix = ".mstats"

// MachineKey derives the store key for one multicore machine run with
// the trace identified by traceKey on every core: the trace key, the
// machine digest (core.MachineConfig.Digest: the per-core config digest
// plus every machine-level field), the budget and the stats schema
// version.
func MachineKey(traceKey Key, machine config.Digest, budget int64) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-machine\x00"))
	h.Write(machineMagic[:])
	h.Write(traceKey[:])
	h.Write(machine[:])
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(budget))
	binary.LittleEndian.PutUint64(b[8:], core.StatsSchemaVersion)
	h.Write(b[:])
	var k Key
	h.Sum(k[:0])
	return k
}

func encodeMachine(ms *core.MachineStats) []byte {
	return frame(machineMagic, ms.MarshalCanonical())
}

func decodeMachine(buf []byte) *core.MachineStats {
	payload, ok := unframe(machineMagic, buf)
	if !ok {
		return nil
	}
	ms, err := core.UnmarshalCanonicalMachine(payload)
	if err != nil {
		return nil
	}
	return ms
}

// LoadMachine fetches the machine result stored under key, or
// (nil, "", false) on any miss. The returned path names the file the
// entry was read from (for verify-mode diagnostics). Machine lookups
// count as result hits and misses; corrupt entries are deleted in
// read-write modes.
func (s *Store) LoadMachine(key Key) (*core.MachineStats, string, bool) {
	if s == nil {
		return nil, "", false
	}
	path := s.path(key, machineSuffix)
	var ms *core.MachineStats
	if !s.load(path, &s.resultHits, &s.resultMisses, func(buf []byte) bool {
		ms = decodeMachine(buf)
		return ms != nil
	}) {
		return nil, "", false
	}
	return ms, path, true
}

// StoreMachine persists ms under key (no-op for nil or read-only
// stores). Callers must not persist failed or cancelled runs.
func (s *Store) StoreMachine(key Key, ms *core.MachineStats) {
	if !s.writable() || ms == nil {
		return
	}
	s.publish(s.path(key, machineSuffix), encodeMachine(ms))
}
