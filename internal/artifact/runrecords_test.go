package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/core"
)

// testMachineStats is a two-core machine result with every counter set.
func testMachineStats() *core.MachineStats {
	ms := &core.MachineStats{
		GlobalCycles: 4321, Instructions: 8000, DrainEvents: 77,
		RemoteInvalidations: 66, RemoteStamps: 55, EnforcedReads: 4,
		StaleReadsKept: 3, SimWallClockNS: 999,
		PerCore: make([]core.Stats, 2),
	}
	for i := range ms.PerCore {
		ms.PerCore[i] = core.Stats{Cycles: int64(4000 + i), Instructions: 4000, Reexecs: int64(i + 1)}
		ms.PerCore[i].LoadCount[1] = int64(10 * (i + 1))
	}
	return ms
}

// testSampledPayload lays out one sampled run's canonical encoding by
// hand, as sampling.Combined.MarshalCanonical documents it (the sampling
// package pins the same bytes from a Combined): one interval
// [0, 10000) of weight 1, its stats, then the weighted aggregates.
func testSampledPayload() []byte {
	st := &core.Stats{Cycles: 5000, Instructions: 10_000}
	u64 := func(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
	p := u64(nil, 1)
	p = u64(p, 0)
	p = u64(p, 10_000)
	p = u64(p, math.Float64bits(1))
	p = append(p, st.MarshalCanonical()...)
	p = u64(p, math.Float64bits(2))
	p = u64(p, math.Float64bits(0))
	p = u64(p, 10_000)
	return u64(p, 5000)
}

func TestMachineRecordRoundTrip(t *testing.T) {
	s := openRW(t)
	cfg := core.DefaultMachineConfig(2, config.DMDP, core.MemTSO)
	key := MachineKey(Key{1}, cfg.Digest(), testBudget)
	if _, _, ok := s.LoadMachine(key); ok {
		t.Fatal("hit before store")
	}
	want := testMachineStats()
	s.StoreMachine(key, want)
	got, path, ok := s.LoadMachine(key)
	if !ok || path == "" {
		t.Fatal("miss after store")
	}
	if got.SimWallClockNS != 0 {
		t.Fatal("wall clock should not round-trip")
	}
	w := *want
	w.SimWallClockNS = 0
	if !reflect.DeepEqual(got, &w) {
		t.Fatalf("decoded %+v, want %+v", got, &w)
	}
	if c := s.Counters(); c.ResultHits != 1 || c.ResultMisses != 1 {
		t.Fatalf("machine lookups counted as %d result hits / %d misses, want 1 / 1", c.ResultHits, c.ResultMisses)
	}
}

func TestSampledRecordRoundTrip(t *testing.T) {
	s := openRW(t)
	cfg := config.Default(config.DMDP)
	key := SampledKey(Key{1}, cfg.Digest(), testBudget, "10x100+200", false, 1)
	accept := func(p []byte) bool { return true }
	if _, ok := s.LoadSampled(key, accept); ok {
		t.Fatal("hit before store")
	}
	want := testSampledPayload()
	// The same bytes sampling.TestCombinedCanonicalPinned pins.
	if sum := sha256.Sum256(want); hex.EncodeToString(sum[:]) != "1f962d0e132631bb8df0f02ffc4d66a4e1ed8431e5910349d3affb254a8eab91" {
		t.Fatal("hand-built payload no longer matches sampling.Combined.MarshalCanonical")
	}
	s.StoreSampled(key, want)
	var got []byte
	path, ok := s.LoadSampled(key, func(p []byte) bool {
		got = append([]byte(nil), p...)
		return true
	})
	if !ok || path == "" {
		t.Fatal("miss after store")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload changed in the round trip")
	}
	// A payload the decoder rejects is corrupt: a miss, dropped.
	if _, ok := s.LoadSampled(key, func([]byte) bool { return false }); ok {
		t.Fatal("rejected payload hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("rejected record not dropped by rw store")
	}
}

// Truncated and corrupt machine and sampled records read as misses and
// are dropped (then rewritten and hit again), like every other record.
func TestRunRecordsCorruptAreMissesAndDropped(t *testing.T) {
	s := openRW(t)
	cfg := core.DefaultMachineConfig(2, config.DMDP, core.MemTSO)
	mkey := MachineKey(Key{2}, cfg.Digest(), testBudget)
	skey := SampledKey(Key{2}, cfg.Core.Digest(), testBudget, "10x100+200", true, 1)
	ms, payload := testMachineStats(), testSampledPayload()
	records := []struct {
		name  string
		path  string
		store func()
		load  func() bool
	}{
		{"machine", s.path(mkey, machineSuffix),
			func() { s.StoreMachine(mkey, ms) },
			func() bool { _, _, ok := s.LoadMachine(mkey); return ok }},
		{"sampled", s.path(skey, sampledSuffix),
			func() { s.StoreSampled(skey, payload) },
			func() bool { _, ok := s.LoadSampled(skey, func(p []byte) bool { return true }); return ok }},
	}
	mutate := map[string]func([]byte) []byte{
		"truncated":       func(b []byte) []byte { return b[:len(b)/2] },
		"empty":           func([]byte) []byte { return nil },
		"flipped payload": func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"wrong version":   func(b []byte) []byte { b[7] = '9'; return b },
	}
	drops := 0
	for _, rec := range records {
		rec.store()
		orig, err := os.ReadFile(rec.path)
		if err != nil {
			t.Fatal(err)
		}
		for name, fn := range mutate {
			if err := os.WriteFile(rec.path, fn(append([]byte(nil), orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if rec.load() {
				t.Fatalf("%s/%s: corrupt record hit", rec.name, name)
			}
			if _, err := os.Stat(rec.path); !os.IsNotExist(err) {
				t.Fatalf("%s/%s: corrupt record not dropped", rec.name, name)
			}
			drops++
			rec.store()
			if !rec.load() {
				t.Fatalf("%s/%s: rewritten record missed", rec.name, name)
			}
		}
	}
	if c := s.Counters(); c.CorruptDropped != int64(drops) {
		t.Fatalf("corrupt counter = %d, want %d", c.CorruptDropped, drops)
	}
	// A machine payload whose length disagrees with its core count is
	// corrupt even under a valid checksum.
	bad := ms.MarshalCanonical()
	binary.LittleEndian.PutUint64(bad[7*8:], 3)
	if decodeMachine(frame(machineMagic, bad)) != nil {
		t.Fatal("machine record with a wrong core count decoded")
	}
}

func TestRunKeysSeparateInputs(t *testing.T) {
	m := core.DefaultMachineConfig(2, config.DMDP, core.MemTSO)
	m4 := core.DefaultMachineConfig(4, config.DMDP, core.MemTSO)
	k := MachineKey(Key{1}, m.Digest(), 1000)
	for name, other := range map[string]Key{
		"trace":   MachineKey(Key{2}, m.Digest(), 1000),
		"machine": MachineKey(Key{1}, m4.Digest(), 1000),
		"budget":  MachineKey(Key{1}, m.Digest(), 2000),
		"kind":    ResultKey(Key{1}, m.Digest(), 1000),
	} {
		if other == k {
			t.Errorf("machine key ignores the %s", name)
		}
	}
	c1, c2 := config.Default(config.NoSQ), config.Default(config.DMDP)
	sk := SampledKey(Key{1}, c1.Digest(), 1000, "10x100+200", false, 1)
	for name, other := range map[string]Key{
		"trace":   SampledKey(Key{2}, c1.Digest(), 1000, "10x100+200", false, 1),
		"config":  SampledKey(Key{1}, c2.Digest(), 1000, "10x100+200", false, 1),
		"budget":  SampledKey(Key{1}, c1.Digest(), 2000, "10x100+200", false, 1),
		"spec":    SampledKey(Key{1}, c1.Digest(), 1000, "10x100+300", false, 1),
		"warm":    SampledKey(Key{1}, c1.Digest(), 1000, "10x100+200", true, 1),
		"planner": SampledKey(Key{1}, c1.Digest(), 1000, "10x100+200", false, 2),
	} {
		if other == sk {
			t.Errorf("sampled key ignores the %s", name)
		}
	}
}
