package warm

import (
	"bytes"
	"testing"

	"dmdp/internal/bpred"
	"dmdp/internal/cache"
	"dmdp/internal/config"
	"dmdp/internal/memdep"
	"dmdp/internal/tlb"
	"dmdp/internal/trace"
	"dmdp/internal/workload"
)

func testTrace(t testing.TB, bench string, budget int64) *trace.Trace {
	t.Helper()
	s, ok := workload.Get(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	tr, err := s.BuildTrace(budget)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testConfig() Config { return ConfigFrom(config.Default(config.DMDP)) }

func warmOver(cfg Config, entries []trace.Entry) *State {
	s := New(cfg)
	for i := range entries {
		s.Update(&entries[i])
	}
	return s
}

// A snapshot must decode back into a state that re-encodes to the same
// bytes: the canonical encoding is a fixed point of serialize-load.
func TestSnapshotRoundTrip(t *testing.T) {
	tr := testTrace(t, "gcc", 200_000)
	cfg := testConfig()
	s := warmOver(cfg, tr.Entries)
	snap := s.Snapshot()
	s2, err := FromSnapshot(cfg, snap)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	if !bytes.Equal(snap, s2.Snapshot()) {
		t.Fatal("snapshot not a serialize-load fixed point")
	}
	if s2.Stores != s.Stores {
		t.Fatalf("stores %d != %d", s2.Stores, s.Stores)
	}
}

// Warming continuously over a whole trace must equal warming a prefix,
// snapshotting, restoring, and continuing — the property that makes a
// boundary snapshot interchangeable with the live pass, and therefore
// the streamed path byte-identical to one continuous warming pass.
func TestContinuousEqualsRestoreContinue(t *testing.T) {
	tr := testTrace(t, "gcc", 200_000)
	cfg := testConfig()
	half := len(tr.Entries) / 2

	cont := warmOver(cfg, tr.Entries)

	prefix := warmOver(cfg, tr.Entries[:half])
	resumed, err := FromSnapshot(cfg, prefix.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(tr.Entries); i++ {
		resumed.Update(&tr.Entries[i])
	}
	if !bytes.Equal(cont.Snapshot(), resumed.Snapshot()) {
		t.Fatal("continuous warming diverged from snapshot-restore-continue")
	}
}

// Structural corruption must surface as an error, never as silently
// wrong state or a panic.
func TestCorruptSnapshotRejected(t *testing.T) {
	tr := testTrace(t, "gcc", 50_000)
	cfg := testConfig()
	snap := warmOver(cfg, tr.Entries).Snapshot()

	if _, err := FromSnapshot(cfg, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	for _, cut := range []int{1, 8, snapHeader, len(snap) / 2, len(snap) - 1} {
		if _, err := FromSnapshot(cfg, snap[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	bad := append([]byte(nil), snap...)
	bad[0] ^= 0xff // magic
	if _, err := FromSnapshot(cfg, bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := FromSnapshot(cfg, append(append([]byte(nil), snap...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	other := cfg
	other.SDP.Sets *= 2
	if _, err := FromSnapshot(other, snap); err == nil {
		t.Fatal("snapshot accepted by a configuration with twice the SDP sets")
	}
	// Set-count corruption inside a section must be caught by the
	// substrate validators without panicking.
	for i := snapHeader + 4; i < len(snap); i += 97 {
		mut := append([]byte(nil), snap...)
		mut[i] = 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutated byte %d: %v", i, r)
				}
			}()
			st, err := FromSnapshot(cfg, mut)
			// Accepted mutations must still re-encode consistently.
			if err == nil {
				_ = st.Snapshot()
			}
		}()
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	tr := testTrace(t, "gcc", 100_000)
	cfg := testConfig()
	third := len(tr.Entries) / 3

	s := warmOver(cfg, tr.Entries[:third])
	base := s.Snapshot()
	for i := third; i < len(tr.Entries); i++ {
		s.Update(&tr.Entries[i])
	}
	full := s.Snapshot()

	delta := EncodeDelta(base, full)
	got, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("delta round trip mismatch")
	}
	if len(delta) >= len(full) {
		t.Logf("note: delta (%d B) not smaller than full (%d B)", len(delta), len(full))
	}

	// Length-changing cases: empty base forces all-literal; shrinking
	// full exercises the short final block.
	for _, b := range [][]byte{nil, base[:len(base)/2], full} {
		d := EncodeDelta(b, full)
		got, err := ApplyDelta(b, d)
		if err != nil || !bytes.Equal(got, full) {
			t.Fatalf("round trip against %d-byte base failed: %v", len(b), err)
		}
	}
	d := EncodeDelta(full, base)
	if got, err := ApplyDelta(full, d); err != nil || !bytes.Equal(got, base) {
		t.Fatalf("shrinking round trip failed: %v", err)
	}

	// Corruption never panics and is usually an error; a flipped
	// literal byte is indistinguishable by design (the artifact layer's
	// CRC catches it).
	for i := 0; i < len(delta); i += 13 {
		mut := append([]byte(nil), delta...)
		mut[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutated delta byte %d: %v", i, r)
				}
			}()
			_, _ = ApplyDelta(base, mut)
		}()
	}
	if _, err := ApplyDelta(base, delta[:4]); err == nil {
		t.Fatal("truncated delta header accepted")
	}
	if _, err := ApplyDelta(base, delta[:len(delta)-1]); err == nil {
		t.Fatal("truncated delta accepted")
	}
	if _, err := ApplyDelta(nil, delta); err == nil {
		t.Fatal("delta against missing base accepted")
	}
}

// Installing into fresh detailed substrates is an exact transplant: the
// installed structures re-encode to the warm state's own sections, and
// the T-SSBF answers with true store distances after rebasing.
func TestInstallInto(t *testing.T) {
	tr := testTrace(t, "gcc", 100_000)
	full := config.Default(config.DMDP)
	cfg := ConfigFrom(full)
	s := warmOver(cfg, tr.Entries)

	h := cache.NewHierarchy(full.Hierarchy)
	tl := tlb.New(full.TLB)
	bp := bpred.New(full.BPred)
	sdp := memdep.NewSDP(full.SDP)
	tssbf := memdep.NewTSSBF(full.TSSBF)
	s.InstallInto(h, tl, bp, sdp, tssbf)

	if !bytes.Equal(h.L1D.AppendWarmState(nil), s.L1.AppendWarmState(nil)) {
		t.Fatal("installed L1 state differs")
	}
	if !bytes.Equal(h.L2.AppendWarmState(nil), s.L2.AppendWarmState(nil)) {
		t.Fatal("installed L2 state differs")
	}
	if !bytes.Equal(tl.AppendWarmState(nil), s.TLB.AppendWarmState(nil)) {
		t.Fatal("installed TLB state differs")
	}
	if !bytes.Equal(bp.AppendWarmState(nil), s.BP.AppendWarmState(nil)) {
		t.Fatal("installed branch predictor state differs")
	}
	if !bytes.Equal(sdp.AppendWarmState(nil), s.SDP.AppendWarmState(nil)) {
		t.Fatal("installed SDP state differs")
	}

	// Rebase: find a load whose word the warm T-SSBF still covers and
	// check the installed filter reports the same distance relative to
	// a zero-based SSN counter.
	checked := 0
	for i := len(tr.Entries) - 1; i >= 0 && checked < 16; i-- {
		e := &tr.Entries[i]
		if !e.IsLoad() {
			continue
		}
		ssn, tag, _ := s.TSSBF.LookupCovering(e.WordAddr(), e.BAB())
		if !tag {
			continue
		}
		got, gtag, _ := tssbf.LookupCovering(e.WordAddr(), e.BAB())
		if !gtag {
			t.Fatalf("installed T-SSBF lost coverage of %#x", e.WordAddr())
		}
		if want := ssn - s.Stores; got != want {
			t.Fatalf("installed T-SSBF ssn %d, want rebased %d", got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no covered loads found to check rebasing")
	}
}

func TestParamsHash(t *testing.T) {
	a := testConfig()
	b := testConfig()
	if a.ParamsHash() != b.ParamsHash() {
		t.Fatal("equal configs hash differently")
	}
	b.MaxDist++
	if a.ParamsHash() == b.ParamsHash() {
		t.Fatal("MaxDist change did not change the hash")
	}
	c := testConfig()
	c.Hierarchy.L2.Ways *= 2
	if a.ParamsHash() == c.ParamsHash() {
		t.Fatal("L2 geometry change did not change the hash")
	}
	d := testConfig()
	d.SDP.Biased = !d.SDP.Biased
	if a.ParamsHash() == d.ParamsHash() {
		t.Fatal("SDP policy change did not change the hash")
	}
}
