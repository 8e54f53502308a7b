package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dmdp/internal/core"
)

// TestRecordEncodingsPinned pins the SHA-256 of each framed record
// encoder's output for one fixed record, so a change to the shared
// [magic][CRC32C][payload] framing (or to any payload layout) that would
// orphan the files already on disk fails here.
func TestRecordEncodingsPinned(t *testing.T) {
	st := &core.Stats{Cycles: 987654, Instructions: 500000, Uops: 512345}
	st.LoadCount[1] = 4242
	st.LoadExecTime[1] = 17
	plan := &PlanRecord{ChunkLen: 10_000, Total: 2_000_000, Warmup: 2_000, HitHalt: true,
		Intervals: []PlanInterval{{Start: 0, End: 10_000, Weight: 0.25}, {Start: 50_000, End: 60_000, Weight: 0.75}}}
	warm := &WarmRecord{At: 60_000, BaseAt: 10_000, Payload: []byte("opaque warm delta")}
	for _, tc := range []struct {
		name string
		buf  []byte
		want string
	}{
		{"DMDPRES1", encodeStats(st), "154bf85d446a415b7ee4c26731803ad75cf62df00bc36339f7d4e1aca44c2840"},
		{"DMDPCKP1", encodeCheckpoint(testCheckpoint()), "5ea23a338361be17b603de685bf87202411986971618a55042df6ed5ec7665c9"},
		{"DMDPPLN1", encodePlan(plan), "3e0ea6cb4ef6feedb157ab0a22d446484ec513e9dae055b7791189ee7393c4a6"},
		{"DMDPCKP2", encodeWarm(warm), "ebd2cdd0560bb4cd567a426554a5183aa3a55a3c86311b2161d323056a12d9b7"},
	} {
		if string(tc.buf[:8]) != tc.name {
			t.Errorf("%s: magic %q", tc.name, tc.buf[:8])
		}
		sum := sha256.Sum256(tc.buf)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
