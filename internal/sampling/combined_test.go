package sampling

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"dmdp/internal/config"
	"dmdp/internal/core"
)

// TestCombinedCanonicalPinned pins the canonical encoding of one fixed
// Combined: it is the payload of the persisted sampled-run record
// (DMDPSMP1), so a layout change would orphan the records on disk. The
// artifact package pins the framed record over the same bytes.
func TestCombinedCanonicalPinned(t *testing.T) {
	c := &Combined{
		Results: []IntervalResult{{
			Interval: Interval{Start: 0, End: 10_000, Weight: 1},
			Stats:    &core.Stats{Cycles: 5000, Instructions: 10_000},
		}},
		WeightedIPC: 2, TotalInstructions: 10_000, TotalCycles: 5000,
	}
	sum := sha256.Sum256(c.MarshalCanonical())
	const want = "1f962d0e132631bb8df0f02ffc4d66a4e1ed8431e5910349d3affb254a8eab91"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("canonical combined sha256 %s, want %s", got, want)
	}
}

// TestCombinedCanonicalRoundTrip decodes a real sampled result back to
// an identical Combined, and rejects truncated or padded encodings.
func TestCombinedCanonicalRoundTrip(t *testing.T) {
	mat, _ := execRequest(t, "mcf", 20_000)
	mat.Spec = Spec{Count: 4, Len: 1_000, Warmup: 500}
	out, err := Execute(context.Background(), config.Default(config.DMDP), mat)
	if err != nil {
		t.Fatal(err)
	}
	enc := out.Combined.MarshalCanonical()
	got, err := UnmarshalCombined(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.MarshalCanonical(), enc) {
		t.Fatal("decoded combined re-encodes differently")
	}
	want := *out.Combined
	want.Results = append([]IntervalResult(nil), want.Results...)
	for i := range want.Results {
		st := *want.Results[i].Stats
		st.SimWallClockNS = 0 // not part of the encoding
		want.Results[i].Stats = &st
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatal("decoded combined differs from the original")
	}
	for _, bad := range [][]byte{enc[:len(enc)-1], append(append([]byte(nil), enc...), 0), enc[:7], nil} {
		if _, err := UnmarshalCombined(bad); err == nil {
			t.Errorf("%d-byte encoding accepted", len(bad))
		}
	}
}
