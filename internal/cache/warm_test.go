package cache

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestWarmStateRoundTrip drives a multi-set cache, then checks that the
// canonical encoding survives LoadWarmState and CopyWarmFrom byte for
// byte, and that every copy keeps making the same replacement decisions
// as the original.
func TestWarmStateRoundTrip(t *testing.T) {
	cfg := Config{SizeBytes: 4096, LineBytes: 64, Ways: 4, Latency: 4} // 16 sets
	rng := rand.New(rand.NewSource(7))
	addr := func() uint32 { return uint32(rng.Intn(256)) * 64 } // 4 lines per way on average
	orig := NewCache(cfg)
	for i := 0; i < 2000; i++ {
		orig.WarmAccess(addr(), rng.Intn(3) == 0)
	}
	want := orig.AppendWarmState(nil)
	if len(want) > orig.WarmStateLen() {
		t.Fatalf("encoding is %d bytes, WarmStateLen says at most %d", len(want), orig.WarmStateLen())
	}

	loaded := NewCache(cfg)
	n, err := loaded.LoadWarmState(want)
	if err != nil || n != len(want) {
		t.Fatalf("LoadWarmState = %d, %v; want %d, nil", n, err, len(want))
	}
	if got := loaded.AppendWarmState(nil); !bytes.Equal(got, want) {
		t.Fatal("LoadWarmState then AppendWarmState changed the bytes")
	}
	copied := NewCache(cfg)
	copied.CopyWarmFrom(loaded)
	if got := copied.AppendWarmState(nil); !bytes.Equal(got, want) {
		t.Fatal("CopyWarmFrom then AppendWarmState changed the bytes")
	}

	for i := 0; i < 2000; i++ {
		a, w := addr(), rng.Intn(3) == 0
		h0, wa0, wb0 := orig.WarmAccess(a, w)
		h1, wa1, wb1 := loaded.WarmAccess(a, w)
		h2, wa2, wb2 := copied.WarmAccess(a, w)
		if h0 != h1 || h0 != h2 || wb0 != wb1 || wb0 != wb2 || wa0 != wa1 || wa0 != wa2 {
			t.Fatalf("access %d to %#x: original (%v %#x %v), loaded (%v %#x %v), copied (%v %#x %v)",
				i, a, h0, wa0, wb0, h1, wa1, wb1, h2, wa2, wb2)
		}
	}
	final := orig.AppendWarmState(nil)
	if !bytes.Equal(loaded.AppendWarmState(nil), final) || !bytes.Equal(copied.AppendWarmState(nil), final) {
		t.Fatal("restored caches drifted from the original")
	}
}
