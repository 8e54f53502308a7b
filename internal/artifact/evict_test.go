package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// writeEntry drops a fake complete cache entry of the given size and
// mtime directly into the store directory (eviction only looks at
// directory metadata, not entry contents).
func writeEntry(t *testing.T, dir, name string, size int, mtime time.Time) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

func survivors(t *testing.T, dir string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, de := range ents {
		out[de.Name()] = true
	}
	return out
}

// Equal-mtime entries must evict in deterministic (name) order, not in
// whatever order os.ReadDir returned them — the old behavior was
// filesystem-dependent. This pins the boundary: four same-mtime entries,
// a cap that forces exactly two evictions, and the two lexicographically
// smallest names must be the ones that go.
func TestEnforceCapEqualMtimeTieBreak(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 2*100)
	if err != nil {
		t.Fatal(err)
	}
	tick := time.Now().Add(-time.Hour).Truncate(time.Second)
	// Deliberately created in non-lexicographic order so a listing-order
	// eviction would pick a different pair.
	for _, name := range []string{"cc", "aa", "dd", "bb"} {
		writeEntry(t, dir, name, 100, tick)
	}
	s.enforceCap()
	got := survivors(t, dir)
	if len(got) != 2 || !got["cc"] || !got["dd"] {
		t.Fatalf("survivors = %v, want exactly {cc, dd} (evict smallest names first within an mtime tie)", got)
	}
}

// mtime still dominates: an older entry evicts before a newer one even
// when its name sorts later; the name is only the tie-break.
func TestEnforceCapMtimePrimary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 2*100)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour).Truncate(time.Second)
	writeEntry(t, dir, "zz-oldest", 100, base.Add(-2*time.Second))
	writeEntry(t, dir, "aa-newer", 100, base)
	writeEntry(t, dir, "bb-newer", 100, base)
	s.enforceCap()
	got := survivors(t, dir)
	if len(got) != 2 || got["zz-oldest"] {
		t.Fatalf("survivors = %v, want zz-oldest evicted first despite its name", got)
	}
	if !got["bb-newer"] || !got["aa-newer"] {
		t.Fatalf("survivors = %v, want both newer entries kept", got)
	}
}

// At the exact cap no eviction happens (the cap is inclusive).
func TestEnforceCapAtBoundary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 3*100)
	if err != nil {
		t.Fatal(err)
	}
	tick := time.Now().Truncate(time.Second)
	for _, name := range []string{"aa", "bb", "cc"} {
		writeEntry(t, dir, name, 100, tick)
	}
	s.enforceCap()
	if got := survivors(t, dir); len(got) != 3 {
		t.Fatalf("survivors = %v, want all three (total == cap must not evict)", got)
	}
}

// Publishing under the cap keeps a running byte count instead of
// rescanning the directory: one seeding scan, however many publishes.
// Crossing the cap runs the exact scan, which still evicts oldest-first.
func TestPublishScansOnlyWhenCapCrossed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, RW, 10*100)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 11)
	for i := range names {
		names[i] = fmt.Sprintf("e%02d", i)
	}
	for _, name := range names[:10] {
		s.publish(filepath.Join(dir, name), make([]byte, 100))
	}
	if s.scans != 1 {
		t.Fatalf("10 publishes under the cap scanned the directory %d times, want 1", s.scans)
	}
	if got := survivors(t, dir); len(got) != 10 {
		t.Fatalf("survivors = %v, want all ten (total == cap must not evict)", got)
	}
	// Age the entries so e00 is the oldest, then cross the cap.
	base := time.Now().Add(-time.Hour).Truncate(time.Second)
	for i, name := range names[:10] {
		mt := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, name), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	s.publish(filepath.Join(dir, names[10]), make([]byte, 100))
	if s.scans != 2 {
		t.Fatalf("crossing the cap scanned %d times in total, want 2", s.scans)
	}
	got := survivors(t, dir)
	if len(got) != 10 || got["e00"] || !got["e10"] {
		t.Fatalf("survivors = %v, want e01..e10 (the oldest entry evicted)", got)
	}
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
}

// Concurrent publishes share the running count: whatever order they
// account in, the directory ends at or under the cap, oldest evicted.
func TestConcurrentPublishesStayUnderCap(t *testing.T) {
	dir := t.TempDir()
	const capBytes = 10 * 100
	s, err := Open(dir, RW, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s.publish(filepath.Join(dir, fmt.Sprintf("w%d-%02d", w, i)), make([]byte, 100))
			}
		}()
	}
	wg.Wait()
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > capBytes {
		t.Fatalf("directory holds %d bytes after concurrent publishes, cap %d", total, capBytes)
	}
	if c := s.Counters(); c.Writes != 160 || c.Evictions < 150 {
		t.Fatalf("writes=%d evictions=%d, want 160 writes and at least 150 evictions", c.Writes, c.Evictions)
	}
}
