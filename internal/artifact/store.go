// Package artifact is the persistent, content-addressed cache behind the
// experiment runner: a trace store (binary-encoded trace.Trace, §DESIGN
// 9) and a result store (canonical core.Stats encodings). Entries are
// keyed by SHA-256 over every input that determines their content plus
// an explicit format/schema version, written via temp file + atomic
// rename, and validated (magic, version, layout fingerprint, CRC32C,
// exact length) on read — anything that fails validation is a miss, and
// read-write stores overwrite it with a fresh entry. A size cap evicts
// least-recently-used files (hits refresh mtime).
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmdp/internal/config"
	"dmdp/internal/core"
)

// Mode selects how a store participates in a run.
type Mode int

// Cache modes, in the order the -cache flag documents them.
const (
	// Off disables the cache entirely (Open returns a nil store).
	Off Mode = iota
	// RO reads existing entries but never writes or evicts.
	RO
	// RW reads and writes (the normal warm-cache mode).
	RW
	// Verify reads and writes like RW, but callers re-simulate every
	// result hit and fail loudly on mismatch (the stale-artifact
	// oracle); see VerifyError.
	Verify
)

func (m Mode) String() string {
	switch m {
	case RO:
		return "ro"
	case RW:
		return "rw"
	case Verify:
		return "verify"
	}
	return "off"
}

// ParseMode parses a -cache flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "ro":
		return RO, nil
	case "rw":
		return RW, nil
	case "verify":
		return Verify, nil
	}
	return Off, fmt.Errorf("artifact: unknown cache mode %q (want off, ro, rw or verify)", s)
}

// DefaultDir returns the default cache directory
// (os.UserCacheDir()/dmdp, or a .dmdp-cache fallback when the user cache
// dir is undefined).
func DefaultDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "dmdp")
	}
	return ".dmdp-cache"
}

// DefaultMaxBytes caps the cache directory at 2 GiB unless overridden.
const DefaultMaxBytes = 2 << 30

// Key addresses one cache entry. Keys are SHA-256 digests over the
// entry's inputs and format version, so distinct content never aliases
// and format bumps invalidate wholesale.
type Key [sha256.Size]byte

func (k Key) String() string { return hex.EncodeToString(k[:]) }

// TraceKey derives the trace-store key for a workload (identified by the
// SHA-256 of its generated source, see workload.Spec.SourceHash) at an
// instruction budget. The trace format version is part of the hash.
func TraceKey(sourceHash [sha256.Size]byte, budget int64) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-trace\x00"))
	h.Write(traceMagic[:])
	h.Write(sourceHash[:])
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(budget))
	h.Write(b[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// ResultKey derives the result-store key for one simulation: the trace
// key (which already encodes workload, budget and trace format), the
// configuration digest (which covers every Config field), and the stats
// schema version.
func ResultKey(traceKey Key, cfg config.Digest, budget int64) Key {
	h := sha256.New()
	h.Write([]byte("dmdp-result\x00"))
	h.Write(traceKey[:])
	h.Write(cfg[:])
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(budget))
	binary.LittleEndian.PutUint64(b[8:], core.StatsSchemaVersion)
	h.Write(b[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// Counters aggregates a store's activity for the run summary. All fields
// count events since Open.
type Counters struct {
	TraceHits, TraceMisses   int64
	ResultHits, ResultMisses int64
	// CheckpointHits/CheckpointMisses count checkpoint and sampling-plan
	// artifact lookups (both kinds share the pair: a plan hit without its
	// checkpoints still re-streams, so they degrade together).
	CheckpointHits, CheckpointMisses int64
	// WarmHits/WarmMisses count functional-warm-state artifact lookups; a
	// warm miss at a sampled interval degrades that interval to a cold
	// start, not a failure. WarmBytes is the total decoded snapshot bytes
	// served from warm hits.
	WarmHits, WarmMisses      int64
	WarmBytes                 int64
	Writes                    int64
	BytesRead, BytesWritten   int64
	Evictions, CorruptDropped int64
	// Degraded reports a write-failure fallback to read-only (see
	// Store.Degraded).
	Degraded bool
}

// Store is an on-disk artifact cache rooted at one directory. A nil
// *Store is valid and behaves as an always-miss, never-write cache, so
// callers thread it unconditionally. Methods are safe for concurrent
// use.
type Store struct {
	dir      string
	mode     Mode
	maxBytes int64

	// degraded flips (once, permanently) when a write fails — an
	// unwritable directory at Open, ENOSPC or any other publish error.
	// A degraded store keeps serving reads but never writes again: the
	// cache is best-effort and the simulation must not die for it. The
	// first degradation records a structured reason and fires warnFn.
	degraded    atomic.Bool
	degradeOnce sync.Once
	degradedWhy atomic.Value // string
	warnFn      func(msg string)

	// evictMu guards the size-cap accounting. used is the running byte
	// count of the directory: seeded by one scan on the first publish,
	// advanced by each publish, and reset by the exact scan-and-evict,
	// which runs only when the count passes maxBytes (see account).
	// scans counts directory scans (tests pin it).
	evictMu sync.Mutex
	counted bool
	used    int64
	scans   int

	// loaded memoizes decoded traces per key, tagged with the identity
	// of the file they were decoded from (see traceio.go). Reloading an
	// unchanged file returns the already-verified, already-mapped trace
	// — no second mapping (mappings are never unmapped, so repeated
	// loads must not map repeatedly) and no second checksum pass. Any
	// rewrite, truncation or eviction changes the identity and forces a
	// fresh verified decode.
	loadedMu sync.Mutex
	loaded   map[Key]loadedTrace

	traceHits, traceMisses   atomic.Int64
	resultHits, resultMisses atomic.Int64
	ckptHits, ckptMisses     atomic.Int64
	warmHits, warmMisses     atomic.Int64
	warmBytes                atomic.Int64
	writes                   atomic.Int64
	bytesRead, bytesWritten  atomic.Int64
	evictions, corrupt       atomic.Int64
}

// fileID identifies one published cache file's content for in-process
// memoization (see Store.loaded). Platform stat code fills it; the zero
// value never matches a real file.
type fileID struct {
	dev, ino uint64
	size     int64
	mtimeNS  int64
}

// Open creates (if needed) the cache directory and returns a store in
// the given mode. Mode Off returns (nil, nil): the nil store misses
// everything and persists nothing. maxBytes <= 0 means DefaultMaxBytes;
// the cap is enforced after each write in a read-write mode.
func Open(dir string, mode Mode, maxBytes int64) (*Store, error) {
	if mode == Off {
		return nil, nil
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Store{dir: dir, mode: mode, maxBytes: maxBytes}
	if mode != RO {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			// An unwritable cache directory must not surface as a run
			// error: degrade to read-only (existing entries, if any,
			// still serve) and keep simulating.
			s.degrade(fmt.Sprintf("cache directory unusable (%v)", err))
		}
	}
	return s, nil
}

// SetWarnFn registers the sink for the store's one-time degradation
// warning (nil discards it). Call before the first write. If the store
// already degraded (e.g. during Open), fn fires immediately.
func (s *Store) SetWarnFn(fn func(msg string)) {
	if s == nil {
		return
	}
	s.warnFn = fn
	if fn != nil && s.degraded.Load() {
		fn(s.DegradedReason())
	}
}

// Degraded reports whether the store fell back to read-only after a
// write failure (false for a nil store).
func (s *Store) Degraded() bool { return s != nil && s.degraded.Load() }

// DegradedReason returns the structured one-line reason for the
// degradation ("" when not degraded).
func (s *Store) DegradedReason() string {
	if s == nil {
		return ""
	}
	if why, ok := s.degradedWhy.Load().(string); ok {
		return why
	}
	return ""
}

// degrade permanently flips the store to read-only with a one-time
// structured warning. Reads keep working; every later write is a
// silent no-op. Concurrent degradations keep the first reason.
func (s *Store) degrade(cause string) {
	s.degradeOnce.Do(func() {
		msg := fmt.Sprintf(
			"artifact: cache degraded %s -> read-only: %s (dir %s); simulation continues without persisting new entries",
			s.mode, cause, s.dir)
		s.degradedWhy.Store(msg)
		s.degraded.Store(true)
		if s.warnFn != nil {
			s.warnFn(msg)
		}
	})
}

// Mode returns the store's mode (Off for a nil store).
func (s *Store) Mode() Mode {
	if s == nil {
		return Off
	}
	return s.mode
}

// Dir returns the cache directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// VerifyEnabled reports whether result hits must be re-simulated and
// compared.
func (s *Store) VerifyEnabled() bool { return s != nil && s.mode == Verify }

func (s *Store) writable() bool { return s != nil && s.mode != RO && !s.degraded.Load() }

// Counters returns a snapshot of the store's activity (zero for a nil
// store).
func (s *Store) Counters() Counters {
	if s == nil {
		return Counters{}
	}
	return Counters{
		TraceHits:        s.traceHits.Load(),
		TraceMisses:      s.traceMisses.Load(),
		ResultHits:       s.resultHits.Load(),
		ResultMisses:     s.resultMisses.Load(),
		CheckpointHits:   s.ckptHits.Load(),
		CheckpointMisses: s.ckptMisses.Load(),
		WarmHits:         s.warmHits.Load(),
		WarmMisses:       s.warmMisses.Load(),
		WarmBytes:        s.warmBytes.Load(),
		Writes:           s.writes.Load(),
		BytesRead:        s.bytesRead.Load(),
		BytesWritten:     s.bytesWritten.Load(),
		Evictions:        s.evictions.Load(),
		CorruptDropped:   s.corrupt.Load(),
		Degraded:         s.degraded.Load(),
	}
}

// Summary renders the counters as one human-readable line for the
// experiments summary ("" for a nil store).
func (s *Store) Summary() string {
	if s == nil {
		return ""
	}
	c := s.Counters()
	line := fmt.Sprintf(
		"cache %s (%s): traces %d hit / %d miss, results %d hit / %d miss, %d written (%.1f MiB out, %.1f MiB in)",
		s.mode, s.dir,
		c.TraceHits, c.TraceMisses, c.ResultHits, c.ResultMisses,
		c.Writes, float64(c.BytesWritten)/(1<<20), float64(c.BytesRead)/(1<<20))
	if c.CheckpointHits > 0 || c.CheckpointMisses > 0 {
		line += fmt.Sprintf(", checkpoints %d hit / %d miss", c.CheckpointHits, c.CheckpointMisses)
	}
	if c.WarmHits > 0 || c.WarmMisses > 0 {
		line += fmt.Sprintf(", warm state %d hit / %d miss (%.1f MiB)",
			c.WarmHits, c.WarmMisses, float64(c.WarmBytes)/(1<<20))
	}
	if c.Evictions > 0 || c.CorruptDropped > 0 {
		line += fmt.Sprintf(", %d evicted, %d corrupt dropped", c.Evictions, c.CorruptDropped)
	}
	if s.Degraded() {
		line += ", DEGRADED to read-only"
	}
	return line
}

// VerifyError reports a verify-mode mismatch: a cached result entry
// whose canonical encoding differs from a fresh re-simulation with
// identical inputs. It means the entry is stale or the simulator became
// nondeterministic — either way the cache cannot be trusted.
type VerifyError struct {
	Key       Key    // result-store key of the poisoned entry
	Path      string // file the entry was read from
	Bench     string // workload name
	Label     string // configuration label
	CachedSHA string // SHA-256 of the cached canonical encoding
	FreshSHA  string // SHA-256 of the re-simulated canonical encoding
	FirstDiff int    // first differing byte offset in the canonical encoding
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf(
		"artifact: verify mismatch for %s/%s: cached stats %s != re-simulated %s (first differing byte %d, key %s, file %s)",
		e.Bench, e.Label, e.CachedSHA, e.FreshSHA, e.FirstDiff, e.Key, e.Path)
}

// NewVerifyError builds the structured diagnostic for a poisoned result
// entry from the two canonical encodings.
func NewVerifyError(key Key, path, bench, label string, cached, fresh []byte) *VerifyError {
	diff := len(cached)
	if len(fresh) < diff {
		diff = len(fresh)
	}
	first := diff
	for i := 0; i < diff; i++ {
		if cached[i] != fresh[i] {
			first = i
			break
		}
	}
	cs, fs := sha256.Sum256(cached), sha256.Sum256(fresh)
	return &VerifyError{
		Key: key, Path: path, Bench: bench, Label: label,
		CachedSHA: hex.EncodeToString(cs[:8]), FreshSHA: hex.EncodeToString(fs[:8]),
		FirstDiff: first,
	}
}

// path returns the file for a key with the given suffix.
func (s *Store) path(key Key, suffix string) string {
	return filepath.Join(s.dir, key.String()+suffix)
}

// publish atomically installs data at path via a temp file + rename, then
// enforces the size cap. A failed write (unwritable directory, ENOSPC
// mid-write, rename failure) degrades the whole store to read-only with
// a one-time warning — the entry stays absent, later writes stop being
// attempted, and the run continues.
func (s *Store) publish(path string, data []byte) {
	if !s.writable() {
		return
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		s.degrade(fmt.Sprintf("cannot create cache entry (%v)", err))
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		s.degrade(fmt.Sprintf("cache entry write failed (%v)", werr))
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.degrade(fmt.Sprintf("cache entry publish failed (%v)", err))
		return
	}
	s.writes.Add(1)
	s.bytesWritten.Add(int64(len(data)))
	s.account(int64(len(data)))
}

// touch refreshes a file's mtime so LRU eviction sees the hit. Read-only
// stores leave mtimes alone.
func (s *Store) touch(path string) {
	if s.writable() {
		now := time.Now()
		os.Chtimes(path, now, now)
	}
}

// drop removes a corrupt entry (read-write modes only) and counts it.
func (s *Store) drop(path string) {
	s.corrupt.Add(1)
	if s.writable() {
		os.Remove(path)
	}
}

// account adds a published entry's bytes to the running count and runs
// the exact scan-and-evict only when the count passes the cap; the first
// publish seeds the count with one scan. The count errs high, never low,
// for this process's own writes: replacing an existing entry or dropping
// a corrupt one is not subtracted, so the exact scan just comes sooner.
// Entries other processes publish into the same directory are only seen
// by the next exact scan, so with several writers the directory can
// exceed the cap by their writes until some writer's count crosses it.
func (s *Store) account(n int64) {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if s.counted {
		s.used += n
		if s.used <= s.maxBytes {
			return
		}
	}
	s.scanAndEvict()
}

// enforceCap deletes least-recently-used cache files until the directory
// is under maxBytes, from an exact scan of the directory.
func (s *Store) enforceCap() {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	s.scanAndEvict()
}

// scanAndEvict is enforceCap with evictMu held; it resets the running
// count to the bytes that remain. Only complete entries (never tmp files
// being written elsewhere) are eviction candidates; races with
// concurrent writers are benign because entries are immutable once
// renamed in.
func (s *Store) scanAndEvict() {
	s.scans++
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		s.counted = false // rescan on the next publish
		return
	}
	type file struct {
		path  string
		size  int64
		mtime int64
	}
	var files []file
	var total int64
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		total += info.Size()
		if len(de.Name()) >= 4 && de.Name()[:4] == "tmp-" {
			continue // in-flight writes are not eviction candidates
		}
		files = append(files, file{
			path:  filepath.Join(s.dir, de.Name()),
			size:  info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
	}
	s.counted, s.used = true, total
	if total <= s.maxBytes {
		return
	}
	// LRU by mtime, ties broken by file name: coarse filesystem
	// timestamps make equal mtimes common (a warm-up burst can publish
	// dozens of entries in one tick), and without the secondary key the
	// eviction order within a tie would be whatever os.ReadDir's
	// directory listing happened to be — filesystem-dependent and
	// irreproducible.
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			s.evictions.Add(1)
		}
	}
	s.used = total
}
