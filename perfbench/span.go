package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the tracer's origin, and the span that caused it
// (0 = root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and event counters in memory until the run writes
// them out. A nil *tracer records nothing, so the untraced run pays one
// nil check per call site.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, counts: make(map[string]int64)}
}

// start opens a span under parent and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// count adds n to a named event counter.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// total returns the summed duration (seconds) and number of spans named
// name.
func (t *tracer) total(name string) (float64, int) {
	var ns int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
			n++
		}
	}
	return float64(ns) / 1e9, n
}

// covered returns the length of the union of the given intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curS, curE int64
	curE = -1
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		sum += curE - curS
	}
	return sum
}

// layerTime is the per-name aggregate of a trace.
type layerTime struct {
	Name        string
	Calls       int
	Total, Self float64 // seconds
}

// selfTimes aggregates spans by name: a span's self time is its duration
// minus the part of its interval that its child spans cover (children
// running in parallel on pool workers count once). It also returns the
// time in [0, wallNS) that no root span covers.
func (t *tracer) selfTimes(wallNS int64) ([]layerTime, float64) {
	children := make(map[int][][2]int64)
	var roots [][2]int64
	for _, s := range t.spans {
		if s.Parent == 0 {
			roots = append(roots, [2]int64{s.Start, s.End})
		} else {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Calls++
		lt.Total += float64(d) / 1e9
		lt.Self += float64(d-covered(children[s.ID])) / 1e9
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out, float64(wallNS-covered(roots)) / 1e9
}

// writeFiles writes the span file and the self-time summary, and returns
// the summary text and the time no root span covers.
func (t *tracer) writeFiles(prefix string, wallNS int64) (string, float64, error) {
	layers, unattributed := t.selfTimes(wallNS)
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %7s %10s %10s\n", "span", "calls", "total_s", "self_s")
	for _, lt := range layers {
		fmt.Fprintf(&b, "%-32s %7d %10.4f %10.4f\n", lt.Name, lt.Calls, lt.Total, lt.Self)
	}
	fmt.Fprintf(&b, "%-32s %7s %10s %10.4f\n", "(no span)", "", "", unattributed)
	fmt.Fprintf(&b, "%-32s %7s %10.4f\n", "(process wall)", "", float64(wallNS)/1e9)
	data, err := json.Marshal(struct {
		Spans  []span           `json:"spans"`
		Counts map[string]int64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return "", 0, err
	}
	if err := os.WriteFile(prefix+".spans.json", data, 0o644); err != nil {
		return "", 0, err
	}
	if err := os.WriteFile(prefix+".selftime.txt", []byte(b.String()), 0o644); err != nil {
		return "", 0, err
	}
	return b.String(), unattributed, nil
}
