package main

import (
	"fmt"
	"strings"
	"sync"
)

// checker counts the operations a repetition attempts and those that
// fail: a run error, a litmus violation, a difftest divergence, an empty
// experiment output, or a simulated output whose digest differs from the
// expected one. It is safe for concurrent use.
type checker struct {
	want map[string]string // expected digests; nil = do not compare
	mu   sync.Mutex
	got  map[string]string
	// parent, when set, makes this the checker of a borrowed small-size
	// run: its errors count against parent, its digests are not
	// compared.
	parent *checker

	attempted, failed int
	failures          []string
}

func newChecker(want map[string]string) *checker {
	return &checker{want: want, got: make(map[string]string)}
}

// op records one attempted operation; a non-nil err fails it.
func (c *checker) op(name string, err error) {
	if c.parent != nil {
		c.parent.op(name, err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf("%s: %v", name, firstLine(err.Error())))
	}
}

// fail records one failed operation.
func (c *checker) fail(name string, err error) { c.op(name, err) }

// digest records the digest of a simulated output and compares it with
// the expected one; a mismatch or a missing expectation fails the
// operation.
func (c *checker) digest(name, got string) {
	if c.parent != nil {
		return
	}
	c.mu.Lock()
	c.got[name] = got
	want, ok := c.want[name]
	c.mu.Unlock()
	switch {
	case c.want == nil:
		c.op(name, nil)
	case !ok:
		c.op(name, fmt.Errorf("no expected digest"))
	case want != got:
		c.op(name, fmt.Errorf("digest %.16s, expected %.16s", got, want))
	default:
		c.op(name, nil)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
