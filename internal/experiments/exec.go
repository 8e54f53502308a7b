package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"

	"dmdp/internal/artifact"
	"dmdp/internal/trace"
)

// The runner executes three kinds of run — single-core runs, multicore
// machine runs and sampled runs — through one path: an in-memory
// singleflight table per kind (join), then the artifact store (a hit
// skips even the trace build; in verify mode the hit is re-simulated
// and compared), then the simulation itself. Failed, cancelled and
// fault-injected runs are never persisted.

// outcome is one completed (or failed) run of any kind. Failures are
// cached too (negative caching): a deterministic failure would fail
// again, so experiments sharing the run all see the same error without
// re-simulating — and without consuming the retry a second time.
type outcome[T any] struct {
	val        T
	err        error // bare cause; labels are attached per caller
	panicked   bool
	retried    bool
	canceled   bool // context cancellation, never negative-cached
	diagnostic string
}

// flight is an in-flight or completed run (inline singleflight): the
// first caller executes, every later caller with the same key waits on
// wg and shares the outcome.
type flight[T any] struct {
	wg  sync.WaitGroup
	res outcome[T]
}

// join executes the run under key at most once: the first caller runs
// exec, concurrent and later callers share its outcome. A cancellation
// is a scheduling outcome, not a property of the run, so it is evicted
// from the table and a later request (longer deadline) runs afresh.
func join[K comparable, T any](r *Runner, calls map[K]*flight[T], key K, exec func() outcome[T]) outcome[T] {
	r.mu.Lock()
	c, ok := calls[key]
	if ok {
		r.mu.Unlock()
		c.wg.Wait()
		return c.res
	}
	c = &flight[T]{}
	c.wg.Add(1)
	calls[key] = c
	r.mu.Unlock()

	c.res = exec()
	if c.res.canceled {
		r.mu.Lock()
		if calls[key] == c {
			delete(calls, key)
		}
		r.mu.Unlock()
	}
	c.wg.Done()
	return c.res
}

// job describes one run to the shared executor.
type job[T any] struct {
	bench, label string
	// key addresses the run's record in the store, and load and save
	// read and write it; load is nil for a run that is never persisted.
	// canon is the canonical encoding verify mode compares.
	key   artifact.Key
	load  func() (T, string, bool)
	save  func(T)
	canon func(T) []byte
	// sim performs one simulation attempt over the benchmark's trace;
	// traced asks for the pipeline tracer (the retry of a failed
	// single-core run).
	sim func(ctx context.Context, tr *trace.Trace, traced bool) (T, error)
	// retry re-runs a failure once with traced set.
	retry bool
}

// execute performs a run that missed the in-memory table.
func execute[T any](ctx context.Context, r *Runner, j *job[T]) outcome[T] {
	if j.load != nil {
		if v, path, hit := j.load(); hit {
			if !r.opt.Cache.VerifyEnabled() {
				return outcome[T]{val: v}
			}
			return verifyHit(ctx, r, j, path, v)
		}
	}
	tr, err := r.Trace(j.bench)
	if err != nil {
		// A canceled build is a scheduling outcome like a canceled run:
		// flag it so join evicts the negative entry and a later request
		// (longer deadline) rebuilds.
		return outcome[T]{err: err, canceled: IsCanceled(err)}
	}
	var res outcome[T]
	attempts := 1
	if j.retry {
		attempts = 2
	}
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if res.err == nil {
				res.err = err // cancelled before the first attempt started
			}
			break
		}
		res.retried = attempt > 1
		r.sims.Add(1)
		// The retry runs with the tracer attached: a transient failure
		// recovers, a deterministic one is declared failed with
		// stage-timing diagnostics.
		res.val, res.err, res.panicked = simulate(ctx, j, tr, res.retried)
		if res.err == nil || IsCanceled(res.err) {
			break // a cancellation cannot be helped by retrying
		}
	}
	if res.err != nil {
		var zero T
		res.val = zero
		res.canceled = IsCanceled(res.err) || ctx.Err() != nil
		res.diagnostic = diagnosticFor(res.err)
		return res
	}
	if j.load != nil {
		j.save(res.val)
	}
	return outcome[T]{val: res.val}
}

// verifyHit is the stale-artifact oracle (-cache verify): re-simulate a
// store hit from scratch and compare canonical encodings. A mismatch is
// a hard failure with a structured diagnostic — the cached entry is
// stale or the simulator is nondeterministic. On success the cached
// result is returned (not the fresh one), so verify-mode output is
// byte-identical to a plain warm run.
func verifyHit[T any](ctx context.Context, r *Runner, j *job[T], path string, cached T) outcome[T] {
	tr, err := r.Trace(j.bench)
	if err != nil {
		return outcome[T]{err: err, canceled: IsCanceled(err)}
	}
	r.sims.Add(1)
	fresh, err, panicked := simulate(ctx, j, tr, false)
	if err != nil {
		return outcome[T]{
			err: err, panicked: panicked,
			canceled:   IsCanceled(err),
			diagnostic: diagnosticFor(err),
		}
	}
	cb, fb := j.canon(cached), j.canon(fresh)
	if !bytes.Equal(cb, fb) {
		verr := artifact.NewVerifyError(j.key, path, j.bench, j.label, cb, fb)
		return outcome[T]{err: verr, diagnostic: verr.Error()}
	}
	return outcome[T]{val: cached}
}

// simulate runs one attempt of j, converting panics into errors so one
// corrupted benchmark cannot take down the suite.
func simulate[T any](ctx context.Context, j *job[T], tr *trace.Trace, traced bool) (v T, err error, panicked bool) {
	defer func() {
		if rec := recover(); rec != nil {
			var zero T
			v = zero
			err = fmt.Errorf("panic: %v\n%s", rec, trimStack(debug.Stack()))
			panicked = true
		}
	}()
	v, err = j.sim(ctx, tr, traced)
	return v, err, false
}

// trimStack keeps the top frames of a panic stack — enough to locate the
// fault without drowning the failure table.
func trimStack(stack []byte) string {
	lines := strings.Split(strings.TrimSpace(string(stack)), "\n")
	const keep = 13 // goroutine header + 6 frames (2 lines each)
	if len(lines) > keep {
		lines = append(lines[:keep], "...")
	}
	return strings.Join(lines, "\n")
}

// deliver converts a cached outcome into this caller's view: successes
// pass through, failures are recorded under the caller's label (each
// labelled use of a broken run gets its own failure row, deduplicated).
func deliver[T any](r *Runner, name, label string, res outcome[T]) (T, error) {
	if res.err != nil {
		r.recordFailure(Failure{
			Bench: name, Label: label, Err: res.err,
			Panicked: res.panicked, Retried: res.retried,
			Diagnostic: res.diagnostic,
		})
		var zero T
		return zero, fmt.Errorf("experiments: %s (%s): %w", name, label, res.err)
	}
	return res.val, nil
}
