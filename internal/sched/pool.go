// Package sched provides Pool and PoolCtx, the deterministic
// atomic-counter fan-out primitive the experiment runner, sampling,
// difftest and litmus sweeps schedule on. Work items are claimed by
// index, so callers that write results into slot i get
// schedule-independent output at any worker count.
package sched

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool runs f(0..n-1) on an atomic-counter worker pool of the given
// width (jobs <= 1 runs serially on the caller's goroutine).
func Pool(jobs, n int, f func(i int)) { PoolCtx(nil, jobs, n, f) }

// PoolCtx is Pool with cooperative cancellation: once ctx is done,
// workers stop claiming new items (items already started still finish —
// f is responsible for observing ctx itself if it wants mid-item
// cancellation). A nil ctx never cancels. Returns the number of items
// actually started.
func PoolCtx(ctx context.Context, jobs, n int, f func(i int)) int {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		started := 0
		for i := 0; i < n; i++ {
			if cancelled() {
				break
			}
			started++
			f(i)
		}
		return started
	}
	var next, started atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cancelled() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				started.Add(1)
				f(i)
			}
		}()
	}
	wg.Wait()
	return int(started.Load())
}
