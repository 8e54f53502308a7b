package sched

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolCtxStopsClaiming: a cancelled context stops the pool from
// starting new items; already-started items finish.
func TestPoolCtxStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	n := PoolCtx(ctx, 4, 1000, func(i int) {
		if started.Add(1) == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if n >= 1000 {
		t.Fatalf("started all %d items despite cancellation", n)
	}
	if n != int(started.Load()) {
		t.Fatalf("PoolCtx returned %d, started %d", n, started.Load())
	}
}

// TestPoolDeterministicCoverage: every index is claimed exactly once at
// any width.
func TestPoolDeterministicCoverage(t *testing.T) {
	for _, jobs := range []int{1, 3, 8} {
		var hits [257]atomic.Int64
		Pool(jobs, len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("jobs=%d: index %d claimed %d times", jobs, i, hits[i].Load())
			}
		}
	}
}
