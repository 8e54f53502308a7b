package sampling

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"dmdp/internal/trace"
)

// Source supplies the standalone sub-trace for each interval of a plan.
// IntervalTrace must be safe for concurrent calls with distinct indices
// (RunPlan invokes it from pool workers).
type Source interface {
	// IntervalTrace returns interval i extended backwards by the plan's
	// warmup (clamped at the trace start) as a runnable trace, plus the
	// number of warmup entries actually prepended.
	IntervalTrace(i int) (*trace.Trace, int, error)
}

// warmProvider is the optional Source extension for functional warming.
// RunPlan type-asserts for it after IntervalTrace succeeds.
type warmProvider interface {
	// IntervalWarm returns the warm snapshot to install before running
	// interval i, or nil for a cold start. Only valid after
	// IntervalTrace(i) returned, from the same worker.
	IntervalWarm(i int) []byte
	// WarmInstallFailed records that interval i's snapshot was rejected
	// at install time and the interval ran cold.
	WarmInstallFailed(i int)
}

// warmCollector accumulates a stream source's per-interval warm
// snapshots and its warmed/cold accounting. A nil snapshot is a
// cold start; the first one emits a structured warning (subsequent ones
// only count, to keep a badly degraded cache from flooding stderr).
type warmCollector struct {
	snaps     [][]byte
	warmed    atomic.Int64
	cold      atomic.Int64
	snapBytes atomic.Int64
	warnOnce  sync.Once
}

func newWarmCollector(n int) *warmCollector {
	return &warmCollector{snaps: make([][]byte, n)}
}

func (wc *warmCollector) set(i int, snap []byte, start, end int) {
	wc.snaps[i] = snap
	if snap != nil {
		wc.warmed.Add(1)
		wc.snapBytes.Add(int64(len(snap)))
		return
	}
	wc.cold.Add(1)
	wc.warnOnce.Do(func() {
		fmt.Fprintf(os.Stderr,
			"sampling: warning: warm state unavailable for interval [%d,%d); cold-starting (event=warm_cold_start)\n",
			start, end)
	})
}

// get and installFailed tolerate a nil collector (warming off): the
// stream source satisfies the warm interface unconditionally.
func (wc *warmCollector) get(i int) []byte {
	if wc == nil {
		return nil
	}
	return wc.snaps[i]
}

func (wc *warmCollector) installFailed(i int) {
	if wc == nil {
		return
	}
	wc.warmed.Add(-1)
	wc.cold.Add(1)
	wc.snapBytes.Add(-int64(len(wc.snaps[i])))
}

func (wc *warmCollector) stats() (warmed, cold, snapBytes int64) {
	return wc.warmed.Load(), wc.cold.Load(), wc.snapBytes.Load()
}

// beginOf returns the warmup-extended begin of interval i under the plan.
func beginOf(plan Plan, i int) (begin, warm int) {
	iv := plan.Intervals[i]
	warm = plan.Warmup
	if warm > iv.Start {
		warm = iv.Start
	}
	return iv.Start - warm, warm
}
