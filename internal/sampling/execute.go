package sampling

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"dmdp/internal/config"
	"dmdp/internal/core"
	"dmdp/internal/sched"
)

// RunPlan simulates every interval of the plan under cfg on a worker pool
// of the given width and combines the results by weight.
//
// Determinism: workers claim intervals by index and write results into
// their slot, and the weighted combine walks the slots in plan order with
// the exact accumulation sequence of the original serial Run — so the
// Combined (including its canonical encoding) is byte-identical at any
// jobs width.
func RunPlan(ctx context.Context, cfg config.Config, plan Plan, src Source, jobs int) (*Combined, error) {
	n := len(plan.Intervals)
	if n == 0 {
		return nil, fmt.Errorf("sampling: empty plan")
	}
	if jobs <= 0 {
		jobs = 1
	}
	type slot struct {
		stats *core.Stats
		err   error
	}
	slots := make([]slot, n)
	started := sched.PoolCtx(ctx, jobs, n, func(i int) {
		iv := plan.Intervals[i]
		sub, warm, err := src.IntervalTrace(i)
		if err != nil {
			slots[i].err = err
			return
		}
		runCfg := cfg
		runCfg.WarmupInstructions = int64(warm)
		c, err := core.New(runCfg, sub)
		if err != nil {
			slots[i].err = err
			return
		}
		// Functional warming: install the pre-interval tag state before
		// the first cycle. A rejected snapshot leaves the core cold (the
		// install is transactional) and degrades this interval to a cold
		// start — never a failure, never divergent state.
		if wp, ok := src.(warmProvider); ok {
			if snap := wp.IntervalWarm(i); snap != nil {
				if ierr := c.InstallWarmState(snap); ierr != nil {
					fmt.Fprintf(os.Stderr,
						"sampling: warning: interval [%d,%d): %v; cold-starting (event=warm_install_rejected)\n",
						iv.Start, iv.End, ierr)
					wp.WarmInstallFailed(i)
				}
			}
		}
		st, err := c.RunContext(ctx)
		if err != nil {
			slots[i].err = fmt.Errorf("sampling: interval [%d,%d): %w", iv.Start, iv.End, err)
			return
		}
		if st.Instructions != int64(iv.End-iv.Start) {
			slots[i].err = fmt.Errorf("sampling: interval [%d,%d) measured %d instructions",
				iv.Start, iv.End, st.Instructions)
			return
		}
		slots[i].stats = st
	})
	if started < n {
		return nil, fmt.Errorf("sampling: canceled after %d of %d intervals: %w", started, n, ctx.Err())
	}
	var out Combined
	var wsum float64
	for i, iv := range plan.Intervals {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
		st := slots[i].stats
		out.Results = append(out.Results, IntervalResult{Interval: iv, Stats: st})
		out.WeightedIPC += iv.Weight * st.IPC()
		out.WeightedMPKI += iv.Weight * st.MPKI()
		out.TotalInstructions += st.Instructions
		out.TotalCycles += st.Cycles
		wsum += iv.Weight
	}
	if wsum > 0 {
		out.WeightedIPC /= wsum
		out.WeightedMPKI /= wsum
	}
	return &out, nil
}

// MarshalCanonical encodes the combined result in a fixed-width,
// schedule-independent form: per interval (in plan order) the bounds,
// weight bits and the canonical stats encoding (which deliberately
// excludes wall-clock time), then the weighted aggregates. Two sampled
// runs with identical inputs produce identical bytes regardless of -j
// width — the determinism oracle CI diffs.
func (c *Combined) MarshalCanonical() []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.Results)))
	for _, r := range c.Results {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Interval.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Interval.End))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Interval.Weight))
		buf = append(buf, r.Stats.MarshalCanonical()...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.WeightedIPC))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.WeightedMPKI))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.TotalInstructions))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.TotalCycles))
	return buf
}

// canonicalStatsSize is the length of one canonical core.Stats encoding.
var canonicalStatsSize = len(new(core.Stats).MarshalCanonical())

// UnmarshalCombined decodes a MarshalCanonical encoding (the DMDPSMP1
// artifact payload). The length must match the encoded interval count
// exactly.
func UnmarshalCombined(data []byte) (*Combined, error) {
	const head, tail = 8, 4 * 8
	per := 3*8 + canonicalStatsSize
	if len(data) < head+tail {
		return nil, fmt.Errorf("sampling: canonical combined length %d too short", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(len(data)/per) || len(data) != head+int(n)*per+tail {
		return nil, fmt.Errorf("sampling: canonical combined length %d does not hold %d intervals", len(data), n)
	}
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(data[off:]) }
	c := &Combined{Results: make([]IntervalResult, n)}
	off := head
	for i := range c.Results {
		st, err := core.UnmarshalCanonicalStats(data[off+24 : off+per])
		if err != nil {
			return nil, err
		}
		c.Results[i] = IntervalResult{
			Interval: Interval{Start: int(u64(off)), End: int(u64(off + 8)), Weight: math.Float64frombits(u64(off + 16))},
			Stats:    st,
		}
		off += per
	}
	c.WeightedIPC = math.Float64frombits(u64(off))
	c.WeightedMPKI = math.Float64frombits(u64(off + 8))
	c.TotalInstructions = int64(u64(off + 16))
	c.TotalCycles = int64(u64(off + 24))
	return c, nil
}
