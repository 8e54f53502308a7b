package core

import (
	"fmt"

	"dmdp/internal/memdep"
	"dmdp/internal/warm"
)

// InstallWarmState installs a functional warm snapshot (produced by the
// warm package over the instructions preceding this core's trace) into
// the detailed microarchitectural models: caches, TLB, branch predictor,
// store-distance predictor and T-SSBF. It must be called before Run.
//
// The install is transactional with respect to corruption: the snapshot
// is fully validated into a standalone warm.State first, and only then
// transplanted, so a bad snapshot returns an error and leaves the core
// exactly as cold as New built it — the caller degrades to a cold start,
// never to divergent state. Statistics counters are untouched. Only the
// two-table SDP has warm state; a TAGE-predictor core rejects it.
func (c *Core) InstallWarmState(snap []byte) error {
	sdp, ok := c.sdp.(*memdep.SDP)
	if !ok {
		return fmt.Errorf("core: warm state rejected: the TAGE distance predictor is not warmed")
	}
	ws, err := warm.FromSnapshot(warm.ConfigFrom(c.cfg), snap)
	if err != nil {
		return fmt.Errorf("core: warm state rejected: %w", err)
	}
	ws.InstallInto(c.hier, c.tlb, c.bp, sdp, c.tssbf)
	return nil
}
