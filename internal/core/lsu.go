package core

import (
	"fmt"

	"dmdp/internal/config"
	"dmdp/internal/isa"
	"dmdp/internal/memdep"
	"dmdp/internal/trace"
)

// This file holds the store-load communication logic of the four models:
// rename-time decisions (direct / cloak / delay / predicate / store-set
// scheduling), load issue (including the baseline's store queue search),
// access completion, the predication MicroOps, the baseline's ordering
// violation detection and the retire-stage SVW verification with its
// predictor training (including the silent-store-aware update policy).

// ---------- rename: stores ----------

func (c *Core) renameStore(in *inst) {
	e := c.entry(in)
	// The data register is read at commit: extend its lifetime.
	in.dataPhys = c.rf.rat[e.Instr.Rt]
	c.rf.addConsumer(in.dataPhys)
	// Crack: AGI computes (and translates) the address into a dedicated
	// physical register, also read at commit.
	base := c.rf.rat[e.Instr.Rs]
	in.addrPhys = c.mapAux(in, isa.HwAddr)
	c.rf.addConsumer(in.addrPhys)
	agi := c.newUop(in, uopAGI, isa.ClassALU, []int{base}, in.addrPhys)

	c.ssn.Rename++
	in.ssn = c.ssn.Rename
	if in.ssn != e.StoreSeq() {
		c.fail(&SimError{
			Kind: ErrDesync, Idx: in.idx, PC: e.PC, Disasm: e.Instr.String(),
			Msg: fmt.Sprintf("SSN desync: renamed store got %d, trace says %d", in.ssn, e.StoreSeq()),
		})
	}
	c.srb.add(srbEntry{ssn: in.ssn, idx: in.idx, seq: in.seq, dataPhys: in.dataPhys, addrPhys: in.addrPhys})

	switch c.cfg.Model {
	case config.Baseline:
		// Store Sets also serialize the stores of a set: this store's
		// address generation waits for the previous store in its set
		// (Chrysos & Emer's in-order store-set execution rule).
		if prevSeq := c.sets.StoreRenamed(e.PC, in.seq); prevSeq != 0 {
			if prev := c.rob.bySeq(prevSeq); prev != nil && !prev.addrReady {
				agi.gate = gateStoreExec
				agi.gateArg = prev.seq
			}
		}
	case config.FnF:
		c.renameStoreFnF(in)
	}
	c.finishUopSetup(agi)
}

// ---------- rename: loads ----------

func (c *Core) renameLoad(in *inst) {
	e := c.entry(in)
	base := c.rf.rat[e.Instr.Rs]
	in.addrPhys = c.mapAux(in, isa.HwAddr)
	agi := c.newUop(in, uopAGI, isa.ClassALU, []int{base}, in.addrPhys)
	in.actualInFly = e.DepStore > 0 && e.DepStore > c.ssn.Commit
	in.srcSSN = -1

	switch c.cfg.Model {
	case config.Perfect:
		c.renameLoadPerfect(in)
	case config.Baseline:
		c.renameLoadBaseline(in)
	case config.FnF:
		c.renameLoadFnF(in)
	default:
		c.renameLoadSQFree(in)
	}
	c.finishUopSetup(agi)
}

func (c *Core) renameLoadPerfect(in *inst) {
	e := c.entry(in)
	d := e.Instr.Dest()
	if d != isa.NoReg && in.actualInFly && e.DepOverlap == trace.OverlapFull {
		if se := c.srb.get(e.DepStore); se != nil {
			in.ssnByp = e.DepStore
			in.predIdx = se.idx
			c.setupCloak(in, d, se)
			return
		}
	}
	c.setupDirectLoad(in, d)
}

func (c *Core) renameLoadBaseline(in *inst) {
	e := c.entry(in)
	d := e.Instr.Dest()
	dst := -1
	if d != isa.NoReg {
		dst = c.mapDest(in, d)
	}
	in.cat = LoadDirect
	ld := c.newUop(in, uopLoad, isa.ClassLoad, []int{in.addrPhys}, dst)
	// Store Sets: the load may not issue before its set's last fetched
	// store resolves its address.
	if waitSeq := c.sets.LoadRenamed(e.PC); waitSeq != 0 {
		if st := c.rob.bySeq(waitSeq); st != nil && !st.addrReady {
			ld.gate = gateStoreExec
			ld.gateArg = st.seq
		}
	}
	c.finishUopSetup(ld)
}

// renameLoadSQFree implements NoSQ and DMDP (paper Table I): consult the
// Store Distance Predictor; a confident prediction cloaks, a
// low-confidence one delays (NoSQ) or predicates (DMDP); everything else
// reads the cache directly.
func (c *Core) renameLoadSQFree(in *inst) {
	e := c.entry(in)
	d := e.Instr.Dest()
	pred, hit := c.sdp.Predict(e.PC, in.histAtRen)
	c.stats.SDPReads++
	if c.inj != nil && hit {
		// Benign faults: a perturbed distance targets the wrong store and
		// a demoted confidence forces the delay/predication path; the
		// SVW verification must absorb both.
		if c.inj.FlipPrediction() {
			pred.Dist++
		}
		if pred.Confident && c.inj.ForceLowConf() {
			pred.Confident = false
		}
	}
	in.predHit = hit

	var se *srbEntry
	if hit {
		in.usedDist = pred.Dist
		ssnByp := c.ssn.Rename - pred.Dist
		// Table I row 1: no dependence, or the store already committed
		// and updated the cache -> plain cache read.
		if ssnByp >= 1 && ssnByp > c.ssn.Commit {
			se = c.srb.get(ssnByp)
			if se != nil {
				in.ssnByp = ssnByp
				in.predIdx = se.idx
			}
		}
	}
	if se == nil || d == isa.NoReg {
		c.setupDirectLoad(in, d)
		return
	}

	partial := e.Size < 4
	confident := pred.Confident
	if c.cfg.Model == config.DMDP && partial {
		// Partial-word loads are prohibited from cloaking (alignment
		// and sign/zero extension); they are forced onto predication
		// (paper §IV-D).
		confident = false
	}
	if confident {
		c.setupCloak(in, d, se)
		return
	}
	in.lowConf = true
	if c.cfg.Model == config.NoSQ {
		c.setupDelayed(in, d)
	} else {
		c.setupPredicated(in, d, se)
	}
}

func (c *Core) setupDirectLoad(in *inst, d isa.Reg) {
	dst := -1
	if d != isa.NoReg {
		dst = c.mapDest(in, d)
	}
	in.cat = LoadDirect
	ld := c.newUop(in, uopLoad, isa.ClassLoad, []int{in.addrPhys}, dst)
	c.finishUopSetup(ld)
}

// setupCloak renames the load's destination onto the predicted store's
// data register (memory cloaking): the load never reads the cache.
func (c *Core) setupCloak(in *inst, d isa.Reg, se *srbEntry) {
	p := se.dataPhys
	c.rf.addProducer(p)
	c.rf.rat[d] = p
	in.destLog = int(d)
	in.destPhys = p
	in.cat = LoadBypass
	c.stats.Cloaks++
	in.gotValue = forwardValue(&c.tr.Entries[se.idx], c.entry(in))
	in.readCache = false
	// Zero-cost tracker: the load's value is available when the store's
	// data register is (possibly before rename; execution time floors
	// at zero).
	track := c.newUop(in, uopCloakTrack, isa.ClassALU, []int{p}, -1)
	c.finishUopSetup(track)
}

// setupDelayed implements NoSQ's low-confidence handling: the load waits
// in the delayed-load structure until the predicted store commits, then
// reads the cache.
func (c *Core) setupDelayed(in *inst, d isa.Reg) {
	dst := c.mapDest(in, d)
	in.cat = LoadDelayed
	c.stats.DelayedLoads++
	ld := c.newUop(in, uopLoad, isa.ClassLoad, []int{in.addrPhys}, dst)
	ld.gate = gateSSNCommit
	ld.gateArg = in.ssnByp
	c.finishUopSetup(ld)
}

// setupPredicated inserts the DMDP predication sequence (paper Fig. 8):
//
//	LD   tmp  <- (addr)            ; reads the cache
//	CMP  pred <- (addr == st.addr) ; carries shift/type information
//	CMOV dst  <- pred  ? st.data
//	CMOV dst  <- !pred ? tmp
//
// Both CMOVs share the destination register (producer count 2); the
// store's data and address registers gain consumers so they survive until
// the MicroOps read them.
func (c *Core) setupPredicated(in *inst, d isa.Reg, se *srbEntry) {
	tmp := c.mapAux(in, isa.HwTmp)
	prd := c.mapAux(in, isa.HwPred)
	dst := c.mapDest(in, d)
	c.rf.addProducer(dst) // second CMOV definition

	in.cat = LoadPredicated
	c.stats.Predications++
	in.predAddrPhys = se.addrPhys
	in.predDataPhys = se.dataPhys
	c.rf.addConsumer(se.addrPhys)
	c.rf.addConsumer(se.dataPhys)

	ld := c.newUop(in, uopLoad, isa.ClassLoad, []int{in.addrPhys}, tmp)
	cmp := c.newUop(in, uopCMP, isa.ClassALU, []int{in.addrPhys, se.addrPhys}, prd)
	cm1 := c.newUop(in, uopCMOV, isa.ClassALU, []int{prd, se.dataPhys}, dst)
	cm1.cmovSel = true
	cm2 := c.newUop(in, uopCMOV, isa.ClassALU, []int{prd, tmp}, dst)
	c.finishUopSetup(ld)
	c.finishUopSetup(cmp)
	c.finishUopSetup(cm1)
	c.finishUopSetup(cm2)
}

// ---------- issue: loads ----------

// issueLoad starts a load's memory access. Returns true when the uop
// re-gated itself instead of issuing (baseline replays).
func (c *Core) issueLoad(u *uop) bool {
	if c.cfg.Model == config.Baseline {
		return c.issueLoadBaseline(u)
	}
	in := c.rob.instOf(u)
	u.issued = true
	c.stats.CacheAccesses++
	c.events.schedule(c.hier.Access(c.now, c.entry(in).Addr, false), u)
	return false
}

// issueLoadBaseline searches the (conceptual) store queue and store
// buffer: the youngest older in-flight store with a resolved address and
// overlapping bytes forwards (constant SQAccessLat, like the paper's
// 4-cycle SQ/SB/cache access); partial overlap waits for that store to
// commit; no match reads the cache. Older stores with unresolved
// addresses are speculatively ignored — the violation check catches them.
func (c *Core) issueLoadBaseline(u *uop) bool {
	in := c.rob.instOf(u)
	e := c.entry(in)
	c.stats.SQSearches++

	var found *srbEntry
	for ssn := e.StoresBefore; ssn > c.ssn.Commit; ssn-- {
		se := c.srb.get(ssn)
		if se == nil {
			continue
		}
		if inflight := c.rob.bySeq(se.seq); inflight != nil && !inflight.addrReady {
			continue // address unknown: speculate past it
		}
		st := &c.tr.Entries[se.idx]
		if st.WordAddr() == e.WordAddr() && st.BAB()&e.BAB() != 0 {
			found = se
			break
		}
	}
	if found == nil {
		u.issued = true
		c.stats.CacheAccesses++
		c.events.schedule(c.hier.Access(c.now, e.Addr, false), u)
		return false
	}
	st := &c.tr.Entries[found.idx]
	if st.BAB()&e.BAB() != e.BAB() {
		// Partial overlap: wait for the store to commit, then retry.
		u.gate = gateSSNCommit
		u.gateArg = found.ssn
		c.delayed = append(c.delayed, u.ref)
		return true
	}
	if c.rob.bySeq(found.seq) != nil && !c.rf.regs[found.dataPhys].ready {
		// Forwarder's data not produced yet: replay when it is. The
		// uop's operand waits were all walked before it issued, so its
		// first wait link is free.
		u.waitCnt++
		c.await(found.dataPhys, u, 0)
		return true
	}
	// Forward from the SQ (in-ROB store) or SB (retired store).
	u.issued = true
	in.srcSSN = found.ssn
	in.forwardIdx = found.idx
	c.events.schedule(c.now+c.cfg.SQAccessLat, u)
	return false
}

// ---------- completion ----------

func (c *Core) readCacheValue(e *trace.Entry) uint32 {
	return trace.ExtendLoad(e.Instr.Op, c.image.Read(e.Addr, uint32(e.Size)))
}

func (c *Core) completeLoadAccess(u *uop) {
	in := c.rob.instOf(u)
	e := c.entry(in)

	if in.cat == LoadPredicated {
		// The LD half of a predication: keep the cache value; the
		// selected CMOV publishes the final result.
		in.cacheValue = c.readCacheValue(e)
		in.cacheValueSeen = true
		in.ssnNvul = c.ssn.Commit
		c.writeback(int(u.dst))
		return
	}

	if in.forwardIdx >= 0 {
		// Baseline store-queue/store-buffer forwarding.
		in.gotValue = forwardValue(&c.tr.Entries[in.forwardIdx], e)
		in.readCache = false
	} else {
		in.gotValue = c.readCacheValue(e)
		in.readCache = true
		in.ssnNvul = c.ssn.Commit
		if in.srcSSN < 0 {
			in.srcSSN = c.ssn.Commit
		}
	}
	if c.cfg.Model == config.Perfect {
		in.gotValue = e.Value // oracle loads are never wrong
	}
	in.valueAt = c.now
	c.writeback(int(u.dst))
}

// completeCMP computes the predicate: the predicted store forwards iff
// its word address matches the load's and its byte-access bits cover the
// load's (the predicate also carries the shift amount and load type, so
// the CMOV can align and extend the operand — folded into forwardValue).
func (c *Core) completeCMP(u *uop) {
	in := c.rob.instOf(u)
	st, e := &c.tr.Entries[in.predIdx], c.entry(in)
	in.predicate = st.WordAddr() == e.WordAddr() && st.BAB()&e.BAB() == e.BAB()
	if c.inj != nil && c.inj.CorruptPredicate() {
		// Benign fault: the wrong CMOV arm publishes; retire-time
		// verification (or, failing that, the oracle) must catch it.
		in.predicate = !in.predicate
	}
	in.predicateDone = true
	c.rf.dropConsumer(in.predAddrPhys)
	c.checkRefs(in.idx)
	c.writeback(int(u.dst))
}

func (c *Core) completeCMOV(u *uop) {
	in := c.rob.instOf(u)
	if !in.predicateDone {
		c.fail(&SimError{
			Kind: ErrDesync, Idx: in.idx, PC: c.entry(in).PC, Disasm: c.entry(in).Instr.String(),
			Msg: "CMOV executed before its predicate",
		})
		return
	}
	if u.cmovSel {
		c.rf.dropConsumer(in.predDataPhys)
	}
	if u.cmovSel != in.predicate {
		// Predicate not set for this arm: treated as a NOP — no
		// register write, no broadcast — and its definition of the
		// shared destination evaporates (producer counter decrement,
		// paper §IV-B), otherwise the register would leak.
		c.rf.dropProducer(int(u.dst))
		c.checkRefs(in.idx)
		return
	}
	if in.predicate {
		in.gotValue = forwardValue(&c.tr.Entries[in.predIdx], c.entry(in))
		in.readCache = false
	} else {
		in.gotValue = in.cacheValue
		in.readCache = true
	}
	in.valueAt = c.now
	c.writeback(int(u.dst))
}

// ---------- baseline ordering violations ----------

// checkViolations runs when a store's address resolves: any younger load
// that already obtained (or requested) its value from an older source
// missed this store and must re-execute — flagged here, recovered when it
// reaches the head (flush + refetch from the load). The store set
// predictor learns the pair.
func (c *Core) checkViolations(st *inst) {
	se := c.entry(st)
	// The ROB holds consecutive seqs: the younger instructions follow
	// the store's slot.
	for i := int(st.seq-c.rob.front().seq) + 1; i < c.rob.len(); i++ {
		l := c.rob.at(i)
		if !l.isLoad() || l.violated {
			continue
		}
		le := c.entry(l)
		if le.WordAddr() != se.WordAddr() || le.BAB()&se.BAB() == 0 {
			continue
		}
		if le.StoresBefore < st.ssn {
			continue // the store is younger in program order
		}
		issued := false
		for k := range l.uops[:l.nUops] {
			if lu := &l.uops[k]; lu.kind == uopLoad {
				issued = lu.issued
			}
		}
		if !issued {
			continue // will search again and see this store
		}
		if l.srcSSN >= st.ssn {
			continue // got data from this store or a younger one
		}
		l.violated = true
		c.stats.Violations++
		c.sets.OnViolation(le.PC, se.PC)
	}
}

// ---------- retire-time verification ----------

type verifyResult int

const (
	verifyOK verifyResult = iota
	verifyStall
	verifyRecoverReplay
)

// verifyLoad implements the retire-stage check. SQ-free models consult
// the T-SSBF under the SVW policy (paper Table II); a required
// re-execution waits for the store buffer to drain (stalling retirement)
// and raises an exception — full flush — when the reloaded value differs.
func (c *Core) verifyLoad(in *inst) verifyResult {
	switch c.cfg.Model {
	case config.Perfect:
		return verifyOK
	case config.Baseline:
		if in.violated {
			c.stats.DepMispredicts++
			return verifyRecoverReplay
		}
		return verifyOK
	}

	e := c.entry(in)
	if !in.verifyChecked {
		in.verifyChecked = true
		c.progress = true
		ssn, tagMatch, covered := c.tssbf.LookupCovering(e.WordAddr(), e.BAB())
		c.stats.TSSBFReads++
		in.tssbfSSN, in.tssbfMatch, in.tssbfCovered = ssn, tagMatch, covered
		if in.readCache {
			in.needReexec = memdep.NeedsReexecCacheSourced(ssn, in.ssnNvul)
		} else {
			in.needReexec = memdep.NeedsReexecStoreSourced(ssn, in.ssnByp) || !covered
		}
		if in.needReexec {
			c.stats.Reexecs++
		}
	}

	if in.needReexec {
		if !c.sb.empty() {
			c.stats.ReexecStallCycle++
			return verifyStall
		}
		if in.reexecAt == 0 {
			in.reexecAt = c.hier.Access(c.now, e.Addr, false)
			c.stats.CacheAccesses++
			c.progress = true
		}
		if c.now < in.reexecAt {
			c.stats.ReexecStallCycle++
			return verifyStall
		}
		// Re-execution done: the store buffer is drained, so the
		// reload yields the architectural value.
		exception := in.gotValue != e.Value
		if exception {
			c.stats.DepMispredicts++
			c.stats.DepMispredictsByCat[in.cat]++
			if c.onDepMispredict != nil {
				c.onDepMispredict(in)
			}
			in.recoverAfter = true
			in.gotValue = e.Value
		}
		// Silent-store-aware policy (paper §IV-C a): learn the observed
		// dependence on every re-execution. The original policy only
		// trains when the reloaded value differs (an exception) — the
		// paper compares both in §VI-a.
		if exception || c.cfg.SilentStoreAwareUpdate {
			if c.cfg.Model == config.FnF {
				c.trainFnFAfterReexec(in)
			} else {
				c.trainSDP(in, true)
			}
		}
		in.needReexec = false
		in.didReexec = true
		return verifyOK
	}

	if c.cfg.Model == config.FnF {
		c.trainFnFNoReexec(in)
	} else {
		c.trainSDP(in, false)
	}
	return verifyOK
}

// trainSDP trains the distance predictor for a retiring load through
// memdep.TrainLoad, judged by the core's own evidence: a used
// prediction is correct when the T-SSBF names the predicted store (no
// tag-match check), and a collision needs a tag match within the
// predictor's 6-bit range.
func (c *Core) trainSDP(in *inst, reexecuted bool) {
	e := c.entry(in)
	actual := e.StoresBefore - in.tssbfSSN
	v := memdep.Verdict{
		Used:       in.ssnByp > 0,
		UsedDist:   in.usedDist,
		Correct:    in.tssbfSSN == in.ssnByp,
		Collided:   in.tssbfMatch && actual >= 0 && actual <= c.cfg.MaxDist(),
		ActualDist: actual,
		Reexecuted: reexecuted,
	}
	if memdep.TrainLoad(c.sdp, e.PC, in.histAtRen, v) {
		c.stats.SDPWrites++
	}
}
