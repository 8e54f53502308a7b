package sampling

import (
	"math"
	"testing"

	"dmdp/internal/isa"
	"dmdp/internal/trace"
)

// phaseEntries builds n synthetic entries that loop over blockCount
// distinct basic blocks rooted at basePC (each block: 3 plain ops then a
// control op), giving phases with disjoint PC footprints distinct BBVs.
func phaseEntries(n int, basePC uint32, blockCount int) []trace.Entry {
	var out []trace.Entry
	for len(out) < n {
		for b := 0; b < blockCount && len(out) < n; b++ {
			pc := basePC + uint32(b)*16
			out = append(out,
				trace.Entry{PC: pc, Instr: isa.Instr{Op: isa.OpADD}},
				trace.Entry{PC: pc + 4, Instr: isa.Instr{Op: isa.OpADDI}},
				trace.Entry{PC: pc + 8, Instr: isa.Instr{Op: isa.OpXOR}},
				trace.Entry{PC: pc + 12, Instr: isa.Instr{Op: isa.OpBNE}, Taken: true},
			)
		}
	}
	return out[:n]
}

// chunkBBVs computes the basic-block vector of every full chunkLen-sized
// chunk of entries: the profiling pass's BBVs, over a built trace.
func chunkBBVs(entries []trace.Entry, chunkLen int) [][BBVDim]float64 {
	var out [][BBVDim]float64
	var acc BBVAccum
	for i := 0; i+chunkLen <= len(entries); i += chunkLen {
		for j := i; j < i+chunkLen; j++ {
			acc.Add(&entries[j])
		}
		out = append(out, acc.Finish())
	}
	return out
}

func TestBBVAccumNormalizedAndDeterministic(t *testing.T) {
	ents := phaseEntries(400, 0x100, 5)
	var a, b BBVAccum
	for i := range ents {
		a.Add(&ents[i])
		b.Add(&ents[i])
	}
	va, vb := a.Finish(), b.Finish()
	if va != vb {
		t.Fatal("identical inputs must produce identical BBVs")
	}
	var sum float64
	for _, x := range va {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("BBV not L1-normalized: sum %f", sum)
	}
	// The accumulator must reset after Finish.
	for i := range ents {
		a.Add(&ents[i])
	}
	if a.Finish() != va {
		t.Fatal("accumulator not reset by Finish")
	}
}

func TestKmeansSeparatesPhases(t *testing.T) {
	// Two well-separated phases, interleaved A A A B B B A A A ...
	a := phaseEntries(300, 0x1000, 4)
	b := phaseEntries(300, 0x8000, 7)
	var ents []trace.Entry
	for blk := 0; blk < 6; blk++ {
		src := a
		if blk%2 == 1 {
			src = b
		}
		ents = append(ents, src...)
	}
	bbvs := chunkBBVs(ents, 300)
	if len(bbvs) != 6 {
		t.Fatalf("chunks %d", len(bbvs))
	}
	assign := kmeans(bbvs, 2)
	for i := 2; i < len(assign); i += 2 {
		if assign[i] != assign[0] || assign[i+1] != assign[1] {
			t.Fatalf("phases not separated: %v", assign)
		}
	}
	if assign[0] == assign[1] {
		t.Fatalf("distinct phases merged: %v", assign)
	}
}

func TestKmeansDeterministic(t *testing.T) {
	ents := append(phaseEntries(1000, 0x100, 3), phaseEntries(1000, 0x9000, 9)...)
	bbvs := chunkBBVs(ents, 100)
	a := kmeans(bbvs, 4)
	b := kmeans(bbvs, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("kmeans must be deterministic")
		}
	}
}

func TestAutoPlanWeightsAndAlignment(t *testing.T) {
	// 4 chunks of phase A, 2 of phase B: weights must be 2/3 and 1/3.
	a := phaseEntries(200, 0x1000, 4)
	b := phaseEntries(200, 0x8000, 7)
	var ents []trace.Entry
	for _, src := range [][]trace.Entry{a, a, b, a, b, a} {
		ents = append(ents, src...)
	}
	plan, err := AutoPlan(chunkBBVs(ents, 200), 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Intervals) != 2 {
		t.Fatalf("intervals %d", len(plan.Intervals))
	}
	var wsum float64
	prev := -1
	for _, iv := range plan.Intervals {
		if iv.Start%200 != 0 || iv.End != iv.Start+200 {
			t.Fatalf("interval [%d,%d) not chunk-aligned", iv.Start, iv.End)
		}
		if iv.Start <= prev {
			t.Fatal("intervals must ascend")
		}
		prev = iv.Start
		wsum += iv.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum %f", wsum)
	}
	w0 := plan.Intervals[0].Weight
	w1 := plan.Intervals[1].Weight
	hi, lo := math.Max(w0, w1), math.Min(w0, w1)
	if math.Abs(hi-4.0/6) > 1e-9 || math.Abs(lo-2.0/6) > 1e-9 {
		t.Fatalf("weights %f/%f, want 4/6 and 2/6", hi, lo)
	}
}

func TestAutoPlanErrors(t *testing.T) {
	if _, err := AutoPlan(nil, 100, 2); err == nil {
		t.Fatal("no chunks must fail")
	}
	if _, err := AutoPlan(make([][BBVDim]float64, 3), 0, 2); err == nil {
		t.Fatal("zero chunk length must fail")
	}
}
