package isa

import (
	"math/rand"
	"slices"
	"testing"
)

// TestDecodeTableMatchesSwitches: for every one of the 256 Op values,
// the table-driven predicates and operand shapes equal the switches the
// table is built from, whatever the register fields hold ($0, $ra,
// out-of-range values included).
func TestDecodeTableMatchesSwitches(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	regs := []Reg{Zero, AT, T0, RA, HwAddr, NoReg}
	for k := 0; k < 256; k++ {
		o := Op(k)
		class := classOf(o)
		branch, jump := isBranchOp(o), isJumpOp(o)
		if o.Class() != class {
			t.Errorf("%d: Class %d, switch %d", k, o.Class(), class)
		}
		if o.IsLoad() != (class == ClassLoad) || o.IsStore() != (class == ClassStore) ||
			o.IsMem() != (class == ClassLoad || class == ClassStore) {
			t.Errorf("%d: memory predicates disagree with class %d", k, class)
		}
		if o.IsBranch() != branch || o.IsJump() != jump || o.IsControl() != (branch || jump) {
			t.Errorf("%d: control predicates disagree with the switches", k)
		}
		var probes []Instr
		for _, rd := range regs {
			for _, rs := range regs {
				for _, rt := range regs {
					probes = append(probes, Instr{Op: o, Rd: rd, Rs: rs, Rt: rt})
				}
			}
		}
		for n := 0; n < 64; n++ {
			probes = append(probes, Instr{Op: o, Rd: Reg(r.Intn(256)), Rs: Reg(r.Intn(256)), Rt: Reg(r.Intn(256))})
		}
		for _, in := range probes {
			if got, want := in.Dest(), destOf(in); got != want {
				t.Fatalf("%+v: Dest %v, switch %v", in, got, want)
			}
			if got, want := in.Srcs(nil), srcsOf(in, nil); !slices.Equal(got, want) {
				t.Fatalf("%+v: Srcs %v, switch %v", in, got, want)
			}
		}
	}
}
