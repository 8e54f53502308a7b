package isa

// The per-opcode predicates and the operand shape of Instr.Srcs/Dest are
// read on every simulated instruction, so they are table lookups. The
// tables are built once from the switches that define them (classOf,
// isBranchOp, isJumpOp, destOf, srcsOf), which stay the one definition;
// TestDecodeTableMatchesSwitches checks all 256 opcodes.

// Opcode flags.
const (
	opLoad uint8 = 1 << iota
	opStore
	opBranch
	opJump
)

// regField names the Instr field an operand comes from.
type regField uint8

const (
	fieldNone regField = iota
	fieldRd
	fieldRs
	fieldRt
	fieldRA // the link register, whatever the fields hold
)

// opInfo is one opcode's decoded shape.
type opInfo struct {
	class Class
	flags uint8
	dest  regField
	nSrcs uint8
	srcs  [2]regField
}

// opTable covers every value of Op, encodable or not.
var opTable = buildOpTable()

func buildOpTable() (t [256]opInfo) {
	// Distinct, nonzero probe registers (none is RA) reveal which field
	// each operand of the switch definitions comes from.
	fieldOf := func(r Reg) regField {
		switch r {
		case NoReg:
			return fieldNone
		case 1:
			return fieldRd
		case 2:
			return fieldRs
		case 3:
			return fieldRt
		case RA:
			return fieldRA
		}
		panic("isa: operand from no field")
	}
	for k := range t {
		o := Op(k)
		info := &t[k]
		info.class = classOf(o)
		switch info.class {
		case ClassLoad:
			info.flags |= opLoad
		case ClassStore:
			info.flags |= opStore
		}
		if isBranchOp(o) {
			info.flags |= opBranch
		}
		if isJumpOp(o) {
			info.flags |= opJump
		}
		probe := Instr{Op: o, Rd: 1, Rs: 2, Rt: 3}
		info.dest = fieldOf(destOf(probe))
		srcs := srcsOf(probe, nil)
		if len(srcs) > len(info.srcs) {
			panic("isa: more sources than the decode table holds")
		}
		info.nSrcs = uint8(len(srcs))
		for j, r := range srcs {
			info.srcs[j] = fieldOf(r)
		}
	}
	return t
}
