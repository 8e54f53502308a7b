package isa

import "fmt"

// Instr is one decoded instruction.
//
// Field usage by format:
//   - R-type ALU:  Rd = dest, Rs/Rt = sources (shifts-by-immediate use Imm).
//   - I-type ALU:  Rt = dest, Rs = source, Imm = immediate.
//   - Loads:       Rt = dest, Rs = base, Imm = offset.
//   - Stores:      Rt = data source, Rs = base, Imm = offset.
//   - Branches:    Rs (and Rt for beq/bne) = sources, Imm = word displacement
//     relative to the next instruction.
//   - J/JAL:       Target = absolute word index (byte address >> 2).
//   - JR/JALR:     Rs = target register, Rd = link register (jalr).
type Instr struct {
	Op     Op
	Rd     Reg
	Rs     Reg
	Rt     Reg
	Imm    int32
	Target uint32
}

// Dest returns the destination logical register, or NoReg.
func (i Instr) Dest() Reg {
	d := i.field(opTable[i.Op].dest)
	if d == Zero {
		return NoReg // writes to $0 are discarded
	}
	return d
}

// Srcs appends the source logical registers to dst and returns it. $0 is
// included (it renames trivially) but NoReg slots are not.
func (i Instr) Srcs(dst []Reg) []Reg {
	t := &opTable[i.Op]
	for _, f := range t.srcs[:t.nSrcs] {
		dst = append(dst, i.field(f))
	}
	return dst
}

// field returns the register an operand field names.
func (i Instr) field(f regField) Reg {
	switch f {
	case fieldRd:
		return i.Rd
	case fieldRs:
		return i.Rs
	case fieldRt:
		return i.Rt
	case fieldRA:
		return RA
	}
	return NoReg
}

// destOf is the definition of an instruction's destination register;
// Dest reads the operand shape the decode table derived from it.
func destOf(i Instr) Reg {
	var d Reg
	switch {
	case i.Op == OpJAL:
		d = RA
	case i.Op == OpJALR:
		d = i.Rd
	case classOf(i.Op) == ClassLoad:
		d = i.Rt
	case i.Op == OpNOP, i.Op == OpHALT, classOf(i.Op) == ClassStore, isBranchOp(i.Op),
		i.Op == OpJ, i.Op == OpJR:
		return NoReg
	case isIType(i.Op):
		d = i.Rt
	default:
		d = i.Rd
	}
	if d == Zero {
		return NoReg // writes to $0 are discarded
	}
	return d
}

// srcsOf is the definition of an instruction's source registers; Srcs
// reads the operand shape the decode table derived from it.
func srcsOf(i Instr, dst []Reg) []Reg {
	switch {
	case i.Op == OpNOP, i.Op == OpHALT, i.Op == OpJ, i.Op == OpJAL,
		i.Op == OpLUI:
		return dst
	case i.Op == OpJR, i.Op == OpJALR:
		return append(dst, i.Rs)
	case classOf(i.Op) == ClassLoad:
		return append(dst, i.Rs)
	case classOf(i.Op) == ClassStore:
		return append(dst, i.Rs, i.Rt)
	case i.Op == OpBEQ, i.Op == OpBNE:
		return append(dst, i.Rs, i.Rt)
	case isBranchOp(i.Op):
		return append(dst, i.Rs)
	case i.Op == OpSLL, i.Op == OpSRL, i.Op == OpSRA:
		return append(dst, i.Rt) // shift amount in Imm
	case isIType(i.Op):
		return append(dst, i.Rs)
	default:
		return append(dst, i.Rs, i.Rt)
	}
}

func isIType(o Op) bool {
	switch o {
	case OpADDI, OpADDIU, OpANDI, OpORI, OpXORI, OpSLTI, OpSLTIU, OpLUI:
		return true
	}
	return false
}

// String disassembles the instruction in conventional MIPS syntax.
func (i Instr) String() string {
	switch {
	case i.Op == OpNOP || i.Op == OpHALT:
		return i.Op.String()
	case i.Op == OpLUI:
		return fmt.Sprintf("lui %s, 0x%x", i.Rt, uint16(i.Imm))
	case i.Op.IsMem():
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rt, i.Imm, i.Rs)
	case i.Op == OpBEQ || i.Op == OpBNE:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rs, i.Rt, i.Imm)
	case i.Op.IsBranch():
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rs, i.Imm)
	case i.Op == OpJ || i.Op == OpJAL:
		return fmt.Sprintf("%s 0x%x", i.Op, i.Target<<2)
	case i.Op == OpJR:
		return fmt.Sprintf("jr %s", i.Rs)
	case i.Op == OpJALR:
		return fmt.Sprintf("jalr %s, %s", i.Rd, i.Rs)
	case i.Op == OpSLL || i.Op == OpSRL || i.Op == OpSRA:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rt, i.Imm)
	case isIType(i.Op):
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rt, i.Rs, i.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs, i.Rt)
	}
}

// Program is an assembled unit ready for emulation.
type Program struct {
	// TextBase is the byte address of Text[0]. Instruction k sits at
	// TextBase + 4k.
	TextBase uint32
	Text     []Instr
	// DataBase is the byte address of Data[0].
	DataBase uint32
	Data     []byte
	// Entry is the initial PC.
	Entry uint32
	// Symbols maps labels to byte addresses (both text and data).
	Symbols map[string]uint32
}

// InstrAt returns the instruction at byte address pc.
func (p *Program) InstrAt(pc uint32) (Instr, bool) {
	if pc < p.TextBase || pc&3 != 0 {
		return Instr{}, false
	}
	idx := (pc - p.TextBase) >> 2
	if idx >= uint32(len(p.Text)) {
		return Instr{}, false
	}
	return p.Text[idx], true
}
