package opt

import "repro/internal/ir"

// CSE performs per-block value numbering. Pure computations (including
// address arithmetic — the source of the paper's long-lived derived
// values, as in the A[i,j]/A[i,k] example) and loads are shared; a
// duplicated instruction is replaced by a move from the earlier result.
// Duplicate nil/range/index checks are dropped outright.
//
// Loads participate in value numbering under a memory generation
// counter bumped by stores and calls. Allocations do not bump it: a
// fresh object cannot alias an existing location, and pointer moves at
// collections are invisible to the mutator (every live pointer is
// updated consistently).
func CSE(p *ir.Proc) {
	// avail maps a value to the register that held it at the recorded
	// version; a redefinition of that register makes the entry stale.
	avail := make(map[value]holder)
	checks := make(map[value]bool)
	// version[r+1] counts r's redefinitions in the block; ir.NoReg
	// reads slot 0, which never moves.
	version := make([]int32, p.NumRegs()+1)
	var touched []ir.Reg // registers whose version moved
	var dead []bool
	for _, b := range p.Blocks {
		clear(avail)
		clear(checks)
		for _, r := range touched {
			version[r+1] = 0
		}
		touched = touched[:0]
		memGen := int32(0)
		dead = append(dead[:0], make([]bool, len(b.Instrs))...)
		removed := false

		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpCheckNil, ir.OpCheckRange, ir.OpCheckIdx:
				k := operands(in, version)
				if checks[k] {
					dead[i] = true
					removed = true
				} else {
					checks[k] = true
				}
				continue
			case ir.OpStore, ir.OpStoreGlobal, ir.OpStoreLocal, ir.OpCall:
				memGen++
			case ir.OpCallBuiltin:
				// Runtime output routines do not write program memory.
			}
			if in.Dst == ir.NoReg {
				continue
			}
			shareable := isPure(in.Op) && in.Op != ir.OpMov && !in.IsDerivPreserving()
			var k value
			matched := false
			if shareable {
				k = valueOf(p, in, version, memGen) // operand versions read before the redefinition below
				if h, ok := avail[k]; ok && version[h.reg+1] == h.version && h.reg != in.Dst {
					prev := h.reg
					mv := ir.Instr{Op: ir.OpMov, Dst: in.Dst, A: prev, B: ir.NoReg}
					if p.Class(in.Dst) == ir.ClassDerived {
						mv.Deriv = []ir.BaseRef{{Reg: prev, Sign: 1}}
					}
					*in = mv
					matched = true
				}
			}
			// Redefinition makes the entries held in this register stale.
			if version[in.Dst+1] == 0 {
				touched = append(touched, in.Dst)
			}
			version[in.Dst+1]++
			if shareable && !matched {
				avail[k] = holder{in.Dst, version[in.Dst+1]}
			}
		}
		if removed {
			removeInstrs(b, dead)
		}
	}
}

// holder is the register an available value sits in, and that
// register's version when it was written.
type holder struct {
	reg     ir.Reg
	version int32
}

// value is a value number: the opcode plus the operand fields its kind
// reads, each register with its version. Fields a kind does not read
// stay zero, so two instructions share a value exactly when they
// compute the same result.
type value struct {
	op     ir.Op
	class  ir.Class // constants: the destination's class
	a, b   ir.Reg
	va, vb int32
	mem    int32 // loads: the memory generation
	imm    int64
	imm2   int64 // Imm2, or LocalID for the frame-local kinds
}

// operands is the value of an instruction read in full: opcode,
// versioned operands and both immediates.
func operands(in *ir.Instr, version []int32) value {
	return value{op: in.Op, a: in.A, va: version[in.A+1], b: in.B, vb: version[in.B+1],
		imm: in.Imm, imm2: in.Imm2}
}

// valueOf is the value of a shareable instruction; memGen qualifies
// loads.
func valueOf(p *ir.Proc, in *ir.Instr, version []int32, memGen int32) value {
	switch in.Op {
	case ir.OpLoad:
		return value{op: in.Op, a: in.A, va: version[in.A+1], imm: in.Imm, mem: memGen}
	case ir.OpLoadGlobal:
		return value{op: in.Op, imm: in.Imm, mem: memGen}
	case ir.OpLoadLocal:
		return value{op: in.Op, imm: in.Imm, imm2: int64(in.LocalID), mem: memGen}
	case ir.OpConst:
		return value{op: in.Op, imm: in.Imm, class: p.Class(in.Dst)}
	case ir.OpAddrGlobal:
		return value{op: in.Op, imm: in.Imm}
	case ir.OpAddrLocal:
		return value{op: in.Op, imm: in.Imm, imm2: int64(in.LocalID)}
	}
	return operands(in, version)
}
