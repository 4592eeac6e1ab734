package analysis

import (
	"slices"

	"repro/internal/ir"
)

// Liveness holds per-block live-in/live-out register sets.
//
// Two gc-specific rules are folded into the transfer function:
//
//  1. A use of a derived value is a use of each of its base values
//     (transitively), so bases stay live while derived values are live —
//     the paper's solution to the dead base problem (§4).
//
//  2. At a gc-point instruction, the derivation bases of its operands
//     are live *after* the instruction as well: a call's outgoing
//     derived argument slot is updated by the caller's derivations
//     table while the callee runs, which requires the bases to be live
//     (and locatable) for the entire call.
type Liveness struct {
	Proc    *ir.Proc
	LiveIn  []BitSet // indexed by block ID
	LiveOut []BitSet

	// KeepAlive lists, indexed by register, the transitive closure of
	// base registers its derivations mention (over every definition),
	// including path-variable selectors. It is nil when no register
	// has a base or the keep-alive rules are off.
	KeepAlive [][]ir.Reg
}

// BaseClosure computes, for every register, the transitive closure of
// derivation bases across all of its definitions, in ascending
// register order. It returns nil when no register has a base.
func BaseClosure(p *ir.Proc) [][]ir.Reg {
	var direct [][]ir.Reg // direct[r]: the bases r's definitions name
	add := func(dst, base ir.Reg) {
		if base == dst {
			return
		}
		if direct == nil {
			direct = make([][]ir.Reg, p.NumRegs())
		}
		direct[dst] = append(direct[dst], base)
	}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst == ir.NoReg {
				continue
			}
			for _, br := range in.Deriv {
				add(in.Dst, br.Reg)
			}
		}
	}
	// Path variables must be live (and locatable) wherever their
	// ambiguously derived register is live, so the collector can pick
	// the right derivation variant.
	// gclint:ordered each register's direct bases are used as a set; closures are sorted.
	for r, pv := range p.PathVars {
		add(r, pv.Sel)
		for _, v := range pv.Variants {
			for _, br := range v {
				add(r, br.Reg)
			}
		}
	}
	if direct == nil {
		return nil
	}
	closure := make([][]ir.Reg, len(direct))
	seen := make([]int32, len(direct)) // seen[b] == r+1 once b is in r's closure
	var out, stack []ir.Reg            // out backs every closure
	for r := range direct {
		if len(direct[r]) == 0 {
			continue
		}
		mark, from := int32(r+1), len(out)
		seen[r] = mark
		stack = append(stack[:0], ir.Reg(r))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, b := range direct[x] {
				if seen[b] != mark {
					seen[b] = mark
					out = append(out, b)
					stack = append(stack, b)
				}
			}
		}
		slices.Sort(out[from:])
		closure[r] = out[from:len(out):len(out)]
	}
	return closure
}

// ComputeLiveness runs backward liveness over the procedure with the
// gc keep-alive rules enabled.
func ComputeLiveness(p *ir.Proc) *Liveness { return ComputeLivenessOpt(p, true) }

// ComputeLivenessOpt is ComputeLiveness with the derived-base
// keep-alive rules optionally disabled (the paper's "without gc
// restrictions" baseline for §6.2).
func ComputeLivenessOpt(p *ir.Proc, keepAlive bool) *Liveness {
	nb := len(p.Blocks)
	lv := &Liveness{
		Proc:    p,
		LiveIn:  make([]BitSet, nb),
		LiveOut: make([]BitSet, nb),
	}
	if keepAlive {
		lv.KeepAlive = BaseClosure(p)
	}
	// Each block's transfer is summarised once as live-in = gen ∪
	// (live-out − kill); the fixpoint then iterates on words alone.
	// The sets of every block share one array.
	w := len(NewBitSet(p.NumRegs()))
	words := make([]uint64, 4*nb*w)
	carve := func() BitSet {
		s := BitSet(words[:w:w])
		words = words[w:]
		return s
	}
	gen := make([]BitSet, nb)
	kill := make([]BitSet, nb)
	var buf []ir.Reg
	for _, b := range p.Blocks {
		lv.LiveIn[b.ID] = carve()
		lv.LiveOut[b.ID] = carve()
		g, k := carve(), carve()
		for j := len(b.Instrs) - 1; j >= 0; j-- {
			in := &b.Instrs[j]
			lv.transfer(in, g, &buf)
			if in.Dst != ir.NoReg {
				k.Add(int(in.Dst))
			}
		}
		gen[b.ID], kill[b.ID] = g, k
	}
	for changed := true; changed; {
		changed = false
		for i := len(p.Blocks) - 1; i >= 0; i-- {
			b := p.Blocks[i]
			out := lv.LiveOut[b.ID]
			for _, s := range b.Succs {
				if out.UnionWith(lv.LiveIn[s.ID]) {
					changed = true
				}
			}
			in, g, k := lv.LiveIn[b.ID], gen[b.ID], kill[b.ID]
			for wi := range in {
				if v := g[wi] | out[wi]&^k[wi]; v != in[wi] {
					in[wi] = v
					changed = true
				}
			}
		}
	}
	return lv
}

// bases returns r's keep-alive closure.
func (lv *Liveness) bases(r ir.Reg) []ir.Reg {
	if int(r) < len(lv.KeepAlive) {
		return lv.KeepAlive[r]
	}
	return nil
}

// transfer applies one instruction's backward liveness transfer to cur
// (which holds the live-after set and is updated to the live-before
// set).
func (lv *Liveness) transfer(in *ir.Instr, cur BitSet, buf *[]ir.Reg) {
	*buf = in.Uses((*buf)[:0])
	// Rule 2: gc-point operands' bases live through the instruction.
	if in.IsGCPoint() {
		for _, r := range *buf {
			for _, kb := range lv.bases(r) {
				cur.Add(int(kb))
			}
		}
	}
	if in.Dst != ir.NoReg {
		cur.Remove(int(in.Dst))
		// Rule 1 at definitions: deriving consumes the bases.
		for _, kb := range lv.bases(in.Dst) {
			cur.Add(int(kb))
		}
	}
	for _, r := range *buf {
		cur.Add(int(r))
		for _, kb := range lv.bases(r) {
			cur.Add(int(kb))
		}
	}
}

// LiveAfter walks block b backwards and returns, for each instruction
// index, the set of registers live immediately after that instruction
// (including gc-point base extensions). The sets share one array.
func (lv *Liveness) LiveAfter(b *ir.Block) []BitSet {
	res := make([]BitSet, len(b.Instrs))
	w := len(lv.LiveOut[b.ID])
	words := make([]uint64, (len(b.Instrs)+1)*w)
	cur := BitSet(words[:w:w])
	copy(cur, lv.LiveOut[b.ID])
	var buf []ir.Reg
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		// Record the after-set including the gc-point extension so
		// table builders and the register allocator both see bases as
		// live across the instruction.
		if b.Instrs[i].IsGCPoint() {
			buf = b.Instrs[i].Uses(buf[:0])
			for _, r := range buf {
				for _, kb := range lv.bases(r) {
					cur.Add(int(kb))
				}
			}
		}
		at := (i + 1) * w
		res[i] = BitSet(words[at : at+w : at+w])
		copy(res[i], cur)
		lv.transfer(&b.Instrs[i], cur, &buf)
	}
	return res
}
