package opt

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// ReuseCells is the compile-time GC pass: it rewrites OpNew sites that
// are dominated by the allocation of a provably dead cell of the same
// shape into OpReuse — the new object is built in place over the dead
// one, so the allocation costs no heap words and the collector never
// copies the dead cell.
//
// A register r is a reuse source for a site S = `q = new desc d` when:
//
//   - r holds a tidy pointer whose single definition D is itself
//     `r = new d` (or an earlier `r = reuse _, d`) with no element
//     count — fixed-shape cells only, so sizes match and heap
//     walkability is preserved;
//   - r is clean: the analysis sees every alias. Parameters, copied
//     registers, stored or returned values, derivation bases, and
//     arguments at capturing call positions (per the interprocedural
//     analysis.ComputeCaptures summary) are all rejected;
//   - r is dead after S: no path from S uses r again, so nothing can
//     reach the old cell once S runs;
//   - D executes before S exactly once per consumption: D dominates S
//     and every loop containing S contains D (re-executing S without
//     re-executing D would hand out the same cell twice).
//
// The rewrite makes r an operand of S, which extends r's live range to
// S in everything downstream — the register allocator keeps the value
// addressable and the gc tables list it at every gc-point in between,
// so a collection between D and S relocates r along with its cell.
// OpReuse itself is not a gc-point: the heap cannot be exhausted by an
// allocation that consumes no space.
//
// It returns the number of sites rewritten.
func ReuseCells(prog *ir.Program) int {
	caps := analysis.ComputeCaptures(prog)
	total := 0
	for _, p := range prog.Procs {
		total += reuseProc(p, caps)
	}
	return total
}

func reuseProc(p *ir.Proc, caps *analysis.Captures) int {
	hasNew := false
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpNew && b.Instrs[i].A == ir.NoReg {
				hasNew = true
			}
		}
	}
	if !hasNew {
		return 0
	}
	defs := collectDefs(p)
	dirty := dirtyRegs(p, caps)
	// sources[d] lists, in ascending order, registers whose single
	// definition allocates a fixed-shape cell with descriptor d.
	sources := make(map[int64][]ir.Reg)
	for r := ir.Reg(0); int(r) < defs.numRegs(); r++ {
		sites := defs.of(r)
		if len(sites) != 1 || int(r) < p.NumParams || dirty.Has(int(r)) {
			continue
		}
		if p.Class(r) != ir.ClassPointer {
			continue
		}
		d := &sites[0].block.Instrs[sites[0].idx]
		if d.Op == ir.OpNew && d.A == ir.NoReg {
			sources[d.Imm] = append(sources[d.Imm], r)
		}
	}
	if len(sources) == 0 {
		return 0
	}
	lv := analysis.ComputeLiveness(p)
	dom := analysis.ComputeDominators(p)
	loops := analysis.FindLoops(p, dom)
	// loopsOf[b] lists the loops containing block b.
	loopsOf := make([][]*analysis.Loop, len(p.Blocks))
	for _, l := range loops {
		// gclint:ordered each block gains this loop once; cross-loop order follows the outer slice
		for b := range l.Blocks {
			loopsOf[b.ID] = append(loopsOf[b.ID], l)
		}
	}
	consumed := make(map[ir.Reg]bool)
	rewrites := 0
	for _, bS := range p.Blocks {
		var liveAfter []analysis.BitSet // built at the block's first candidate site
		for iS := range bS.Instrs {
			s := &bS.Instrs[iS]
			if s.Op != ir.OpNew || s.A != ir.NoReg || len(sources[s.Imm]) == 0 {
				continue
			}
			if liveAfter == nil {
				liveAfter = lv.LiveAfter(bS)
			}
			for _, r := range sources[s.Imm] {
				if r == s.Dst || consumed[r] || liveAfter[iS].Has(int(r)) {
					continue
				}
				ds := defs.of(r)[0]
				if ds.block == bS {
					if ds.idx >= iS {
						continue
					}
				} else if !dom.Dominates(ds.block, bS) {
					continue
				}
				if !sameLoops(loopsOf, ds.block, bS) {
					continue
				}
				s.Op = ir.OpReuse
				s.A = r
				consumed[r] = true
				rewrites++
				break
			}
		}
	}
	return rewrites
}

// sameLoops reports whether every loop containing s also contains d —
// the "D executes once per S" condition (with d dominating s, every
// cycle back to s must then re-pass d).
func sameLoops(loopsOf [][]*analysis.Loop, d, s *ir.Block) bool {
	for _, l := range loopsOf[s.ID] {
		if !l.Blocks[d] {
			return false
		}
	}
	return true
}

// dirtyRegs computes the set of registers whose heap reference may have
// an alias the intraprocedural view cannot see: copied, stored,
// returned, derived-from, path-variable-involved, or passed to a
// capturing callee. Parameters are excluded at the caller (the caller
// may retain the argument).
func dirtyRegs(p *ir.Proc, caps *analysis.Captures) analysis.BitSet {
	dirty := analysis.NewBitSet(p.NumRegs())
	mark := func(r ir.Reg) {
		if r != ir.NoReg {
			dirty.Add(int(r))
		}
	}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpMov:
				mark(in.A)
			case ir.OpStore:
				mark(in.B)
			case ir.OpStoreGlobal, ir.OpStoreLocal:
				mark(in.A)
			case ir.OpRet:
				mark(in.A)
			case ir.OpCall:
				for k, a := range in.Args {
					if caps.Captured(in.Callee, k) {
						mark(a)
					}
				}
			}
			for _, br := range in.Deriv {
				mark(br.Reg)
			}
		}
	}
	// gclint:ordered commutative bitset marking; no order dependence.
	for _, pv := range p.PathVars {
		mark(pv.Sel)
		for _, v := range pv.Variants {
			for _, br := range v {
				mark(br.Reg)
			}
		}
	}
	return dirty
}
