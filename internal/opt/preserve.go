package opt

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// PreserveBases solves the paper's dead base problem (§4) in its
// clobbered-base form: if a register b serving as the derivation base
// of a live derived value r is overwritten with a reference to a
// different object while r is live, the collector could no longer
// adjust r (the relation r − b = E only holds while both point into
// the same object). The fix inserts a copy of b immediately before
// each derivation of r and rewrites the derivation to use the copy —
// the "two moves inserted to preserve a clobbered base value" the
// paper reports for FieldList (§6.2).
//
// In-place pointer advances (p = p + c, derivation-preserving) are not
// clobbers: the register still points into the same object, so the
// linear relation survives.
//
// A copy of a tidy pointer is itself a tidy pointer (a root in its own
// right). A copy of a derived base inherits that base's unique
// derivation; copying an *ambiguously* derived base is not supported —
// the optimizer never produces a clobbered ambiguous base.
func PreserveBases(p *ir.Proc) {
	for round := 0; ; round++ {
		if round > 10 {
			panic("opt: PreserveBases did not converge")
		}
		if !preserveRound(p) {
			return
		}
	}
}

func preserveRound(p *ir.Proc) bool {
	var derivedUsing [][]ir.Reg // base -> derived regs mentioning it
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst == ir.NoReg || in.IsDerivPreserving() {
				continue
			}
			for _, d := range in.Deriv {
				if d.Reg != in.Dst {
					if derivedUsing == nil {
						derivedUsing = make([][]ir.Reg, p.NumRegs())
					}
					derivedUsing[d.Reg] = append(derivedUsing[d.Reg], in.Dst)
				}
			}
		}
	}
	if derivedUsing == nil {
		return false // no derivation, so no base to clobber
	}

	lv := analysis.ComputeLiveness(p)
	type pair struct{ r, base ir.Reg }
	clobbered := make(map[pair]bool)
	for _, b := range p.Blocks {
		var liveAfter []analysis.BitSet // built when a base is defined here
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst == ir.NoReg || in.IsDerivPreserving() || len(derivedUsing[in.Dst]) == 0 {
				continue
			}
			if liveAfter == nil {
				liveAfter = lv.LiveAfter(b)
			}
			for _, r := range derivedUsing[in.Dst] {
				if r != in.Dst && liveAfter[i].Has(int(r)) {
					clobbered[pair{r, in.Dst}] = true
				}
			}
		}
	}
	if len(clobbered) == 0 {
		return false
	}

	di := analysis.ComputeDerivInfo(p)
	// Allocate the copy registers in a fixed order: map iteration order
	// would leak into register numbering and make compiles of the same
	// program differ.
	prs := make([]pair, 0, len(clobbered))
	// gclint:ordered keys are collected then sorted; iteration order is erased.
	for pr := range clobbered {
		prs = append(prs, pr)
	}
	sort.Slice(prs, func(i, j int) bool {
		if prs[i].r != prs[j].r {
			return prs[i].r < prs[j].r
		}
		return prs[i].base < prs[j].base
	})
	copies := make(map[pair]ir.Reg)
	for _, pr := range prs {
		copies[pr] = p.NewReg(p.Class(pr.base))
	}

	for _, b := range p.Blocks {
		var out []ir.Instr
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Dst != ir.NoReg && !in.IsDerivPreserving() {
				for j := range in.Deriv {
					base := in.Deriv[j].Reg
					c, ok := copies[pair{in.Dst, base}]
					if !ok {
						continue
					}
					mv := ir.Instr{Op: ir.OpMov, Dst: c, A: base, B: ir.NoReg}
					if p.Class(base) == ir.ClassDerived {
						sum := di.Summaries[base]
						if sum == nil || len(sum.Variants) != 1 {
							panic(fmt.Sprintf(
								"opt: cannot preserve ambiguously derived base r%d in %s",
								base, p.Name))
						}
						mv.Deriv = append([]ir.BaseRef(nil), sum.Variants[0]...)
					}
					out = append(out, mv)
					in.Deriv[j].Reg = c
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return true
}
