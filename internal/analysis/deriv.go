package analysis

import (
	"sort"

	"repro/internal/ir"
)

// Derivation is one normalized derivation: the signed bases sorted by
// register then sign.
type Derivation []ir.BaseRef

func normalizeDeriv(d []ir.BaseRef) Derivation {
	out := make(Derivation, len(d))
	copy(out, d)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Reg != out[j].Reg {
			return out[i].Reg < out[j].Reg
		}
		return out[i].Sign < out[j].Sign
	})
	return out
}

func sameDeriv(a, b Derivation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DerivSummary describes how a derived register's value is derived.
type DerivSummary struct {
	// Variants holds the distinct derivations over all definitions.
	// One variant: the derivation is unambiguous. Multiple variants:
	// the ambiguous-derivations case (§4); PathReg selects the variant
	// at run time (set to the variant index at each definition by the
	// path-variable pass).
	Variants []Derivation
	// PathReg is the path variable register, or ir.NoReg when the
	// derivation is unambiguous.
	PathReg ir.Reg
}

// DerivInfo summarizes the derivations of every derived register in p.
type DerivInfo struct {
	Summaries map[ir.Reg]*DerivSummary
}

// ComputeDerivInfo collects derivation variants per register. The
// path-variable pass must already have run if any register is
// ambiguous; its results are recorded in p's PathVars table.
func ComputeDerivInfo(p *ir.Proc) *DerivInfo {
	di := &DerivInfo{Summaries: make(map[ir.Reg]*DerivSummary)}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst == ir.NoReg || p.Class(in.Dst) != ir.ClassDerived {
				continue
			}
			if in.IsDerivPreserving() {
				continue // p = p + c keeps the existing derivation
			}
			sum := di.Summaries[in.Dst]
			if sum == nil {
				sum = &DerivSummary{PathReg: ir.NoReg}
				di.Summaries[in.Dst] = sum
			}
			nd := normalizeDeriv(in.Deriv)
			found := false
			for _, v := range sum.Variants {
				if sameDeriv(v, nd) {
					found = true
					break
				}
			}
			if !found {
				sum.Variants = append(sum.Variants, nd)
			}
		}
	}
	return di
}

// Ambiguous returns the derived registers with more than one distinct
// derivation.
func (di *DerivInfo) Ambiguous() []ir.Reg {
	var out []ir.Reg
	// gclint:ordered keys are collected then sorted; iteration order is erased.
	for r, s := range di.Summaries {
		if len(s.Variants) > 1 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
