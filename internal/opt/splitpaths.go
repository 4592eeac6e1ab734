package opt

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// SplitPaths disambiguates derivations by code duplication in the style
// of Chambers and Ungar (paper Figure 2): every block reachable from
// more than one derivation variant while the ambiguous register is live
// is cloned per variant, and the register is renamed per variant so
// each clone carries a unique derivation. Loops whose bodies see the
// ambiguous value are cloned whole, back edges and all — exactly the
// figure's duplicated loop.
//
// The transform falls back to path variables (InsertPathVars) for any
// register whose shape it cannot split safely.
func SplitPaths(p *ir.Proc) {
	di := analysis.ComputeDerivInfo(p)
	ambiguous := di.Ambiguous()
	if len(ambiguous) == 0 {
		return
	}
	var fallback bool
	for _, r := range ambiguous {
		if !splitOne(p, r) {
			fallback = true
		}
	}
	RemoveUnreachable(p)
	if fallback {
		InsertPathVars(p)
	}
}

func splitOne(p *ir.Proc, r ir.Reg) bool {
	lv := analysis.ComputeLiveness(p)
	defs := collectDefs(p)

	// Variant index per definition site (derivation-preserving defs
	// keep the incoming variant).
	type variantState int
	const (
		bottom   variantState = -1
		conflict variantState = -2
	)
	var variants []analysis.Derivation
	variantOf := func(d []ir.BaseRef) variantState {
		nd := normalizeBaseRefs(d)
		for i, v := range variants {
			if sameBaseRefs(nd, v) {
				return variantState(i)
			}
		}
		variants = append(variants, analysis.Derivation(nd))
		return variantState(len(variants) - 1)
	}

	// Block-level out-state: the variant of r on exit.
	out := make([]variantState, len(p.Blocks))
	for i := range out {
		out[i] = bottom
	}
	defInBlock := make([]bool, len(p.Blocks))
	for _, ds := range defs.of(r) {
		for i := range ds.block.Instrs {
			in := &ds.block.Instrs[i]
			if in.Dst == r && !in.IsDerivPreserving() {
				defInBlock[ds.block.ID] = true
			}
		}
	}
	// A def block must not use r before its (last) definition while
	// other variants could reach it; require defs to appear before any
	// use of r in their block for simplicity.
	var buf []ir.Reg
	for _, b := range p.Blocks {
		if !defInBlock[b.ID] {
			continue
		}
		seenDef := false
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !seenDef {
				buf = in.Uses(buf[:0])
				for _, u := range buf {
					if u == r && lv.LiveIn[b.ID].Has(int(r)) {
						return false
					}
				}
			}
			if in.Dst == r && !in.IsDerivPreserving() {
				seenDef = true
			}
		}
	}

	// Forward propagation to fixpoint.
	blockOutVariant := func(b *ir.Block, inState variantState) variantState {
		state := inState
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst == r && !in.IsDerivPreserving() {
				state = variantOf(in.Deriv)
			}
		}
		return state
	}
	for changed := true; changed; {
		changed = false
		for _, b := range p.Blocks {
			inState := bottom
			for _, pr := range b.Preds {
				s := out[pr.ID]
				if s == bottom {
					continue
				}
				if inState == bottom {
					inState = s
				} else if inState != s {
					inState = conflict
				}
			}
			ns := blockOutVariant(b, inState)
			if ns != out[b.ID] {
				out[b.ID] = ns
				changed = true
			}
		}
	}

	// Conflicted blocks where r is live-in must be duplicated.
	inState := func(b *ir.Block) variantState {
		s := bottom
		for _, pr := range b.Preds {
			o := out[pr.ID]
			if o == bottom {
				continue
			}
			if s == bottom {
				s = o
			} else if s != o {
				return conflict
			}
		}
		return s
	}
	dupSet := make(map[*ir.Block]bool)
	for _, b := range p.Blocks {
		if inState(b) == conflict && lv.LiveIn[b.ID].Has(int(r)) {
			if defInBlock[b.ID] {
				return false // def under conflict: unsupported shape
			}
			dupSet[b] = true
		}
	}
	if len(dupSet) == 0 {
		return false // ambiguity without a conflicted live region: unexpected
	}
	if len(dupSet)*len(variants) > 64 {
		return false // duplication budget exceeded; fall back
	}

	// Per-variant renamed registers.
	renamed := make([]ir.Reg, len(variants))
	for i := range renamed {
		renamed[i] = p.NewReg(ir.ClassDerived)
	}

	// Clone the conflicted region per variant, visiting originals in
	// block-ID order: map iteration order would leak into the IDs (and
	// thus the emitted layout) of the new blocks.
	dupBlocks := make([]*ir.Block, 0, len(dupSet))
	// gclint:ordered keys are collected then sorted; iteration order is erased.
	for b := range dupSet {
		dupBlocks = append(dupBlocks, b)
	}
	sort.Slice(dupBlocks, func(i, j int) bool { return dupBlocks[i].ID < dupBlocks[j].ID })
	clones := make(map[*ir.Block][]*ir.Block) // original -> per-variant clone
	for _, b := range dupBlocks {
		cs := make([]*ir.Block, len(variants))
		for v := range variants {
			nb := p.NewBlock()
			nb.Instrs = cloneInstrs(b.Instrs)
			renameReg(nb.Instrs, r, renamed[v])
			cs[v] = nb
		}
		clones[b] = cs
	}
	// Wire clone successor edges (fixed order: edge insertion order
	// decides Succs/Preds slice order downstream).
	for _, b := range dupBlocks {
		cs := clones[b]
		for v, nb := range cs {
			for _, s := range b.Succs {
				if sc, ok := clones[s]; ok {
					ir.AddEdge(nb, sc[v])
				} else {
					ir.AddEdge(nb, s)
				}
			}
		}
	}
	// Redirect incoming edges from non-duplicated blocks.
	for _, b := range dupBlocks {
		cs := clones[b]
		preds := append([]*ir.Block(nil), b.Preds...)
		for _, pr := range preds {
			if dupSet[pr] {
				continue // handled by clone wiring
			}
			v := out[pr.ID]
			if v < 0 {
				return false // unreachable or conflicting producer
			}
			for i, s := range pr.Succs {
				if s == b {
					pr.Succs[i] = cs[v]
					cs[v].Preds = append(cs[v].Preds, pr)
				}
			}
			for i := len(b.Preds) - 1; i >= 0; i-- {
				if b.Preds[i] == pr {
					b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
				}
			}
		}
	}

	// Rename in variant-pure blocks (including def blocks).
	for _, b := range p.Blocks {
		if dupSet[b] || clonesContain(clones, b) {
			continue
		}
		v := out[b.ID]
		if int(v) >= 0 {
			renameFromDef(b, r, renamed[v], defInBlock[b.ID])
		}
	}
	return true
}

func clonesContain(clones map[*ir.Block][]*ir.Block, b *ir.Block) bool {
	// gclint:ordered pure membership scan; the answer is order-free.
	for _, cs := range clones {
		for _, c := range cs {
			if c == b {
				return true
			}
		}
	}
	return false
}

func cloneInstrs(ins []ir.Instr) []ir.Instr {
	out := make([]ir.Instr, len(ins))
	for i := range ins {
		out[i] = ins[i]
		if ins[i].Args != nil {
			out[i].Args = append([]ir.Reg(nil), ins[i].Args...)
		}
		if ins[i].Deriv != nil {
			out[i].Deriv = append([]ir.BaseRef(nil), ins[i].Deriv...)
		}
	}
	return out
}

func renameReg(ins []ir.Instr, from, to ir.Reg) {
	for i := range ins {
		replaceRegUses(&ins[i], from, to, true)
		if ins[i].Dst == from {
			ins[i].Dst = to
		}
	}
}

// renameFromDef renames r to nr in a variant-pure block: everywhere if
// the block has no def of r, otherwise from the (first) def onwards.
func renameFromDef(b *ir.Block, r, nr ir.Reg, hasDef bool) {
	start := 0
	if hasDef {
		for i := range b.Instrs {
			if b.Instrs[i].Dst == r && !b.Instrs[i].IsDerivPreserving() {
				start = i
				break
			}
		}
		// The defining instruction's Dst is renamed; its uses (operands)
		// are not (they read the old value, which for a non-preserving
		// def does not mention r anyway given the pre-check).
		b.Instrs[start].Dst = nr
		for i := range b.Instrs[start].Deriv {
			if b.Instrs[start].Deriv[i].Reg == r {
				b.Instrs[start].Deriv[i].Reg = nr
			}
		}
		start++
	}
	for i := start; i < len(b.Instrs); i++ {
		replaceRegUses(&b.Instrs[i], r, nr, true)
		if b.Instrs[i].Dst == r {
			b.Instrs[i].Dst = nr
		}
	}
}

// RemoveUnreachable deletes blocks not reachable from the entry and
// renumbers block IDs densely.
func RemoveUnreachable(p *ir.Proc) {
	reach := make(map[*ir.Block]bool)
	stack := []*ir.Block{p.Entry}
	reach[p.Entry] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	var kept []*ir.Block
	for _, b := range p.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	for i, b := range kept {
		b.ID = i
		var preds []*ir.Block
		for _, pr := range b.Preds {
			if reach[pr] {
				preds = append(preds, pr)
			}
		}
		b.Preds = preds
	}
	p.Blocks = kept
}
