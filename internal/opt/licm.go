package opt

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// LICM hoists loop-invariant pure computations into a preheader. This
// is one of the optimizations that creates derived values live across
// loop gc-points (hoisted address computations — the paper's virtual
// array origin effect).
//
// A candidate must be a single-definition register, defined in the
// loop, whose operands have no definitions inside the loop (or are
// themselves hoisted invariants), and whose value is dead on loop entry
// (otherwise hoisting would clobber the incoming value — parameters
// conditionally reassigned inside the loop are the canonical trap).
// Division is never hoisted (it can trap); loads are hoisted only out
// of loops with no stores or calls.
func LICM(p *ir.Proc) {
	dom := analysis.ComputeDominators(p)
	loops := analysis.FindLoops(p, dom)
	if len(loops) == 0 {
		return
	}
	// Definitions and liveness are rebuilt after a loop hoists
	// something: its preheader now holds definitions that the next
	// loop's safety checks must see. Liveness is computed when a
	// candidate first needs it.
	defs := collectDefs(p)
	var lv *analysis.Liveness
	liveness := func() *analysis.Liveness {
		if lv == nil {
			lv = analysis.ComputeLiveness(p)
		}
		return lv
	}
	for _, l := range loops {
		if hoistLoop(p, l, defs, liveness) {
			defs = collectDefs(p)
			lv = nil
		}
	}
}

// hoistLoop hoists l's invariants and reports whether it moved any.
func hoistLoop(p *ir.Proc, l *analysis.Loop, defs defTable, liveness func() *analysis.Liveness) bool {
	// Does the loop write memory or call anything that might?
	memStable := true
	for _, b := range loopBlocksInOrder(p, l) {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpStore, ir.OpStoreGlobal, ir.OpStoreLocal, ir.OpCall:
				memStable = false
			}
		}
	}

	inLoop := func(s defSite) bool { return l.Blocks[s.block] }
	// invariant[r] is true when r's value cannot change during the loop.
	invariant := make(map[ir.Reg]bool)
	isInvariantOperand := func(r ir.Reg) bool {
		if r == ir.NoReg {
			return true
		}
		if invariant[r] {
			return true
		}
		for _, d := range defs.of(r) {
			if inLoop(d) {
				return false
			}
		}
		return true
	}

	type hoistable struct{ site defSite }
	var plan []hoistable
	planned := make(map[*ir.Instr]bool)

	// Iterate: hoisting one instruction can make its dependents
	// invariant. Blocks are visited in program order so the plan (and
	// therefore the generated code) is the same on every compile; a
	// map-order walk here made whole compilations flip between layouts
	// run to run.
	body := loopBlocksInOrder(p, l)
	for changed := true; changed; {
		changed = false
		for _, b := range body {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if planned[in] || in.Dst == ir.NoReg {
					continue
				}
				if !isPure(in.Op) || in.Op == ir.OpDiv || in.Op == ir.OpMod {
					continue
				}
				switch in.Op {
				case ir.OpLoad:
					// Heap loads are guarded by nil checks that stay in
					// the loop; hoisting the load would make it
					// speculative and could trap on a zero-trip loop.
					continue
				case ir.OpLoadGlobal, ir.OpLoadLocal:
					if !memStable {
						continue
					}
				}
				if len(defs.of(in.Dst)) != 1 {
					continue
				}
				// The destination's pre-loop value must be dead: a
				// register live into the header (a parameter, or a def
				// reaching around the loop) cannot be overwritten in
				// the preheader.
				if liveness().LiveIn[l.Header.ID].Has(int(in.Dst)) {
					continue
				}
				if !isInvariantOperand(in.A) || !isInvariantOperand(in.B) {
					continue
				}
				ok := true
				for _, d := range in.Deriv {
					if d.Reg != in.Dst && !isInvariantOperand(d.Reg) {
						ok = false
					}
				}
				if !ok {
					continue
				}
				planned[in] = true
				invariant[in.Dst] = true
				plan = append(plan, hoistable{defSite{b, i}})
				changed = true
			}
		}
	}
	if len(plan) == 0 {
		return false
	}

	pre := ensurePreheader(p, l)
	// Move planned instructions (in discovery order, which respects
	// dependences) to the preheader, before its terminator.
	for _, h := range plan {
		in := h.site.block.Instrs[h.site.idx]
		insertBeforeTerminator(pre, in)
		// Replace the original with a no-op constant into a fresh dead
		// register; DCE removes it.
		h.site.block.Instrs[h.site.idx] = ir.Instr{
			Op: ir.OpConst, Dst: p.NewReg(ir.ClassScalar), A: ir.NoReg, B: ir.NoReg,
		}
	}
	return true
}

// loopBlocksInOrder returns the loop's member blocks in p.Blocks
// (program) order. Loop bodies are stored as sets; iterating the set
// directly would make any order-sensitive consumer nondeterministic.
func loopBlocksInOrder(p *ir.Proc, l *analysis.Loop) []*ir.Block {
	out := make([]*ir.Block, 0, len(l.Blocks))
	for _, b := range p.Blocks {
		if l.Blocks[b] {
			out = append(out, b)
		}
	}
	return out
}

// ensurePreheader returns a block that is the unique out-of-loop
// predecessor of the loop header, creating one if necessary.
func ensurePreheader(p *ir.Proc, l *analysis.Loop) *ir.Block {
	var outside []*ir.Block
	for _, pr := range l.Header.Preds {
		if !l.Blocks[pr] {
			outside = append(outside, pr)
		}
	}
	if len(outside) == 1 && len(outside[0].Succs) == 1 {
		return outside[0]
	}
	pre := p.NewBlock()
	for _, pr := range outside {
		// Redirect pr -> header to pr -> pre.
		for i, s := range pr.Succs {
			if s == l.Header {
				pr.Succs[i] = pre
				pre.Preds = append(pre.Preds, pr)
			}
		}
		for i := len(l.Header.Preds) - 1; i >= 0; i-- {
			if l.Header.Preds[i] == pr {
				l.Header.Preds = append(l.Header.Preds[:i], l.Header.Preds[i+1:]...)
			}
		}
	}
	pre.Instrs = append(pre.Instrs, ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg})
	ir.AddEdge(pre, l.Header)
	return pre
}

// insertBeforeTerminator places in before the block's final jump or
// branch (or at the end if the block has no terminator).
func insertBeforeTerminator(b *ir.Block, in ir.Instr) {
	n := len(b.Instrs)
	if n > 0 {
		switch b.Instrs[n-1].Op {
		case ir.OpJmp, ir.OpBr, ir.OpRet:
			b.Instrs = append(b.Instrs, ir.Instr{})
			copy(b.Instrs[n:], b.Instrs[n-1:])
			b.Instrs[n-1] = in
			return
		}
	}
	b.Instrs = append(b.Instrs, in)
}
