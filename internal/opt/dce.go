package opt

import "repro/internal/ir"

// DCE removes pure instructions whose results are never used, plus
// unused allocations. Derivation base references count as uses when
// gcSupport is set — the collector needs base values wherever a derived
// value is live (the paper's dead-base rule). With gcSupport off this
// reproduces the compiler the paper compares against in §6.2, which may
// delete a base while a value derived from it is still live.
func DCE(p *ir.Proc, gcSupport bool) {
	uses := make([]int32, p.NumRegs()) // uses[r] counts r's readers
	var buf []ir.Reg
	var dead []bool
	for {
		clear(uses)
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				buf = in.Uses(buf[:0])
				for _, r := range buf {
					uses[r]++
				}
				if gcSupport {
					for _, d := range in.Deriv {
						if d.Reg != in.Dst {
							uses[d.Reg]++
						}
					}
				}
			}
		}
		if gcSupport {
			// gclint:ordered commutative use-count increments.
			for _, pv := range p.PathVars {
				uses[pv.Sel]++
				for _, v := range pv.Variants {
					for _, d := range v {
						uses[d.Reg]++
					}
				}
			}
		}
		removed := false
		for _, b := range p.Blocks {
			dead = append(dead[:0], make([]bool, len(b.Instrs))...)
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Dst == ir.NoReg || uses[in.Dst] > 0 {
					continue
				}
				if isPure(in.Op) || in.Op == ir.OpNew || in.Op == ir.OpText || in.Op == ir.OpReuse {
					dead[i] = true
					removed = true
				}
			}
			if removed {
				removeInstrs(b, dead)
			}
		}
		if !removed {
			return
		}
	}
}
