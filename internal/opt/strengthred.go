package opt

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// StrengthReduce rewrites array-address computations driven by a basic
// induction variable into pointer induction variables:
//
//	for i := lo to hi { ... addr = base + (i-lo)*es ... }
//
// becomes
//
//	p = base + (i0-lo)*es           (preheader, derived from base)
//	for { ... use p ...; p += step*es }
//
// This is the paper's strength-reduction example (*p++ initialization
// loops) and, because the initial offset folds the array's lower bound,
// also its virtual array origin: p may point outside the object it is
// derived from. The derived register p is live across the loop's
// gc-points, exercising the derivations tables; the base register is
// kept alive by the keep-alive rule (dead base problem).
func StrengthReduce(p *ir.Proc) {
	dom := analysis.ComputeDominators(p)
	loops := analysis.FindLoops(p, dom)
	if len(loops) == 0 {
		return
	}
	for _, l := range loops {
		reduceLoop(p, l)
	}
}

// ivInfo describes a basic induction variable i with one in-loop
// definition i = i + step (written as AddImm through a temp and a Mov).
type ivInfo struct {
	reg      ir.Reg
	step     int64
	initSite defSite // out-of-loop definition
	incrSite defSite // in-loop definition (the Mov or AddImm writing reg)
}

func reduceLoop(p *ir.Proc, l *analysis.Loop) {
	defs := collectDefs(p)
	inLoop := func(s defSite) bool { return l.Blocks[s.block] }

	// Find basic induction variables: exactly two defs, one outside the
	// loop, one inside of the form reg = reg + c (directly, or via
	// reg = Mov t where t = AddImm reg, c and t is single-use).
	// Registers are visited in numeric order, which decides both the
	// reduction order and the numbering of the fresh pointer IVs.
	var ivs []ivInfo
	for r := ir.Reg(0); int(r) < defs.numRegs(); r++ {
		ds := defs.of(r)
		if len(ds) != 2 {
			continue
		}
		var in0, out0 *defSite
		for i := range ds {
			if inLoop(ds[i]) {
				in0 = &ds[i]
			} else {
				out0 = &ds[i]
			}
		}
		if in0 == nil || out0 == nil {
			continue
		}
		step, ok := stepOf(defs, in0, r)
		if !ok {
			continue
		}
		ivs = append(ivs, ivInfo{reg: r, step: step, initSite: *out0, incrSite: *in0})
	}

	for _, iv := range ivs {
		reduceIV(p, l, defs, iv)
	}
}

// stepOf recognizes the in-loop increment of a candidate IV and returns
// its constant step.
func stepOf(defs defTable, site *defSite, r ir.Reg) (int64, bool) {
	in := &site.block.Instrs[site.idx]
	switch in.Op {
	case ir.OpAddImm:
		if in.A == r {
			return in.Imm, true
		}
	case ir.OpMov:
		td := defs.of(in.A)
		if len(td) != 1 {
			return 0, false
		}
		tin := &td[0].block.Instrs[td[0].idx]
		if tin.Op == ir.OpAddImm && tin.A == r {
			return tin.Imm, true
		}
	}
	return 0, false
}

// constOf returns the value of a register whose single definition is
// an OpConst.
func constOf(defs defTable, r ir.Reg) (int64, bool) {
	ds := defs.of(r)
	if len(ds) != 1 {
		return 0, false
	}
	in := &ds[0].block.Instrs[ds[0].idx]
	return in.Imm, in.Op == ir.OpConst
}

// addrChain matches addr = Add(base, scaled) where scaled follows the
// irgen shape (i-lo)*es built from AddImm/Mul with constant factors.
type addrChain struct {
	addrSite defSite
	addr     ir.Reg
	base     ir.Reg // loop-invariant pointerish base
	k        int64  // constant offset contribution: addr = base + i*scale + k
	scale    int64
}

func reduceIV(p *ir.Proc, l *analysis.Loop, defs defTable, iv ivInfo) {
	inLoop := func(s defSite) bool { return l.Blocks[s.block] }
	// Re-resolve the IV's definition sites: earlier reductions may have
	// shifted instruction indices (defs was fixed up, the iv copy was not).
	for _, d := range defs.of(iv.reg) {
		if inLoop(d) {
			iv.incrSite = d
		} else {
			iv.initSite = d
		}
	}
	invariant := func(r ir.Reg) bool {
		for _, d := range defs.of(r) {
			if inLoop(d) {
				return false
			}
		}
		return true
	}

	// Scan loop blocks for address computations addr = base + f(i),
	// in program order (l.Blocks is a set; see loopBlocksInOrder).
	var chains []addrChain
	for _, b := range loopBlocksInOrder(p, l) {
		for idx := range b.Instrs {
			in := &b.Instrs[idx]
			if in.Op != ir.OpAdd || in.Dst == ir.NoReg || p.Class(in.Dst) != ir.ClassDerived {
				continue
			}
			if len(defs.of(in.Dst)) != 1 {
				continue
			}
			base, scaledReg := in.A, in.B
			if !invariant(base) || p.Class(base) == ir.ClassScalar {
				continue
			}
			scale, k, ok := matchScaled(defs, inLoop, scaledReg, iv.reg)
			if !ok {
				continue
			}
			chains = append(chains, addrChain{
				addrSite: defSite{b, idx}, addr: in.Dst, base: base, k: k, scale: scale,
			})
		}
	}
	if len(chains) == 0 {
		return
	}

	for _, ch := range chains {
		// The address register must only be used inside the loop.
		if usedOutside(p, l, ch.addr) {
			continue
		}
		ptr := p.NewReg(ir.ClassDerived)

		// Preheader computation, inserted right after the IV's init:
		//   t0 = i * scale        (i holds its initial value there)
		//   t1 = t0 + k
		//   ptr = base + t1
		initBlk := iv.initSite.block
		initIdx := iv.initSite.idx
		sc := p.NewReg(ir.ClassScalar)
		scC := p.NewReg(ir.ClassScalar)
		t1 := p.NewReg(ir.ClassScalar)
		seq := []ir.Instr{
			{Op: ir.OpConst, Dst: scC, A: ir.NoReg, B: ir.NoReg, Imm: ch.scale},
			{Op: ir.OpMul, Dst: sc, A: iv.reg, B: scC},
			{Op: ir.OpAddImm, Dst: t1, A: sc, B: ir.NoReg, Imm: ch.k},
			{Op: ir.OpAdd, Dst: ptr, A: ch.base, B: t1,
				Deriv: []ir.BaseRef{{Reg: ch.base, Sign: 1}}},
		}
		insertAfter(initBlk, initIdx, seq)
		fixSites(defs, initBlk, initIdx, len(seq))
		if sameSite(&iv.incrSite, initBlk, initIdx) {
			// Defensive: increments are in-loop, init is not.
			continue
		}

		// In-loop increment, right after the IV increment:
		//   ptr = ptr + step*scale   (derivation-preserving)
		incrBlk := iv.incrSite.block
		incrIdx := iv.incrSite.idx
		inc := ir.Instr{Op: ir.OpAddImm, Dst: ptr, A: ptr, B: ir.NoReg,
			Imm: iv.step * ch.scale, Deriv: []ir.BaseRef{{Reg: ptr, Sign: 1}}}
		insertAfter(incrBlk, incrIdx, []ir.Instr{inc})
		fixSites(defs, incrBlk, incrIdx, 1)

		// Replace the original address computation with a copy of the
		// pointer IV and rewrite nothing else: uses keep reading addr.
		site := &defs.of(ch.addr)[0]
		orig := &site.block.Instrs[site.idx]
		*orig = ir.Instr{Op: ir.OpMov, Dst: ch.addr, A: ptr, B: ir.NoReg,
			Deriv: []ir.BaseRef{{Reg: ptr, Sign: 1}}}
	}
}

// matchScaled recognizes scaled = (i + a) * m (+ b) chains built from
// AddImm and Mul-by-constant, or i itself. Returns addr = base + i*scale + k.
func matchScaled(defs defTable, inLoop func(defSite) bool, r, iv ir.Reg) (scale, k int64, ok bool) {
	if r == iv {
		return 1, 0, true
	}
	ds := defs.of(r)
	if len(ds) != 1 || !inLoop(ds[0]) {
		return 0, 0, false
	}
	in := &ds[0].block.Instrs[ds[0].idx]
	switch in.Op {
	case ir.OpAddImm:
		s, kk, ok2 := matchScaled(defs, inLoop, in.A, iv)
		if !ok2 {
			return 0, 0, false
		}
		return s, kk + in.Imm, true
	case ir.OpMul:
		c, isC := constOf(defs, in.B)
		src := in.A
		if !isC {
			c, isC = constOf(defs, in.A)
			src = in.B
		}
		if !isC {
			return 0, 0, false
		}
		s, kk, ok2 := matchScaled(defs, inLoop, src, iv)
		if !ok2 {
			return 0, 0, false
		}
		return s * c, kk * c, true
	case ir.OpMov:
		return matchScaled(defs, inLoop, in.A, iv)
	}
	return 0, 0, false
}

func usedOutside(p *ir.Proc, l *analysis.Loop, r ir.Reg) bool {
	var buf []ir.Reg
	for _, b := range p.Blocks {
		if l.Blocks[b] {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if u == r {
					return true
				}
			}
			for _, d := range in.Deriv {
				if d.Reg == r {
					return true
				}
			}
		}
	}
	return false
}

// insertAfter inserts seq immediately after index idx in block b.
func insertAfter(b *ir.Block, idx int, seq []ir.Instr) {
	tail := make([]ir.Instr, len(b.Instrs[idx+1:]))
	copy(tail, b.Instrs[idx+1:])
	b.Instrs = append(b.Instrs[:idx+1], seq...)
	b.Instrs = append(b.Instrs, tail...)
}

// fixSites shifts recorded definition sites in b after idx by n.
func fixSites(defs defTable, b *ir.Block, idx, n int) {
	for i := range defs.sites {
		if s := &defs.sites[i]; s.block == b && s.idx > idx {
			s.idx += n
		}
	}
}

func sameSite(s *defSite, b *ir.Block, idx int) bool {
	return s.block == b && s.idx == idx
}
