package gctab

import "fmt"

// Slot is a table location in the derivations-table word form
// (derivWord): bit 0 set names hard register s>>1; otherwise bits 1–2
// hold the stack base and the bits above them the word offset from it.
type Slot int32

// NoSlot marks an absent path variable. No location encodes to it: its
// register bit is set and its register number is negative.
const NoSlot Slot = -1

// Reg returns the hard register s names; ok is false for a stack slot.
func (s Slot) Reg() (r int, ok bool) { return int(s >> 1), s&1 != 0 }

// Stack returns the stack slot s names: its word offset and whether the
// offset is from SP (else FP). Only meaningful when Reg reports !ok.
func (s Slot) Stack() (off int64, fromSP bool) {
	return int64(s >> 3), uint8(s>>1)&3 == BaseSP
}

func (s Slot) location() Location { return derivLoc(int32(s)) }

// SignedSlot is one base of a derivation variant.
type SignedSlot struct {
	Slot Slot
	Sign int32 // +1 or -1
}

// DerivOp is one derivations-table entry of a frame program. Its
// variants are consecutive in the program's variant list, so the one a
// path variable selects is reached by index (FrameProgram.Variant).
type DerivOp struct {
	Target Slot
	Sel    Slot  // NoSlot when unambiguous
	N      int32 // number of variants
	first  int32 // program-wide index of variant 0
}

// FrameProgram is one gc-point's tables resolved for the collector's
// per-frame loops — the ground table ∧ δ bitmap evaluated once instead
// of at every visit: root slots as plain offsets from the frame's FP and
// SP, the register pointers mask, and the derivations in table order
// (a derived value before its bases) with every variant's bases in one
// flat list. CachedDecoder builds one per gc-point at cache fill; the
// plain Decoder builds one per lookup, which is the cost §6.3 measures.
// Programs are immutable and shared.
type FrameProgram struct {
	View    *PointView // the tables this program was compiled from
	Saves   []RegSave
	FPRoots []int32 // FP-relative word offsets of the live pointer slots
	SPRoots []int32 // SP-relative ones
	RegPtrs uint16
	Derivs  []DerivOp

	varEnd []int32 // varEnd[j] is where variant j's bases end in bases
	bases  []SignedSlot
}

// Variant returns the signed bases of variant v of op, 0 <= v < op.N.
func (p *FrameProgram) Variant(op *DerivOp, v int) []SignedSlot {
	j := int(op.first) + v
	lo := int32(0)
	if j > 0 {
		lo = p.varEnd[j-1]
	}
	return p.bases[lo:p.varEnd[j]]
}

// slotOf converts a decoded location, rejecting a register number no
// register file has (only a damaged stream can name one).
func slotOf(l Location) (Slot, error) {
	if l.InReg && l.Reg > 15 {
		return 0, fmt.Errorf("derivation names register R%d", l.Reg)
	}
	return Slot(derivWord(l)), nil
}

// compileProgram resolves view into its frame program.
func compileProgram(view *PointView) (*FrameProgram, error) {
	p := &FrameProgram{View: view, Saves: view.Saves, RegPtrs: view.RegPtrs}
	for _, l := range view.Live {
		if l.Base == BaseSP {
			p.SPRoots = append(p.SPRoots, l.Off)
		} else {
			p.FPRoots = append(p.FPRoots, l.Off)
		}
	}
	var err error
	for di := range view.Derivs {
		de := &view.Derivs[di]
		op := DerivOp{Sel: NoSlot, N: int32(len(de.Variants)), first: int32(len(p.varEnd))}
		if op.Target, err = slotOf(de.Target); err != nil {
			return nil, err
		}
		if de.Sel != nil {
			if op.Sel, err = slotOf(*de.Sel); err != nil {
				return nil, err
			}
		}
		for _, variant := range de.Variants {
			for _, b := range variant {
				s, err := slotOf(b.Loc)
				if err != nil {
					return nil, err
				}
				p.bases = append(p.bases, SignedSlot{Slot: s, Sign: int32(b.Sign)})
			}
			p.varEnd = append(p.varEnd, int32(len(p.bases)))
		}
		p.Derivs = append(p.Derivs, op)
	}
	return p, nil
}

// Verify cross-checks the program against a decoded view of the same
// gc-point: the same callee-save map, root set and register mask, and
// every variant of every derivation. Verification tools run it against
// the plain decoder's view before trusting compiled collections.
func (p *FrameProgram) Verify(view *PointView) error {
	if len(p.Saves) != len(view.Saves) {
		return fmt.Errorf("program restores %d callee-save registers, tables have %d", len(p.Saves), len(view.Saves))
	}
	for i, sv := range view.Saves {
		if p.Saves[i] != sv {
			return fmt.Errorf("callee-save %d is %+v, tables have %+v", i, p.Saves[i], sv)
		}
	}
	var fp, sp []int32
	for _, l := range view.Live {
		if l.Base == BaseSP {
			sp = append(sp, l.Off)
		} else {
			fp = append(fp, l.Off)
		}
	}
	if !sameOffsets(p.FPRoots, fp) || !sameOffsets(p.SPRoots, sp) {
		return fmt.Errorf("program roots FP%v SP%v, tables have %v", p.FPRoots, p.SPRoots, view.Live)
	}
	if p.RegPtrs != view.RegPtrs {
		return fmt.Errorf("program register mask %016b, tables have %016b", p.RegPtrs, view.RegPtrs)
	}
	if len(p.Derivs) != len(view.Derivs) {
		return fmt.Errorf("program has %d derivations, tables have %d", len(p.Derivs), len(view.Derivs))
	}
	for di := range view.Derivs {
		op := &p.Derivs[di]
		got := DerivEntry{Target: op.Target.location()}
		if op.Sel != NoSlot {
			sel := op.Sel.location()
			got.Sel = &sel
		}
		for v := 0; v < int(op.N); v++ {
			var bases []SignedLoc
			for _, b := range p.Variant(op, v) {
				bases = append(bases, SignedLoc{Loc: b.Slot.location(), Sign: int8(b.Sign)})
			}
			got.Variants = append(got.Variants, bases)
		}
		if !sameDeriv(&got, &view.Derivs[di]) {
			return fmt.Errorf("derivation %d is %+v, tables have %+v", di, got, view.Derivs[di])
		}
	}
	return nil
}

func sameOffsets(a, b []int32) bool {
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
