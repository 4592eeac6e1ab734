package gctab

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// allSchemes is Table 2's cross product: Full-info or δ-main, each with
// and without Packing and Previous.
func allSchemes() []Scheme {
	var out []Scheme
	for bits := 0; bits < 8; bits++ {
		out = append(out, Scheme{Full: bits&4 != 0, Packing: bits&2 != 0, Previous: bits&1 != 0})
	}
	return out
}

// TestFrameProgramMatchesTables compiles every gc-point of random
// objects (stack roots off both bases, register masks, derivations with
// and without path variables) under all eight schemes, through both
// decoders, and requires each program to say exactly what the plain
// decoder's view says — then the same on the stream cut short at random
// places, where the two decoders must also fail alike.
func TestFrameProgramMatchesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	points, derivs, variants := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		o := randomObject(rng)
		for _, s := range allSchemes() {
			enc := Encode(o, s)
			plain, cached := NewDecoder(enc), NewCachedDecoder(enc)
			for pi := range o.Procs {
				for _, pt := range o.Procs[pi].Points {
					view, err := plain.Decode(pt.PC)
					if err != nil || view == nil {
						t.Fatalf("trial %d scheme %v pc %d: plain decode (%v, %v)", trial, s, pt.PC, view, err)
					}
					pp, err := plain.Program(pt.PC)
					if err != nil {
						t.Fatalf("trial %d scheme %v pc %d: plain program: %v", trial, s, pt.PC, err)
					}
					cp, err := cached.Program(pt.PC)
					if err != nil {
						t.Fatalf("trial %d scheme %v pc %d: cached program: %v", trial, s, pt.PC, err)
					}
					for name, p := range map[string]*FrameProgram{"plain": pp, "cached": cp} {
						if err := p.Verify(view); err != nil {
							t.Fatalf("trial %d scheme %v pc %d: %s program: %v", trial, s, pt.PC, name, err)
						}
						if len(p.FPRoots)+len(p.SPRoots) != len(view.Live) {
							t.Fatalf("trial %d scheme %v pc %d: %s program has %d+%d stack roots, tables %d",
								trial, s, pt.PC, name, len(p.FPRoots), len(p.SPRoots), len(view.Live))
						}
					}
					if again, _ := cached.Program(pt.PC); again != cp {
						t.Fatalf("trial %d scheme %v pc %d: a second lookup compiled a second program", trial, s, pt.PC)
					}
					points++
					derivs += len(cp.Derivs)
					for di := range cp.Derivs {
						variants += int(cp.Derivs[di].N)
					}
				}
			}
			if len(enc.Bytes) > 0 {
				cut := *enc
				cut.Bytes = enc.Bytes[:rng.Intn(len(enc.Bytes))]
				if err := VerifyCacheTransparency(&cut); err != nil {
					t.Fatalf("trial %d scheme %v cut at %d: %v", trial, s, len(cut.Bytes), err)
				}
			}
		}
	}
	if points == 0 || derivs == 0 || variants <= derivs {
		t.Fatalf("fixture too thin: %d points, %d derivations, %d variants", points, derivs, variants)
	}
	t.Logf("%d programs checked: %d derivations, %d variants", points, derivs, variants)
}

// TestFrameProgramVerifyDetects tampers with each part of a program in
// turn and requires Verify to name it, so a transparency check that
// passes means something.
func TestFrameProgramVerifyDetects(t *testing.T) {
	sel := Location{InReg: true, Reg: 3}
	view := &PointView{
		ProcName: "p", Entry: 16,
		Saves:   []RegSave{{Reg: 9, Off: -4}},
		Live:    []Location{{Base: BaseFP, Off: -1}, {Base: BaseSP, Off: 2}, {Base: BaseFP, Off: -2}},
		RegPtrs: 0x0204,
		Derivs: []DerivEntry{
			{Target: Location{InReg: true, Reg: 5}, Variants: [][]SignedLoc{{{Loc: Location{Base: BaseFP, Off: -1}, Sign: 1}}}},
			{Target: Location{Base: BaseSP, Off: 1}, Sel: &sel, Variants: [][]SignedLoc{
				{{Loc: Location{InReg: true, Reg: 2}, Sign: 1}, {Loc: Location{Base: BaseFP, Off: -2}, Sign: -1}},
				{{Loc: Location{InReg: true, Reg: 9}, Sign: 1}},
			}},
		},
	}
	fresh := func() *FrameProgram {
		p, err := compileProgram(view)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := fresh()
	if err := p.Verify(view); err != nil {
		t.Fatalf("untampered program: %v", err)
	}
	if !reflect.DeepEqual(p.FPRoots, []int32{-1, -2}) || !reflect.DeepEqual(p.SPRoots, []int32{2}) {
		t.Fatalf("roots split as FP%v SP%v, want FP[-1 -2] SP[2]", p.FPRoots, p.SPRoots)
	}
	if got := p.Variant(&p.Derivs[1], 1); len(got) != 1 || got[0].Slot != Slot(derivWord(Location{InReg: true, Reg: 9})) {
		t.Fatalf("variant 1 of the ambiguous derivation is %v, want the single base R9", got)
	}
	cases := []struct {
		name   string
		tamper func(p *FrameProgram)
		want   string
	}{
		{"save", func(p *FrameProgram) { p.Saves = []RegSave{{Reg: 9, Off: -5}} }, "callee-save"},
		{"fp root", func(p *FrameProgram) { p.FPRoots = []int32{-1} }, "roots"},
		{"sp root", func(p *FrameProgram) { p.SPRoots = []int32{3} }, "roots"},
		{"mask", func(p *FrameProgram) { p.RegPtrs ^= 1 }, "register mask"},
		{"dropped derivation", func(p *FrameProgram) { p.Derivs = p.Derivs[:1] }, "derivations"},
		{"target", func(p *FrameProgram) { p.Derivs[0].Target = Slot(derivWord(Location{InReg: true, Reg: 6})) }, "derivation 0"},
		{"selector", func(p *FrameProgram) { p.Derivs[1].Sel = NoSlot }, "derivation 1"},
		{"sign", func(p *FrameProgram) { p.bases[2].Sign = 1 }, "derivation 1"},
		{"variant boundary", func(p *FrameProgram) { p.varEnd[1] = 2 }, "derivation 1"},
	}
	for _, tc := range cases {
		p := fresh()
		p.Saves = append([]RegSave(nil), p.Saves...) // compile aliases the view's
		tc.tamper(p)
		err := p.Verify(view)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestFrameProgramRejectsBadRegister: only a damaged stream can name a
// register no register file has; the program must refuse it with an
// error (the walker would index past its register file), identically
// under both decoders.
func TestFrameProgramRejectsBadRegister(t *testing.T) {
	view := &PointView{Derivs: []DerivEntry{{
		Target:   Location{InReg: true, Reg: 4},
		Variants: [][]SignedLoc{{{Loc: Location{InReg: true, Reg: 21}, Sign: 1}}},
	}}}
	if _, err := compileProgram(view); err == nil || !strings.Contains(err.Error(), "R21") {
		t.Fatalf("compileProgram returned %v, want an error naming R21", err)
	}

	// The same through the decoders: encode a derivation, then patch the
	// base's register number in the (unpacked) stream.
	o := &Object{Procs: []ProcTables{{
		Name: "p", Entry: 16, End: 40,
		Points: []GCPoint{{PC: 24, Derivs: []DerivEntry{{
			Target:   Location{InReg: true, Reg: 4},
			Variants: [][]SignedLoc{{{Loc: Location{InReg: true, Reg: 13}, Sign: 1}}},
		}}}},
	}}}
	enc := Encode(o, FullPlain)
	// A base is the derivation word shifted past its sign bit.
	want := uint32(derivWord(Location{InReg: true, Reg: 13})) << 1
	patched := 0
	for off := 0; off+4 <= len(enc.Bytes); off++ {
		if binary.LittleEndian.Uint32(enc.Bytes[off:]) == want {
			enc.Bytes[off] = byte(derivWord(Location{InReg: true, Reg: 21}) << 1)
			patched++
		}
	}
	if patched != 1 {
		t.Fatalf("base word found %d times in the stream; the fixture no longer matches the encoding", patched)
	}
	_, perr := NewDecoder(enc).Program(24)
	_, cerr := NewCachedDecoder(enc).Program(24)
	if perr == nil || !strings.Contains(perr.Error(), "R21") || !strings.Contains(perr.Error(), "pc 24") {
		t.Fatalf("plain Program returned %v, want an error naming R21 at pc 24", perr)
	}
	if errString(perr) != errString(cerr) {
		t.Fatalf("plain error %q, cached error %q", perr, cerr)
	}
	if err := VerifyCacheTransparency(enc); err != nil {
		t.Fatalf("transparency on the damaged stream: %v", err)
	}
}
