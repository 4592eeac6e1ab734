package gcverify

import (
	"fmt"
	"sort"

	"repro/internal/gctab"
	"repro/internal/vmachine"
)

// checkPCMap cross-checks the decoded PC map against the actual
// gc-point instructions and binds each decoded point to its
// instruction. A call's table entry may legitimately be absent only
// when elision was requested and the callee provably cannot reach a
// collection.
func (ck *procCheck) checkPCMap() {
	prog := ck.v.prog
	expected := map[int]int{} // gc-point byte PC -> gc instruction index
	for idx := ck.i0; idx < ck.iEnd; idx++ {
		if prog.Code[idx].IsGCPoint() {
			expected[prog.PCOf[idx+1]] = idx
		}
	}
	seen := map[int]bool{}
	for _, rp := range ck.points {
		if seen[rp.PC] {
			ck.addf(KindPCMap, rp.PC, "gc-point listed twice in the PC map")
			continue
		}
		seen[rp.PC] = true
		idx, ok := expected[rp.PC]
		if !ok {
			ck.addf(KindPCMap, rp.PC, "PC map names a pc that is not a gc-point")
			continue
		}
		ck.ptAt[idx] = rp
		ck.ptIdx[rp] = idx
	}
	var missing []int
	for pc := range expected {
		if !seen[pc] {
			missing = append(missing, pc)
		}
	}
	sort.Ints(missing)
	for _, pc := range missing {
		idx := expected[pc]
		in := &prog.Code[idx]
		if in.Op == vmachine.OpCall {
			if ck.v.opts.AllowElidedCalls {
				if ck.v.mayCollect[in.Target] {
					ck.addf(KindPCMap, pc, "elided call table, but the callee may reach a collection")
				}
				continue
			}
			ck.addf(KindPCMap, pc, "gc-point (call) missing from the PC map")
			continue
		}
		ck.addf(KindPCMap, pc, "gc-point (%s) missing from the PC map", in.Op)
	}
}

func locsEqual(a, b []gctab.Location) bool {
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

func sameDerivEntries(a, b []gctab.DerivEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Target != y.Target || (x.Sel == nil) != (y.Sel == nil) {
			return false
		}
		if x.Sel != nil && *x.Sel != *y.Sel {
			return false
		}
		if len(x.Variants) != len(y.Variants) {
			return false
		}
		for v := range x.Variants {
			if len(x.Variants[v]) != len(y.Variants[v]) {
				return false
			}
			for j := range x.Variants[v] {
				if x.Variants[v][j] != y.Variants[v][j] {
					return false
				}
			}
		}
	}
	return true
}

// checkDescriptors recomputes the canonical Previous-mode descriptor
// for each point (Empty wins over Same, unused bits zero) and demands
// the stream byte match exactly.
func (ck *procCheck) checkDescriptors() {
	if !ck.v.enc.Scheme.Previous {
		return
	}
	var prev *gctab.RawPoint
	for _, rp := range ck.points {
		if !rp.HasDesc {
			ck.addf(KindDescriptor, rp.PC, "missing descriptor byte")
			continue
		}
		var want byte
		v := &rp.View
		switch {
		case len(v.Live) == 0:
			want |= gctab.DescStackEmpty
		case prev != nil && locsEqual(prev.View.Live, v.Live):
			want |= gctab.DescStackSame
		}
		switch {
		case v.RegPtrs == 0:
			want |= gctab.DescRegsEmpty
		case prev != nil && prev.View.RegPtrs == v.RegPtrs:
			want |= gctab.DescRegsSame
		}
		switch {
		case len(v.Derivs) == 0:
			want |= gctab.DescDerivEmpty
		case prev != nil && sameDerivEntries(prev.View.Derivs, v.Derivs):
			want |= gctab.DescDerivSame
		}
		if rp.Desc != want {
			ck.addf(KindDescriptor, rp.PC, "descriptor %#02x, canonical encoding is %#02x", rp.Desc, want)
		}
		prev = rp
	}
}

func sortedLocs(ls []gctab.Location) []gctab.Location {
	out := append([]gctab.Location(nil), ls...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.InReg != b.InReg {
			return a.InReg
		}
		if a.InReg {
			return a.Reg < b.Reg
		}
		if a.Base != b.Base {
			return a.Base < b.Base
		}
		return a.Off < b.Off
	})
	return out
}

// checkStrict compares the decoded tables bit-for-bit against the
// compiler's in-memory object, cross-checks the compiler's known-scalar
// debug channel against the pointer tables, and checks that the frame
// program the collectors execute says what the decoded tables say.
func (ck *procCheck) checkStrict() {
	obj := ck.obj
	for _, rp := range ck.points {
		prog, err := ck.v.cache.Program(rp.PC)
		switch {
		case err != nil:
			ck.addf(KindStrict, rp.PC, "no frame program: %v", err)
		case prog == nil:
			ck.addf(KindStrict, rp.PC, "no frame program for a decoded gc-point")
		default:
			if err := prog.Verify(&rp.View); err != nil {
				ck.addf(KindStrict, rp.PC, "frame program differs from the decoded tables: %v", err)
			}
		}
	}
	if len(ck.saves) != len(obj.Saves) {
		ck.addf(KindStrict, -1, "decoded %d callee-save records, compiler has %d", len(ck.saves), len(obj.Saves))
	} else {
		for i := range ck.saves {
			if ck.saves[i] != obj.Saves[i] {
				ck.addf(KindStrict, -1, "callee-save record %d decoded as %+v, compiler has %+v", i, ck.saves[i], obj.Saves[i])
			}
		}
	}
	if len(ck.points) != len(obj.Points) {
		ck.addf(KindStrict, -1, "decoded %d gc-points, compiler has %d", len(ck.points), len(obj.Points))
	}
	n := len(ck.points)
	if len(obj.Points) < n {
		n = len(obj.Points)
	}
	for k := 0; k < n; k++ {
		rp, pt := ck.points[k], &obj.Points[k]
		if rp.PC != pt.PC {
			ck.addf(KindStrict, rp.PC, "point %d decoded at pc %d, compiler has pc %d", k, rp.PC, pt.PC)
			continue
		}
		var want []gctab.Location
		badIdx := false
		for _, gi := range pt.Live {
			if gi < 0 || gi >= len(obj.Ground) {
				ck.addf(KindStrict, rp.PC, "compiler live index %d outside ground table", gi)
				badIdx = true
				break
			}
			want = append(want, obj.Ground[gi])
		}
		if !badIdx && !locsEqual(sortedLocs(rp.View.Live), sortedLocs(want)) {
			ck.addf(KindStrict, rp.PC, "decoded live set %v, compiler has %v", rp.View.Live, want)
		}
		if rp.View.RegPtrs != pt.RegPtrs {
			ck.addf(KindStrict, rp.PC, "decoded register table %016b, compiler has %016b", rp.View.RegPtrs, pt.RegPtrs)
		}
		if !sameDerivEntries(rp.View.Derivs, pt.Derivs) {
			ck.addf(KindStrict, rp.PC, "decoded derivations differ from compiler's")
		}
		// A location the compiler knows holds a live scalar must never
		// appear in the pointer tables: the compactor would rewrite it.
		for _, sc := range pt.DebugScalars {
			if ck.locListed(rp, sc) {
				ck.addf(KindDebugScalar, rp.PC, "compiler-known scalar at %v listed in the pointer tables", sc)
			}
		}
		// A slot the heap-liveness pass dropped as a root must actually
		// be absent: an entry for it would mean the shrinking never
		// happened (or the encoder resurrected it).
		for _, dl := range pt.DeadByAnalysis {
			if ck.locListed(rp, dl) {
				ck.addf(KindDeadRoot, rp.PC, "analysis-dead slot %v still listed in the pointer tables", dl)
			}
		}
	}
}

// deadByAnalysis returns the compiler's dead-by-analysis set for the
// in-memory object point matching rp, or nil when unavailable (no
// strict-mode object, or nothing was dropped at this point).
func (ck *procCheck) deadByAnalysis(rp *gctab.RawPoint) map[lkey]bool {
	if ck.obj == nil {
		return nil
	}
	for i := range ck.obj.Points {
		if ck.obj.Points[i].PC != rp.PC {
			continue
		}
		dba := ck.obj.Points[i].DeadByAnalysis
		if len(dba) == 0 {
			return nil
		}
		m := make(map[lkey]bool, len(dba))
		for _, l := range dba {
			if lk, ok := ck.locKey(l); ok {
				m[lk] = true
			}
		}
		return m
	}
	return nil
}

// locListed reports whether the decoded point's tables mention l as a
// tidy pointer or derivation target.
func (ck *procCheck) locListed(rp *gctab.RawPoint, l gctab.Location) bool {
	lk, ok := ck.locKey(l)
	if !ok {
		return false
	}
	if lk.reg >= 0 && rp.View.RegPtrs&(1<<uint(lk.reg)) != 0 {
		return true
	}
	for _, ll := range rp.View.Live {
		if k2, ok := ck.locKey(ll); ok && k2 == lk {
			return true
		}
	}
	for i := range rp.View.Derivs {
		if k2, ok := ck.locKey(rp.View.Derivs[i].Target); ok && k2 == lk {
			return true
		}
	}
	return false
}

// checkSaves verifies the callee-save map: record well-formedness,
// that no unsaved callee-save register is ever written, and that each
// save slot still holds the register's entry value at every reachable
// gc-point (the collector reconstructs suspended registers from it).
func (ck *procCheck) checkSaves() {
	savedReg := map[uint8]bool{}
	for _, sv := range ck.saves {
		if sv.Reg < 8 || sv.Reg > 15 {
			ck.addf(KindSave, -1, "save record names R%d, which is not callee-save", sv.Reg)
			continue
		}
		if savedReg[sv.Reg] {
			ck.addf(KindSave, -1, "R%d saved twice", sv.Reg)
			continue
		}
		savedReg[sv.Reg] = true
		if sv.Off < -ck.fw || sv.Off >= 0 {
			ck.addf(KindBounds, -1, "save slot FP%+d outside the frame (%d words)", sv.Off, ck.fw)
		}
	}
	// No instruction may write a callee-save register that the
	// prologue did not save.
	for idx := ck.i0; idx < ck.iEnd; idx++ {
		_, defs := ck.lv.usesDefs(idx)
		for _, d := range defs {
			if d.reg >= 8 && !savedReg[uint8(d.reg)] {
				ck.codeSaveFinding(idx, uint8(d.reg))
			}
		}
	}
	for _, rp := range ck.points {
		idx, ok := ck.ptIdx[rp]
		if !ok {
			continue
		}
		σ := ck.it.in[idx-ck.i0]
		if σ == nil {
			continue
		}
		for _, sv := range ck.saves {
			if !savedReg[sv.Reg] || sv.Off < -ck.fw || sv.Off >= 0 {
				continue
			}
			want := symVal(ck.it.entryRegSym(sv.Reg))
			if got := σ.slot(sv.Off); !eqVal(got, want) {
				ck.addf(KindSave, rp.PC, "save slot FP%+d no longer holds R%d's entry value", sv.Off, sv.Reg)
			}
		}
	}
}

func (ck *procCheck) codeSaveFinding(idx int, reg uint8) {
	ck.addf(KindSave, ck.v.prog.PCOf[idx], "R%d written but absent from the callee-save map", reg)
}

// validLoc checks a table location against the register file and
// frame shape; invalid ones get a bounds finding and are excluded
// from the value checks.
func (ck *procCheck) validLoc(rp *gctab.RawPoint, what string, l gctab.Location) bool {
	if l.InReg {
		if l.Reg > 15 {
			ck.addf(KindBounds, rp.PC, "%s names register %d", what, l.Reg)
			return false
		}
		return true
	}
	if l.Base > gctab.BaseSP {
		ck.addf(KindBounds, rp.PC, "%s has base %d", what, l.Base)
		return false
	}
	lk, _ := ck.locKey(l)
	// Canonical FP-relative: frame words at [-fw,0), linkage at 0 and
	// 1, incoming arguments at [2, 2+nargs).
	if lk.off >= -ck.fw && lk.off < 0 {
		return true
	}
	if lk.off >= 2 && lk.off < int32(2+ck.nargs) {
		return true
	}
	ck.addf(KindBounds, rp.PC, "%s names slot %v outside the frame", what, l)
	return false
}

// checkPoint runs the per-gc-point value checks against the abstract
// state just before the point.
func (ck *procCheck) checkPoint(rp *gctab.RawPoint) {
	idx, ok := ck.ptIdx[rp]
	if !ok {
		return // phantom pc: already reported by checkPCMap
	}
	it := ck.it
	atCall := ck.v.prog.Code[idx].Op == vmachine.OpCall

	// Collect the listed tidy locations, flagging bounds violations
	// and duplicates.
	listed := map[lkey]bool{}
	for _, l := range rp.View.Live {
		if !ck.validLoc(rp, "stack table", l) {
			continue
		}
		lk, _ := ck.locKey(l)
		if listed[lk] {
			ck.addf(KindDuplicate, rp.PC, "%v listed twice in the stack table", l)
			continue
		}
		listed[lk] = true
	}
	for r := 0; r < 16; r++ {
		if rp.View.RegPtrs&(1<<uint(r)) == 0 {
			continue
		}
		if atCall && r < 8 {
			ck.addf(KindCallerSave, rp.PC, "register table lists caller-save R%d at a call", r)
		}
		listed[lkey{reg: int8(r)}] = true
	}

	derivTargets := map[lkey]bool{}
	for i := range rp.View.Derivs {
		if lk, ok := ck.locKey(rp.View.Derivs[i].Target); ok {
			derivTargets[lk] = true
		}
	}

	σ := it.in[idx-ck.i0]
	if σ == nil {
		return // unreachable: the collector can never stop here
	}

	// Listed locations must hold plausible tidy pointers (C3).
	var listedKeys []lkey
	for lk := range listed {
		listedKeys = append(listedKeys, lk)
	}
	sortKeys(listedKeys)
	for _, lk := range listedKeys {
		if derivTargets[lk] {
			ck.addf(KindBadDeriv, rp.PC, "%s is both a tidy-pointer entry and a derivation target", keyName(ck, lk))
			continue
		}
		if detail, bad := ck.staleDetail(σ.get(lk)); bad {
			ck.addf(KindStale, rp.PC, "listed %s %s", keyName(ck, lk), detail)
		}
	}

	ck.checkDerivs(rp, idx, σ, atCall, listed)

	// Live tidy pointers must be listed (C1) and live derived values
	// must have derivation entries (C2). A slot the compiler's
	// heap-liveness pass proved dead (DeadByAnalysis) is exempt: the
	// omission is the root-shrinking optimization, not a missing root.
	dead := ck.deadByAnalysis(rp)
	var acrossKeys []lkey
	for lk := range ck.lv.liveAcross(idx) {
		acrossKeys = append(acrossKeys, lk)
	}
	sortKeys(acrossKeys)
	for _, lk := range acrossKeys {
		v := σ.get(lk)
		if s, ok := tidySym(v); ok {
			if it.ptrClass(s) && !listed[lk] && !derivTargets[lk] && !dead[lk] {
				ck.addf(KindMissing, rp.PC, "live tidy pointer in %s not listed", keyName(ck, lk))
			}
			continue
		}
		if it.hasPtrTerm(v) && !derivTargets[lk] {
			ck.addf(KindMissingDeriv, rp.PC, "live derived pointer in %s has no derivation entry", keyName(ck, lk))
		}
	}
}

func sortKeys(ks []lkey) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].reg != ks[j].reg {
			return ks[i].reg < ks[j].reg
		}
		return ks[i].off < ks[j].off
	})
}

func keyName(ck *procCheck, lk lkey) string {
	if lk.reg >= 0 {
		return fmt.Sprintf("R%d", lk.reg)
	}
	return fmt.Sprintf("FP%+d", lk.off)
}

// staleDetail decides whether a listed location's abstract value is
// provably not a tidy heap pointer — something the compactor's
// pointer rewrite would corrupt.
func (ck *procCheck) staleDetail(v value) (string, bool) {
	it := ck.it
	if v.undef {
		return "is uninitialized garbage here", true
	}
	if isNil(v) {
		return "", false
	}
	if s, ok := tidySym(v); ok {
		switch it.classes[s] {
		case classSaved:
			return "holds a caller's callee-save image", true
		case classFrame:
			return "holds a frame address", true
		case classGlobal:
			return "holds a global address", true
		}
		return "", false // heap, claimed, or opaque: plausible pointer
	}
	if len(v.terms) == 0 {
		if v.cKnown {
			return fmt.Sprintf("holds the scalar constant %d", v.c), true
		}
		return "holds a non-pointer scalar", true
	}
	if it.hasPtrTerm(v) {
		return "holds a derived pointer, not a tidy one", true
	}
	if it.hasFPTerm(v) {
		return "holds a frame address", true
	}
	if it.hasGlobTerm(v) {
		return "holds a global address", true
	}
	for _, t := range v.terms {
		if it.classes[t.s] == classSaved {
			return "is derived from a caller's callee-save image", true
		}
	}
	return "", false // opaque polynomial: provenance unknown
}

// checkDerivs verifies each derivation entry: shape, selector,
// caller-save discipline, base coverage, the reconstruction equation,
// and the derived-before-base update ordering.
func (ck *procCheck) checkDerivs(rp *gctab.RawPoint, idx int, σ *state, atCall bool, listed map[lkey]bool) {
	it := ck.it
	derivs := rp.View.Derivs
	for di := range derivs {
		de := &derivs[di]
		if !ck.validLoc(rp, "derivation target", de.Target) {
			continue
		}
		tlk, _ := ck.locKey(de.Target)
		if atCall && de.Target.InReg && de.Target.Reg < 8 {
			ck.addf(KindCallerSave, rp.PC, "derivation target in caller-save R%d at a call", de.Target.Reg)
		}
		if len(de.Variants) == 0 {
			ck.addf(KindBadDeriv, rp.PC, "derivation of %v has no variants", de.Target)
			continue
		}
		if de.Sel == nil && len(de.Variants) != 1 {
			ck.addf(KindBadDeriv, rp.PC, "unambiguous derivation of %v has %d variants", de.Target, len(de.Variants))
			continue
		}
		if de.Sel != nil {
			if ck.validLoc(rp, "derivation selector", *de.Sel) {
				if atCall && de.Sel.InReg && de.Sel.Reg < 8 {
					ck.addf(KindCallerSave, rp.PC, "derivation selector in caller-save R%d at a call", de.Sel.Reg)
				}
				slk, _ := ck.locKey(*de.Sel)
				sv := σ.get(slk)
				if it.hasPtrTerm(sv) || it.hasFPTerm(sv) {
					ck.addf(KindBadDeriv, rp.PC, "selector %v does not hold a scalar", *de.Sel)
				}
			}
		}
		tv := σ.get(tlk)
		if tv.undef {
			ck.addf(KindBadDeriv, rp.PC, "derivation target %v is uninitialized here", de.Target)
			continue
		}

		// Later targets may serve as bases (the update ordering walks
		// the list front-to-back, derived before base).
		laterTargets := map[lkey]bool{}
		for dj := di + 1; dj < len(derivs); dj++ {
			if lk, ok := ck.locKey(derivs[dj].Target); ok {
				laterTargets[lk] = true
			}
		}

		allCheckable := true
		anyMatch := false
		if it.hasOpaqueTerm(tv) || !tv.cKnown && len(tv.terms) == 0 {
			allCheckable = false
		}
		for _, variant := range de.Variants {
			diff := tv
			checkable := !it.hasOpaqueTerm(tv)
			for _, b := range variant {
				if !ck.validLoc(rp, "derivation base", b.Loc) {
					checkable = false
					continue
				}
				blk, _ := ck.locKey(b.Loc)
				if atCall && b.Loc.InReg && b.Loc.Reg < 8 {
					ck.addf(KindCallerSave, rp.PC, "derivation base in caller-save R%d at a call", b.Loc.Reg)
				}
				// The collector must find the base as a tidy pointer:
				// in this point's tables, as a later derivation target,
				// or — for a forwarded VAR parameter — in the incoming
				// argument slot the caller's own tables maintain.
				incomingArg := blk.reg < 0 && blk.off >= 2 && blk.off < int32(2+ck.nargs)
				if !listed[blk] && !laterTargets[blk] && !incomingArg {
					ck.addf(KindBadDeriv, rp.PC, "base %v of %v is not covered by the tables", b.Loc, de.Target)
				}
				bv := σ.get(blk)
				if bv.undef {
					ck.addf(KindBadDeriv, rp.PC, "base %v of %v is uninitialized here", b.Loc, de.Target)
					checkable = false
					continue
				}
				if it.hasOpaqueTerm(bv) {
					checkable = false
				}
				diff = polyAdd(diff, bv, -int32(b.Sign))
			}
			if !checkable {
				allCheckable = false
				continue
			}
			if !it.hasPtrTerm(diff) {
				anyMatch = true
			}
		}
		// Only refute when every variant was fully resolvable and none
		// cancels the target's heap components (a = Σp − Σq + E).
		if allCheckable && !anyMatch {
			ck.addf(KindBadDeriv, rp.PC, "no variant of %v reconstructs the target from its bases", de.Target)
		}
	}

	// Update ordering: a value derived from base B must be processed
	// before B itself is updated, so B's own entry (if any) must come
	// later in the list.
	for i := range derivs {
		ti, ok := ck.locKey(derivs[i].Target)
		if !ok {
			continue
		}
		for j := i + 1; j < len(derivs); j++ {
			for _, variant := range derivs[j].Variants {
				for _, b := range variant {
					if bk, ok := ck.locKey(b.Loc); ok && bk == ti {
						ck.addf(KindDerivOrder, rp.PC,
							"%v is updated at position %d but entry %d still derives from it",
							derivs[i].Target, i, j)
					}
				}
			}
		}
	}
}
