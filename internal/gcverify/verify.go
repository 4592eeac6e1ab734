// Package gcverify statically cross-checks compiler-emitted gc tables
// against the compiled VM code. It independently recomputes, by
// forward abstract interpretation of the instruction stream, which
// registers and frame slots hold live tidy pointers and derived
// values at every gc-point, then verifies the decoded tables of any
// encoding scheme against that ground truth: no live pointer missing,
// no provably-dead-or-scalar location listed (the compactor would
// rewrite it to garbage), every derivation's bases covered and its
// equation consistent, callee-save spill records matching the
// prologue, PC-map distances naming real gc-points, and update
// ordering (derived before base) realizable.
//
// In strict mode (Options.Object) the decoded tables are additionally
// compared bit-for-bit against the compiler's in-memory tables, which
// turns the verifier into a near-exhaustive encode/decode oracle for
// the seeded-fault harness in mutate.go, and the frame program the
// collectors execute at each gc-point (gctab.FrameProgram) is checked
// against the plain decoder's tables for that point.
package gcverify

import (
	"fmt"
	"sort"

	"repro/internal/gctab"
	"repro/internal/vmachine"
)

// Kind classifies a finding.
type Kind int

const (
	KindDecode       Kind = iota // table stream failed to decode
	KindIndex                    // procedure index inconsistent with code
	KindPCMap                    // PC map names wrong/missing gc-points
	KindDescriptor               // non-canonical Previous-mode descriptor
	KindBounds                   // location outside frame/register file
	KindDuplicate                // location listed twice at one point
	KindStale                    // listed location provably not a tidy pointer
	KindMissing                  // live tidy pointer not listed
	KindMissingDeriv             // live derived value with no derivation entry
	KindBadDeriv                 // derivation entry inconsistent with code
	KindDerivOrder               // derived-before-base ordering violated
	KindCallerSave               // pointer table names caller-save reg at a call
	KindSave                     // callee-save map inconsistent with prologue
	KindCode                     // code malformed (bad target, missing enter)
	KindStrict                   // decoded tables differ from compiler's object
	KindDebugScalar              // compiler-known scalar listed as a pointer
	KindDeadRoot                 // analysis-dead location still listed in the tables
)

var kindNames = map[Kind]string{
	KindDecode: "decode", KindIndex: "index", KindPCMap: "pc-map",
	KindDescriptor: "descriptor", KindBounds: "bounds", KindDuplicate: "duplicate",
	KindStale: "stale", KindMissing: "missing", KindMissingDeriv: "missing-deriv",
	KindBadDeriv: "bad-deriv", KindDerivOrder: "deriv-order",
	KindCallerSave: "caller-save", KindSave: "save", KindCode: "code",
	KindStrict: "strict", KindDebugScalar: "debug-scalar",
	KindDeadRoot: "dead-root",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Finding is one verification failure.
type Finding struct {
	Kind   Kind
	Proc   string
	PC     int // gc-point or instruction byte PC; -1 when not localized
	Detail string
}

func (f Finding) String() string {
	if f.PC >= 0 {
		return fmt.Sprintf("%s: %s: pc %d: %s", f.Kind, f.Proc, f.PC, f.Detail)
	}
	return fmt.Sprintf("%s: %s: %s", f.Kind, f.Proc, f.Detail)
}

// Options configures a verification run.
type Options struct {
	// Object enables strict mode: the compiler's in-memory tables,
	// checked bit-for-bit against the decoded stream (and its
	// DebugScalars cross-checked against the pointer tables).
	Object *gctab.Object
	// AllowElidedCalls permits call gc-points with no table entry when
	// the callee provably cannot reach a collection (the driver's
	// ElideNonAlloc optimization). Unjustified elisions are still
	// flagged.
	AllowElidedCalls bool
	// FailFast stops at the first finding.
	FailFast bool
	// MaxFindings caps the report (default 200).
	MaxFindings int
}

// Report is the outcome of a verification run.
type Report struct {
	Procs    int
	Points   int
	Findings []Finding
	// Truncated is set when findings were dropped at MaxFindings.
	Truncated bool
}

// OK reports a clean run.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// Err returns nil for a clean run, else an error naming the first
// finding and the total count.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	if len(r.Findings) == 1 {
		return fmt.Errorf("gcverify: %s", r.Findings[0])
	}
	return fmt.Errorf("gcverify: %d findings, first: %s", len(r.Findings), r.Findings[0])
}

type verifier struct {
	prog *vmachine.Program
	enc  *gctab.Encoded
	dec  *gctab.Decoder
	// cache supplies the frame programs strict mode checks against the
	// plain decoder's tables.
	cache *gctab.CachedDecoder
	opts  Options
	rep   *Report

	procByEntry map[int]*vmachine.ProcInfo
	mayCollect  map[int]bool // proc entry -> a collection is reachable
	stop        bool
}

// Verify cross-checks enc against prog and returns the report.
func Verify(prog *vmachine.Program, enc *gctab.Encoded, opts Options) *Report {
	if opts.MaxFindings <= 0 {
		opts.MaxFindings = 200
	}
	v := &verifier{
		prog: prog, enc: enc, dec: gctab.NewDecoder(enc), cache: gctab.NewCachedDecoder(enc), opts: opts,
		rep:         &Report{},
		procByEntry: map[int]*vmachine.ProcInfo{},
	}
	for i := range prog.Procs {
		v.procByEntry[prog.Procs[i].Entry] = &prog.Procs[i]
	}
	v.computeMayCollect()
	for i := 0; i < v.dec.NumProcs() && !v.stop; i++ {
		v.verifyProc(i)
	}
	return v.rep
}

func (v *verifier) addf(kind Kind, proc string, pc int, format string, args ...any) {
	if v.stop {
		return
	}
	if len(v.rep.Findings) >= v.opts.MaxFindings {
		v.rep.Truncated = true
		v.stop = true
		return
	}
	v.rep.Findings = append(v.rep.Findings, Finding{
		Kind: kind, Proc: proc, PC: pc, Detail: fmt.Sprintf(format, args...),
	})
	if v.opts.FailFast {
		v.stop = true
	}
}

// computeMayCollect closes "contains a gc-point instruction other than
// a call, or calls a procedure that may collect" over the call graph:
// the soundness condition for eliding a call's table entry.
func (v *verifier) computeMayCollect() {
	v.mayCollect = map[int]bool{}
	calls := map[int][]int{} // caller entry -> callee entries
	for pi := range v.prog.Procs {
		p := &v.prog.Procs[pi]
		i0, iEnd, ok := v.instrRange(p)
		if !ok {
			continue
		}
		for idx := i0; idx < iEnd; idx++ {
			in := &v.prog.Code[idx]
			switch in.Op {
			case vmachine.OpNewRec, vmachine.OpNewArr, vmachine.OpNewText,
				vmachine.OpGcPoll, vmachine.OpGcCollect:
				v.mayCollect[p.Entry] = true
			case vmachine.OpCall:
				calls[p.Entry] = append(calls[p.Entry], in.Target)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			if v.mayCollect[caller] {
				continue
			}
			for _, c := range callees {
				if v.mayCollect[c] {
					v.mayCollect[caller] = true
					changed = true
					break
				}
			}
		}
	}
}

// instrRange maps a procedure's byte-PC range to instruction indices.
func (v *verifier) instrRange(p *vmachine.ProcInfo) (i0, iEnd int, ok bool) {
	i0, ok = v.prog.IdxOf[p.Entry]
	if !ok {
		return 0, 0, false
	}
	iEnd = sort.SearchInts(v.prog.PCOf, p.End)
	if iEnd >= len(v.prog.PCOf) || v.prog.PCOf[iEnd] != p.End || iEnd < i0 {
		return 0, 0, false
	}
	return i0, iEnd, true
}

// procCheck carries everything needed to verify one procedure.
type procCheck struct {
	v     *verifier
	name  string
	info  *vmachine.ProcInfo
	i0    int
	iEnd  int
	fw    int32
	nargs int

	saves  []gctab.RegSave
	points []*gctab.RawPoint       // stream order
	ptAt   map[int]*gctab.RawPoint // gc instruction index -> point
	ptIdx  map[*gctab.RawPoint]int // point -> gc instruction index
	succs  [][]int                 // indexed idx-i0
	obj    *gctab.ProcTables       // strict mode; nil otherwise

	it *interp
	lv *liveInfo
}

func (ck *procCheck) addf(kind Kind, pc int, format string, args ...any) {
	ck.v.addf(kind, ck.name, pc, format, args...)
}

func (ck *procCheck) codeFinding(idx int, format string, args ...any) {
	ck.addf(KindCode, ck.v.prog.PCOf[idx], format, args...)
}

// locKey canonicalizes a table location; ok is false for locations no
// check beyond bounds should touch.
func (ck *procCheck) locKey(l gctab.Location) (lkey, bool) {
	if l.InReg {
		if l.Reg > 15 {
			return lkey{}, false
		}
		return lkey{reg: int8(l.Reg)}, true
	}
	switch l.Base {
	case gctab.BaseFP:
		return lkey{reg: -1, off: l.Off}, true
	case gctab.BaseSP:
		return lkey{reg: -1, off: l.Off - ck.fw}, true
	}
	return lkey{}, false
}

func (ck *procCheck) buildCFG() {
	prog := ck.v.prog
	ck.succs = make([][]int, ck.iEnd-ck.i0)
	for idx := ck.i0; idx < ck.iEnd; idx++ {
		in := &prog.Code[idx]
		var ss []int
		target := func() {
			j, ok := prog.IdxOf[in.Target]
			if !ok || j <= ck.i0 || j >= ck.iEnd {
				ck.codeFinding(idx, "branch target %d outside procedure body", in.Target)
				return
			}
			ss = append(ss, j)
		}
		switch in.Op {
		case vmachine.OpJmp:
			target()
		case vmachine.OpBT, vmachine.OpBF:
			if idx+1 < ck.iEnd {
				ss = append(ss, idx+1)
			}
			target()
		case vmachine.OpRet, vmachine.OpHalt, vmachine.OpTrap:
		default:
			if idx+1 < ck.iEnd {
				ss = append(ss, idx+1)
			} else {
				ck.codeFinding(idx, "control falls off the end of the procedure")
			}
		}
		ck.succs[idx-ck.i0] = ss
	}
}

// verifyProc runs the full pipeline for encoded procedure i.
func (v *verifier) verifyProc(i int) {
	name := v.dec.ProcName(i)
	entry := v.enc.Index[i].Entry
	info, ok := v.procByEntry[entry]
	if !ok {
		v.addf(KindIndex, name, -1, "index entry %d names no procedure", entry)
		return
	}
	if info.End != v.enc.Index[i].End {
		v.addf(KindIndex, name, -1, "index end %d, code says %d", v.enc.Index[i].End, info.End)
	}
	i0, iEnd, ok := v.instrRange(info)
	if !ok {
		v.addf(KindIndex, name, -1, "procedure byte range [%d,%d) does not align with instructions", info.Entry, info.End)
		return
	}
	ck := &procCheck{
		v: v, name: name, info: info, i0: i0, iEnd: iEnd,
		fw: int32(info.FrameWords), nargs: info.NumArgs,
		ptAt:  map[int]*gctab.RawPoint{},
		ptIdx: map[*gctab.RawPoint]int{},
	}
	if v.opts.Object != nil {
		for pi := range v.opts.Object.Procs {
			if v.opts.Object.Procs[pi].Entry == entry {
				ck.obj = &v.opts.Object.Procs[pi]
				break
			}
		}
		if ck.obj == nil {
			v.addf(KindStrict, name, -1, "no in-memory tables for entry %d", entry)
		}
	}

	saves, err := v.dec.WalkProc(i, func(rp *gctab.RawPoint) error {
		ck.points = append(ck.points, rp)
		return nil
	})
	if err != nil {
		v.rep.Truncated = true
		v.addf(KindDecode, name, -1, "%v", err)
		return
	}
	ck.saves = saves
	v.rep.Procs++
	v.rep.Points += len(ck.points)

	ck.buildCFG()
	ck.checkPCMap()
	ck.checkDescriptors()
	if ck.obj != nil {
		ck.checkStrict()
	}
	if v.stop {
		return
	}

	ck.it = newInterp(ck)
	if !ck.it.run() {
		return
	}
	ck.lv = computeLiveness(ck)
	ck.checkSaves()
	for _, rp := range ck.points {
		if v.stop {
			return
		}
		ck.checkPoint(rp)
	}
}
