package gc_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/difftest"
	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/vmachine"
)

// nestedSrc builds three nested frames that each keep a heap pointer
// live across a call, forcing the optimizer into callee-save registers:
// Outer holds r across Mid, Mid holds q across Inner, and Inner holds p
// across a forced collection. Mid's own GcCollect snapshots the
// interpreter's register file one call before the deep one.
const nestedSrc = `
MODULE T;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR out: INTEGER;

PROCEDURE Inner(n: INTEGER): INTEGER =
  VAR p: L;
  BEGIN
    p := NEW(L);
    p.v := n;
    GcCollect();
    RETURN p.v;
  END Inner;

PROCEDURE Mid(n: INTEGER): INTEGER =
  VAR q: L; s: INTEGER;
  BEGIN
    q := NEW(L);
    q.v := 200;
    GcCollect();
    s := Inner(n);
    RETURN s + q.v;
  END Mid;

PROCEDURE Outer(): INTEGER =
  VAR r: L; s: INTEGER;
  BEGIN
    r := NEW(L);
    r.v := 300;
    s := Mid(100);
    RETURN s + r.v;
  END Outer;

BEGIN
  out := Outer();
  PutInt(out); PutLn();
END T.
`

// walkChecker intercepts the two forced collections. The first (at
// Mid's gc-point) snapshots the interpreter's registers and collects
// nothing, so every value survives verbatim to the second (at Inner's
// gc-point), where the walk's roots are cross-checked against that
// ground truth before delegating to the real collector.
type walkChecker struct {
	t       *testing.T
	real    *gc.Collector
	calls   int
	snap    [16]int64
	checked bool
}

func (w *walkChecker) Collect(m *vmachine.Machine) error {
	w.calls++
	th := m.Threads[0]
	if w.calls == 1 {
		w.snap = th.Regs
		return nil
	}
	if w.calls > 2 {
		return w.real.Collect(m)
	}
	t := w.t
	var walk gc.Walk
	if err := walk.Machine(m, w.real.Dec); err != nil {
		t.Fatalf("walk: %v", err)
	}
	if len(walk.Threads) != 1 || walk.Threads[0].T != th {
		t.Fatalf("walked %d threads, want the main thread alone", len(walk.Threads))
	}
	tw := &walk.Threads[0]
	frames := tw.Frames
	// Inner → Mid → Outer → module body.
	if len(frames) < 4 {
		t.Fatalf("walked %d frames, want at least 4", len(frames))
	}
	inner, mid, outer := &frames[0], &frames[1], &frames[2]
	if got := inner.Prog.View.ProcName; !strings.Contains(got, "Inner") {
		t.Fatalf("innermost frame is %q, want Inner (have %s)", got, &walk)
	}
	if got := mid.Prog.View.ProcName; !strings.Contains(got, "Mid") {
		t.Fatalf("second frame is %q, want Mid", got)
	}
	if got := outer.Prog.View.ProcName; !strings.Contains(got, "Outer") {
		t.Fatalf("third frame is %q, want Outer", got)
	}

	// Every root, register roots included, is where the frame layout
	// says: the sweep's register homes match the nearest-callee rule.
	perFrame := checkRoots(t, m, &walk)

	// At least two nested frames spilled callee-save registers — the
	// reconstruction under test is only exercised through such spills.
	saved := 0
	for i := range frames {
		if len(frames[i].Prog.Saves) > 0 {
			saved++
		}
	}
	if saved < 2 {
		t.Fatalf("only %d frames carry callee-save maps, want >= 2 (%s)", saved, &walk)
	}
	if len(inner.Prog.Saves) == 0 {
		t.Fatal("Inner spilled no callee-save registers; the test program no longer exercises reconstruction")
	}

	// The innermost frame's registers ARE the interpreter's.
	innerRegs := regRoots(inner)
	for k, root := range perFrame[1][len(perFrame[1])-len(innerRegs):] {
		if r := innerRegs[k]; root != &th.Regs[r] {
			t.Errorf("inner frame R%d root is not &thread.Regs[%d]", r, r)
		}
	}
	// Inner's save slots hold exactly what the interpreter held at Mid's
	// own gc-point one call earlier, and so does every register root of
	// Mid: callee-save discipline means nothing in between may change
	// them.
	for _, sv := range inner.Prog.Saves {
		if home := m.Mem[inner.FP+int64(sv.Off)]; home != w.snap[sv.Reg] {
			t.Errorf("Inner's save slot for R%d holds %d, interpreter had %d at Mid's gc-point", sv.Reg, home, w.snap[sv.Reg])
		}
	}
	midRegs := regRoots(mid)
	for k, root := range perFrame[2][len(perFrame[2])-len(midRegs):] {
		if r := midRegs[k]; *root != w.snap[r] {
			t.Errorf("Mid's R%d root holds %d, interpreter had %d at Mid's gc-point", r, *root, w.snap[r])
		}
	}
	// Some caller's pointer register lives in a callee's save slot, so
	// the sweep's moves are exercised.
	spilled := 0
	for k := 1; k < len(frames); k++ {
		regs := regRoots(&frames[k])
		for j, root := range perFrame[k+1][len(perFrame[k+1])-len(regs):] {
			if root != &th.Regs[regs[j]] {
				spilled++
			}
		}
	}
	if spilled == 0 {
		t.Errorf("no register root of any caller lives in a save slot (%s)", &walk)
	}

	// Semantic check against the interpreter heap: Mid's and Outer's
	// roots must reach the records those frames built (first field at
	// addr+1, after the descriptor header).
	for _, fr := range []struct {
		k    int
		want int64
	}{{2, 200}, {3, 300}} {
		if !reaches(m, perFrame[fr.k], fr.want) {
			t.Errorf("frame %s: no root reaches a record with head %d",
				frames[fr.k-1].Prog.View.ProcName, fr.want)
		}
	}

	w.checked = true
	return w.real.Collect(m)
}

// regRoots lists f's live pointer registers in root order.
func regRoots(f *gc.Frame) []int {
	var rs []int
	for r := 0; r < 16; r++ {
		if f.Prog.RegPtrs&(1<<uint(r)) != 0 {
			rs = append(rs, r)
		}
	}
	return rs
}

// reaches reports whether any of roots points at a heap record whose
// first field is want.
func reaches(m *vmachine.Machine, roots []*int64, want int64) bool {
	for _, r := range roots {
		if p := *r; p >= m.HeapLo && p+1 < m.HeapHi && m.Mem[p+1] == want {
			return true
		}
	}
	return false
}

// wantRoots lays out, from w's frames alone, the roots a walk must
// report: group 0 the global pointer slots, then one group per frame in
// walk order — its FP slots, its SP slots, then each live pointer
// register at its home, the save slot of the nearest callee (innermost
// first) that saved it, else the thread's own register.
func wantRoots(m *vmachine.Machine, w *gc.Walk) [][]*int64 {
	var globals []*int64
	for _, off := range m.Prog.GlobalPtrOffs {
		globals = append(globals, &m.Mem[m.GlobalBase+off])
	}
	groups := [][]*int64{globals}
	for _, tw := range w.Threads {
		for k := range tw.Frames {
			f := &tw.Frames[k]
			var g []*int64
			for _, off := range f.Prog.FPRoots {
				g = append(g, &m.Mem[f.FP+int64(off)])
			}
			for _, off := range f.Prog.SPRoots {
				g = append(g, &m.Mem[f.SP+int64(off)])
			}
			for _, r := range regRoots(f) {
				g = append(g, regHome(m, tw, k, r))
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// regHome is where register r lives while frame k of tw is suspended.
func regHome(m *vmachine.Machine, tw gc.ThreadWalk, k, r int) *int64 {
	for j := k - 1; j >= 0; j-- {
		for _, sv := range tw.Frames[j].Prog.Saves {
			if int(sv.Reg) == r {
				return &m.Mem[tw.Frames[j].FP+int64(sv.Off)]
			}
		}
	}
	return &tw.T.Regs[r]
}

// checkRoots fails tb unless w.Roots lists exactly wantRoots, also
// when called again after a call with an extra slot, and returns the
// walk's roots cut into wantRoots' groups.
func checkRoots(tb testing.TB, m *vmachine.Machine, w *gc.Walk) [][]*int64 {
	tb.Helper()
	groups := wantRoots(m, w)
	var want []*int64
	for _, g := range groups {
		want = append(want, g...)
	}
	same := func(call string, got []*int64) {
		if len(got) != len(want) {
			tb.Fatalf("%s: walk reports %d roots, the frame layout has %d", call, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				tb.Fatalf("%s: root %d is not the slot the frame layout names", call, k)
			}
		}
	}
	got := w.Roots(m, nil)
	same("Roots", got)
	// A second call replaces the first one's extra slots and leaves the
	// walk's own roots as they were.
	slot := m.GlobalBase
	if extra := w.Roots(m, []int64{slot}); len(extra) != len(want)+1 || extra[len(want)] != &m.Mem[slot] {
		tb.Fatalf("Roots with one extra slot returned %d roots, want %d ending in the slot", len(extra), len(want)+1)
	}
	same("Roots after a call with an extra slot", w.Roots(m, nil))
	cut := make([][]*int64, len(groups))
	for gi, g := range groups {
		cut[gi], got = got[:len(g)], got[len(g):]
	}
	return cut
}

// TestNestedCalleeSaveReconstruction walks a three-deep call chain at
// the innermost gc-point and checks every root the walk reports against
// the frame layout and the interpreter: identity for the innermost
// frame's registers, save-slot homes and value equality for its
// caller's, and semantic reachability for both outer frames. The run
// then finishes under the real collector, so the reconstructed
// addresses also have to survive being written through during
// compaction.
func TestNestedCalleeSaveReconstruction(t *testing.T) {
	opts := driver.NewOptions()
	c, err := driver.Compile("t.m3", nestedSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 1 << 16
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	w := &walkChecker{t: t, real: col}
	m.Collector = w
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !w.checked {
		t.Error("inner gc-point never reached")
	}
	if sb.String() != "600\n" {
		t.Errorf("output %q, want \"600\\n\" (reconstruction corrupted a root?)", sb.String())
	}
	if col.Collections != 1 {
		t.Errorf("real collector ran %d times, want 1", col.Collections)
	}
}

// chainBreaker lets the run reach Inner's gc-point (the second forced
// collection), and there hands the machine to the collector entry under
// test together with a way to damage Mid's saved-FP word.
type chainBreaker struct {
	t       *testing.T
	dec     gctab.TableDecoder
	savedFP func(midFP, innerFP, stackHi int64) int64
	collect func(m *vmachine.Machine, damage func()) error
	calls   int
	midPC   int
}

func (b *chainBreaker) Collect(m *vmachine.Machine) error {
	if b.calls++; b.calls != 2 {
		return nil
	}
	var walk gc.Walk
	if err := walk.Machine(m, b.dec); err != nil {
		b.t.Fatalf("walk of the intact stack: %v", err)
	}
	frames := walk.Threads[0].Frames
	inner, mid := frames[0], frames[1]
	b.midPC = mid.PC
	return b.collect(m, func() {
		m.Mem[mid.FP] = b.savedFP(mid.FP, inner.FP, m.Threads[0].StackHi)
	})
}

// TestCorruptFrameChain damages a saved FP in the middle of a live stack
// three ways — pointing at itself, back down at its callee, and past
// the thread's stack — and requires the stop-the-world collection and
// the concurrent final pause alike to stop with an error naming the
// thread and the frame's pc, where the walker used to follow the chain
// until memory ran out or an index left the machine's memory.
func TestCorruptFrameChain(t *testing.T) {
	damages := []struct {
		name    string
		savedFP func(midFP, innerFP, stackHi int64) int64
	}{
		{"self cycle", func(mid, _, _ int64) int64 { return mid }},
		{"back to the callee", func(_, inner, _ int64) int64 { return inner }},
		{"past the stack", func(_, _, hi int64) int64 { return hi + 5 }},
	}
	for _, concurrent := range []bool{false, true} {
		for _, d := range damages {
			name := "stw/" + d.name
			if concurrent {
				name = "concurrent final pause/" + d.name
			}
			t.Run(name, func(t *testing.T) {
				opts := driver.NewOptions()
				opts.ConcurrentMark = concurrent
				c, err := driver.Compile("t.m3", nestedSrc, opts)
				if err != nil {
					t.Fatal(err)
				}
				cfg := vmachine.DefaultConfig()
				cfg.HeapWords = 1 << 12
				cfg.Out = io.Discard
				m, col, err := c.NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b := &chainBreaker{t: t, dec: col.Dec, savedFP: d.savedFP}
				b.collect = func(m *vmachine.Machine, damage func()) error {
					if !concurrent {
						damage()
						return col.Collect(m)
					}
					if err := col.StartCycle(m); err != nil {
						t.Fatalf("initial pause on the intact stack: %v", err)
					}
					damage()
					return col.FinishCycle(m)
				}
				m.Collector = b
				err = m.Run(0)
				if err == nil {
					t.Fatal("run finished on a corrupt frame chain")
				}
				for _, want := range []string{"corrupt frame chain", "thread 0", fmt.Sprintf("pc %d", b.midPC)} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not mention %q", err, want)
					}
				}
			})
		}
	}
}

// BenchmarkWalkPhase times one walk of DeepWalk's 220-frame stack at
// its gc-point, through the memoizing decoder collectors use by default
// (filled by one walk off the clock). After the last iteration every
// root the walk reports is checked against the frame layout, so a wrong
// walk fails here rather than only running fast.
func BenchmarkWalkPhase(b *testing.B) {
	const depth = 220
	c, err := driver.Compile("deepwalk.m3", bench.DeepWalkSource(depth, 1), driver.NewOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := vmachine.Config{HeapWords: 1 << 16, StackWords: depth*32 + 4096, MaxThreads: 8, Quantum: 1000, Out: io.Discard}
	m, col, err := c.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	walked := false
	m.Collector = collectFunc(func(m *vmachine.Machine) error {
		if walked {
			return col.Collect(m)
		}
		walked = true
		var w gc.Walk
		if err := w.Machine(m, col.Dec); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Machine(m, col.Dec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if n := w.NumFrames(); n < depth {
			b.Fatalf("walked %d frames, want at least %d", n, depth)
		}
		// Every Walk frame keeps its list live across the call.
		if n := len(w.Roots(m, nil)); n < depth {
			b.Fatalf("walk reports %d roots, want at least one per Walk frame (%d)", n, depth)
		}
		checkRoots(b, m, &w)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w.NumFrames()), "ns/frame")
		return col.Collect(m)
	})
	if err := m.Run(0); err != nil {
		b.Fatal(err)
	}
	if !walked {
		b.Fatal("DeepWalk never reached its gc-point")
	}
}

// derivChecker checks, at every collection, the walk's derived-value
// phases against the frame layout before delegating to the real
// collector: AdjustDerived must leave in each target exactly what the
// §3 rule computes from the slots the tables name (resolved with
// regHome), applied in the same order, and RederiveAll, with nothing
// moved, must restore every word.
type derivChecker struct {
	t       *testing.T
	real    *gc.Collector
	derivs  int
	inRegs  int // slots (target, path variable or base) in registers
	pauses  int
	walk    gc.Walk
	touched map[*int64]int64
}

func (d *derivChecker) Collect(m *vmachine.Machine) error {
	t := d.t
	if err := d.walk.Machine(m, d.real.Dec); err != nil {
		return err
	}
	// The oracle: apply phase 1 to a shadow of the words it writes.
	d.touched = map[*int64]int64{}
	read := func(p *int64) int64 {
		if v, ok := d.touched[p]; ok {
			return v
		}
		return *p
	}
	before := map[*int64]int64{}
	n := 0
	for _, tw := range d.walk.Threads {
		for k := range tw.Frames {
			f := &tw.Frames[k]
			at := func(s gctab.Slot) *int64 {
				if r, ok := s.Reg(); ok {
					d.inRegs++
					return regHome(m, tw, k, r)
				}
				off, fromSP := s.Stack()
				if fromSP {
					return &m.Mem[f.SP+off]
				}
				return &m.Mem[f.FP+off]
			}
			for di := range f.Prog.Derivs {
				op := &f.Prog.Derivs[di]
				v := 0
				if op.Sel != gctab.NoSlot {
					v = int(read(at(op.Sel)))
				}
				target := at(op.Target)
				e := read(target)
				for _, b := range f.Prog.Variant(op, v) {
					e -= int64(b.Sign) * read(at(b.Slot))
				}
				if _, ok := before[target]; !ok {
					before[target] = *target
				}
				d.touched[target] = e
				n++
			}
		}
	}
	if err := d.walk.AdjustDerived(); err != nil {
		return err
	}
	if got := d.walk.NumDerivs(); got != n {
		t.Fatalf("adjusted %d derived values, the tables list %d", got, n)
	}
	for p, want := range d.touched {
		if *p != want {
			t.Fatalf("pause %d: adjusted value %d, the §3 rule over the frame layout gives %d", d.pauses, *p, want)
		}
	}
	d.walk.RederiveAll()
	for p, want := range before {
		if *p != want {
			t.Fatalf("pause %d: re-derived value %d, held %d before the walk (nothing moved)", d.pauses, *p, want)
		}
	}
	d.derivs += n
	d.pauses++
	return d.real.Collect(m)
}

// TestDerivedValuesResolveAgainstFrameLayout runs the derived-pointer
// kernels (SUBARRAY windows, WITH aliases, interior pointers) and
// generated program 3 (whose derivations name callee-save registers)
// with the walk's adjust and re-derive checked at every collection
// against the frame layout, and requires each program's output from a
// run without the checks.
func TestDerivedValuesResolveAgainstFrameLayout(t *testing.T) {
	total, inRegs := 0, 0
	programs := append(difftest.Kernels(), difftest.Kernel{Name: "generated-3", Source: difftest.Generate(3)})
	for _, k := range programs {
		t.Run(k.Name, func(t *testing.T) {
			c, err := driver.Compile(k.Name+".m3", k.Source, driver.NewOptions())
			if err != nil {
				t.Fatal(err)
			}
			run := func(check bool) (string, *derivChecker) {
				cfg := vmachine.DefaultConfig()
				cfg.HeapWords = 1 << 12
				var sb strings.Builder
				cfg.Out = &sb
				m, col, err := c.NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				col.Debug = true
				d := &derivChecker{t: t, real: col}
				if check {
					m.Collector = d
				}
				if err := m.Run(0); err != nil {
					t.Fatal(err)
				}
				return sb.String(), d
			}
			ref, _ := run(false)
			out, d := run(true)
			if out != ref {
				t.Errorf("output %q, want %q", out, ref)
			}
			total += d.derivs
			inRegs += d.inRegs
		})
	}
	if total == 0 || inRegs == 0 {
		t.Fatalf("checked %d derived values (%d of their slots in registers), want some of each", total, inRegs)
	}
	t.Logf("%d derived values checked, %d of their slots in registers", total, inRegs)
}
