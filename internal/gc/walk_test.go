package gc_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

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
// gc-point), where the walk is cross-checked against that ground truth
// before delegating to the real collector.
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
	if err := walk.Machine(m, w.real.Dec, 0); err != nil {
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

	// The innermost frame's registers ARE the interpreter's: every
	// register must resolve to the thread's live register file.
	for r := 0; r < 16; r++ {
		if tw.RegPtr(m, inner, r) != &th.Regs[r] {
			t.Errorf("inner frame R%d reconstructed from memory, want &thread.Regs[%d]", r, r)
		}
	}

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

	// Registers that Inner's prologue spilled must be reconstructed for
	// Mid (a) from Inner's frame memory, not the live register file, and
	// (b) to exactly the values the interpreter held at Mid's own
	// gc-point one call earlier — callee-save discipline means nothing
	// in between may change them.
	if len(inner.Prog.Saves) == 0 {
		t.Fatal("Inner spilled no callee-save registers; the test program no longer exercises reconstruction")
	}
	for _, sv := range inner.Prog.Saves {
		addr := inner.FP + int64(sv.Off)
		got := tw.RegPtr(m, mid, int(sv.Reg))
		if got != &m.Mem[addr] {
			t.Errorf("Mid's R%d not reconstructed from Inner's save slot FP%+d", sv.Reg, sv.Off)
		}
		if got, want := *got, w.snap[sv.Reg]; got != want {
			t.Errorf("Mid's reconstructed R%d = %d, interpreter had %d at Mid's gc-point", sv.Reg, got, want)
		}
	}

	// Semantic check against the interpreter heap: Mid's and Outer's
	// reconstructed pointer roots must reach the records those frames
	// built (first field at addr+1, after the descriptor header).
	for _, fr := range []struct {
		f    *gc.Frame
		want int64
	}{{mid, 200}, {outer, 300}} {
		if !frameReaches(m, tw, fr.f, fr.want) {
			t.Errorf("frame %s: no reconstructed root reaches a record with head %d",
				fr.f.Prog.View.ProcName, fr.want)
		}
	}

	w.checked = true
	return w.real.Collect(m)
}

// frameReaches reports whether any live root of f (register or stack
// slot) points at a heap record whose first field is want.
func frameReaches(m *vmachine.Machine, tw *gc.ThreadWalk, f *gc.Frame, want int64) bool {
	check := func(p int64) bool {
		return p >= m.HeapLo && p+1 < m.HeapHi && m.Mem[p+1] == want
	}
	for r := 0; r < 16; r++ {
		if f.Prog.RegPtrs&(1<<uint(r)) != 0 && check(*tw.RegPtr(m, f, r)) {
			return true
		}
	}
	for _, off := range f.Prog.FPRoots {
		if check(m.Mem[f.FP+int64(off)]) {
			return true
		}
	}
	for _, off := range f.Prog.SPRoots {
		if check(m.Mem[f.SP+int64(off)]) {
			return true
		}
	}
	return false
}

// TestNestedCalleeSaveReconstruction walks a three-deep call chain at
// the innermost gc-point and checks the reconstructed per-frame
// register files against the interpreter: identity for the innermost
// frame, spill-slot aliasing and value equality for its caller, and
// semantic reachability for both outer frames. The run then finishes
// under the real collector, so the reconstructed addresses also have to
// survive being written through during compaction.
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
	if err := walk.Machine(m, b.dec, 1); err != nil {
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
