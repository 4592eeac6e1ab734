package gc_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/vmachine"
)

// parallelSrc runs three allocating workers beside an allocating main
// thread (the test spawns W1..W3), all contending for a tiny heap, so
// every rendezvous collection walks several live stacks at once.
const parallelSrc = `
MODULE PW;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
VAR done1, done2, done3, s1, s2, s3, s0, t: INTEGER;

PROCEDURE Churn(n: INTEGER): INTEGER =
  VAR keep, junk: List; i, s: INTEGER;
  BEGIN
    keep := NIL;
    FOR i := 1 TO n DO
      junk := NEW(List);
      junk.head := i;
      IF i MOD 5 = 0 THEN
        junk.tail := keep;
        keep := junk;
      END;
    END;
    s := 0;
    WHILE keep # NIL DO s := s + keep.head; keep := keep.tail; END;
    RETURN s;
  END Churn;

PROCEDURE W1() = BEGIN s1 := Churn(180); done1 := 1; END W1;
PROCEDURE W2() = BEGIN s2 := Churn(140); done2 := 1; END W2;
PROCEDURE W3() = BEGIN s3 := Churn(100); done3 := 1; END W3;

BEGIN
  s0 := Churn(220);
  WHILE done1 = 0 DO t := t + 1; END;
  WHILE done2 = 0 DO t := t + 1; END;
  WHILE done3 = 0 DO t := t + 1; END;
  PutInt(s0 + s1 + s2 + s3); PutLn();
END PW.
`

const parallelWant = "11360\n" // 4950 + 3330 + 2030 + 1050

func compileParallel(t *testing.T, opts driver.Options) *driver.Compiled {
	t.Helper()
	c, err := driver.Compile("pw.m3", parallelSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func startParallel(t *testing.T, c *driver.Compiled) (*vmachine.Machine, *gc.Collector, *strings.Builder) {
	t.Helper()
	cfg := vmachine.Config{HeapWords: 1024, StackWords: 4096, MaxThreads: 8, Quantum: 53}
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	for _, name := range []string{"W1", "W2", "W3"} {
		p := c.Prog.FindProc(name)
		if p < 0 {
			t.Fatalf("proc %s not found", name)
		}
		if _, err := m.Spawn(p); err != nil {
			t.Fatal(err)
		}
	}
	return m, col, &sb
}

// compareWalks requires got to hold want's exact threads and frames:
// same pc/fp/sp, deep-equal tables, and register files that resolve
// every register to the same word.
func compareWalks(t *testing.T, m *vmachine.Machine, label string, want, got *gc.Walk) {
	t.Helper()
	if len(got.Threads) != len(want.Threads) {
		t.Fatalf("%s: %d threads, serial walk found %d", label, len(got.Threads), len(want.Threads))
	}
	for ti := range want.Threads {
		wt, gt := &want.Threads[ti], &got.Threads[ti]
		if gt.T != wt.T || len(gt.Frames) != len(wt.Frames) {
			t.Fatalf("%s: slab %d is thread %d with %d frames, serial walk has thread %d with %d",
				label, ti, gt.T.ID, len(gt.Frames), wt.T.ID, len(wt.Frames))
		}
		for i := range wt.Frames {
			w, g := &wt.Frames[i], &gt.Frames[i]
			if g.PC != w.PC || g.FP != w.FP || g.SP != w.SP {
				t.Fatalf("%s: thread %d frame %d is %s@%d fp=%d sp=%d, serial walk has %s@%d fp=%d sp=%d",
					label, wt.T.ID, i, g.Prog.View.ProcName, g.PC, g.FP, g.SP, w.Prog.View.ProcName, w.PC, w.FP, w.SP)
			}
			if !reflect.DeepEqual(g.Prog, w.Prog) {
				t.Fatalf("%s: thread %d frame %d (%s@%d): frame program differs from serial walk",
					label, wt.T.ID, i, w.Prog.View.ProcName, w.PC)
			}
			for r := 0; r < 16; r++ {
				if gt.RegPtr(m, g, r) != wt.RegPtr(m, w, r) {
					t.Fatalf("%s: thread %d frame %d (%s@%d): R%d reconstructed from a different word",
						label, wt.T.ID, i, w.Prog.View.ProcName, w.PC, r)
				}
			}
		}
	}
}

// walkComparer re-walks the machine at every collection — serially,
// with wider worker pools, and through a shared cached decoder — and
// requires all of them to produce the serial walk's exact frame list
// before delegating to the real collector.
type walkComparer struct {
	t           *testing.T
	real        *gc.Collector
	cached      gctab.TableDecoder
	collections int
	maxLive     int
}

func (w *walkComparer) Collect(m *vmachine.Machine) error {
	t := w.t
	w.collections++
	live := 0
	for _, th := range m.Threads {
		if !th.Done {
			live++
		}
	}
	if live > w.maxLive {
		w.maxLive = live
	}
	var serial, par gc.Walk
	if err := serial.Machine(m, w.real.Dec, 1); err != nil {
		t.Fatalf("serial walk: %v", err)
	}
	for _, workers := range []int{2, 8} {
		if err := par.Machine(m, w.real.Dec, workers); err != nil {
			t.Fatalf("walk with %d workers: %v", workers, err)
		}
		compareWalks(t, m, fmt.Sprintf("workers=%d", workers), &serial, &par)
	}
	if err := par.Machine(m, w.cached, 8); err != nil {
		t.Fatalf("cached parallel walk: %v", err)
	}
	compareWalks(t, m, "cached workers=8", &serial, &par)
	return w.real.Collect(m)
}

// TestParallelWalkMatchesSerial pins the parallel walker's determinism
// contract at live rendezvous states: for every collection of a
// four-thread run, walks at widths 1, 2, and 8 — and a width-8 walk
// through a shared CachedDecoder — must produce identical frame lists
// (same pc/fp/sp, deep-equal frame programs, same reconstructed
// register aliases) in m.Threads order.
func TestParallelWalkMatchesSerial(t *testing.T) {
	opts := driver.NewOptions()
	opts.Multithreaded = true
	opts.DecodeCache = false // real.Dec is the plain decoder; cache compared explicitly
	c := compileParallel(t, opts)
	m, col, sb := startParallel(t, c)
	w := &walkComparer{t: t, real: col, cached: gctab.NewCachedDecoder(c.Encoded)}
	m.Collector = w
	if err := m.Run(100_000_000); err != nil {
		t.Fatalf("%v (out=%q)", err, sb.String())
	}
	if sb.String() != parallelWant {
		t.Errorf("output %q, want %q", sb.String(), parallelWant)
	}
	if w.collections == 0 {
		t.Error("no collections: the walks were never compared")
	}
	if w.maxLive < 2 {
		t.Errorf("at most %d live threads at any collection; the parallel path was not exercised", w.maxLive)
	}
	t.Logf("%d collections compared, up to %d live threads", w.collections, w.maxLive)
}

// frameRecorder logs a signature of every collection's frame list (as
// walked by the machine's own configured decoder and worker width) so
// whole runs can be compared configuration-against-configuration.
type frameRecorder struct {
	real *gc.Collector
	walk gc.Walk
	log  []string
}

func (r *frameRecorder) Collect(m *vmachine.Machine) error {
	if err := r.walk.Machine(m, r.real.Dec, r.real.WalkWorkers); err != nil {
		return err
	}
	r.log = append(r.log, r.walk.String())
	return r.real.Collect(m)
}

// TestParallelWalkEndToEndDeterminism runs the same four-thread program
// under cache on/off × workers 1/8 and requires every observable to be
// bitwise identical across all four configurations: program output,
// collection count, the per-collection frame signatures, and the entire
// final heap image. This is the acceptance bar for the decode cache and
// the parallel walker being behaviorally invisible.
func TestParallelWalkEndToEndDeterminism(t *testing.T) {
	type result struct {
		label  string
		out    string
		gcs    int64
		log    []string
		heap   []int64
		frames int
	}
	var results []result
	for _, cache := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			opts := driver.NewOptions()
			opts.Multithreaded = true
			opts.DecodeCache = cache
			opts.WalkWorkers = workers
			c := compileParallel(t, opts)
			m, col, sb := startParallel(t, c)
			rec := &frameRecorder{real: col}
			m.Collector = rec
			if err := m.Run(100_000_000); err != nil {
				t.Fatalf("cache=%v workers=%d: %v (out=%q)", cache, workers, err, sb.String())
			}
			heap := make([]int64, m.HeapHi-m.HeapLo)
			copy(heap, m.Mem[m.HeapLo:m.HeapHi])
			frames := 0
			for _, sig := range rec.log {
				frames += strings.Count(sig, ";")
			}
			results = append(results, result{
				label: fmt.Sprintf("cache=%v workers=%d", cache, workers),
				out:   sb.String(), gcs: m.GCCount, log: rec.log, heap: heap, frames: frames,
			})
		}
	}
	base := results[0]
	if base.out != parallelWant {
		t.Fatalf("%s: output %q, want %q", base.label, base.out, parallelWant)
	}
	if base.gcs == 0 {
		t.Fatal("no collections; the configurations were never distinguished")
	}
	for _, r := range results[1:] {
		if r.out != base.out {
			t.Errorf("%s: output %q differs from %s %q", r.label, r.out, base.label, base.out)
		}
		if r.gcs != base.gcs {
			t.Errorf("%s: %d collections, %s had %d", r.label, r.gcs, base.label, base.gcs)
		}
		if !reflect.DeepEqual(r.log, base.log) {
			for i := range base.log {
				if i >= len(r.log) || r.log[i] != base.log[i] {
					t.Errorf("%s: collection %d frames\n  %q\nwant (%s)\n  %q",
						r.label, i, at(r.log, i), base.label, at(base.log, i))
					break
				}
			}
		}
		if !reflect.DeepEqual(r.heap, base.heap) {
			diff := 0
			for i := range base.heap {
				if r.heap[i] != base.heap[i] {
					diff++
				}
			}
			t.Errorf("%s: final heap differs from %s in %d words", r.label, base.label, diff)
		}
	}
	t.Logf("%s: %d collections, %d frames walked; all 4 configurations identical",
		base.label, base.gcs, base.frames)
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<missing>"
}
