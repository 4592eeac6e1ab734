package gc_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gc"
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

// frameRecorder logs a signature of every collection's frame list (as
// walked through the machine's own configured decoder) so whole runs
// can be compared configuration-against-configuration.
type frameRecorder struct {
	real *gc.Collector
	walk gc.Walk
	log  []string
}

func (r *frameRecorder) Collect(m *vmachine.Machine) error {
	if err := r.walk.Machine(m, r.real.Dec); err != nil {
		return err
	}
	r.log = append(r.log, r.walk.String())
	return r.real.Collect(m)
}

// TestParallelWalkEndToEndDeterminism runs the same four-thread program
// under cache on/off × trace workers 1/8 and requires every observable
// to be bitwise identical across all four configurations: program
// output, collection count, the per-collection frame signatures, and
// the entire final heap image. This is the acceptance bar for the
// decode cache and the trace-copy pool being behaviorally invisible
// when several stacks are walked at every rendezvous.
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
		for _, tw := range []int{1, 8} {
			opts := driver.NewOptions()
			opts.Multithreaded = true
			opts.DecodeCache = cache
			opts.TraceWorkers = tw
			c := compileParallel(t, opts)
			m, col, sb := startParallel(t, c)
			rec := &frameRecorder{real: col}
			m.Collector = rec
			if err := m.Run(100_000_000); err != nil {
				t.Fatalf("cache=%v tw=%d: %v (out=%q)", cache, tw, err, sb.String())
			}
			heap := make([]int64, m.HeapHi-m.HeapLo)
			copy(heap, m.Mem[m.HeapLo:m.HeapHi])
			frames := 0
			for _, sig := range rec.log {
				frames += strings.Count(sig, ";")
			}
			results = append(results, result{
				label: fmt.Sprintf("cache=%v tw=%d", cache, tw),
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
