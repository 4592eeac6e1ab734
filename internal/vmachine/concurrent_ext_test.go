package vmachine_test

// External-package test for the concurrent-marking scheduler protocol:
// a four-thread churn program compiled through the real driver runs
// under both dispatchers with mostly-concurrent marking on, asserting
// the two engines agree on every observable — output, step count,
// collection count, final heap image. This drives the run loop's
// rendezvous/park/burst machinery (requestGC, allParked, MarkStep at
// pass boundaries, unparkBlocked, the telemetry rendezvous event) in
// vmachine's own test binary, which the in-package tests cannot do
// because the driver depends on vmachine.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

const concSchedSrc = `
MODULE CS;
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

PROCEDURE Loop(n: INTEGER): INTEGER =
  VAR r, s: INTEGER;
  BEGIN
    FOR r := 1 TO 12 DO s := Churn(n); END;
    RETURN s;
  END Loop;

PROCEDURE W1() = BEGIN s1 := Loop(180); done1 := 1; END W1;
PROCEDURE W2() = BEGIN s2 := Loop(140); done2 := 1; END W2;
PROCEDURE W3() = BEGIN s3 := Loop(100); done3 := 1; END W3;

BEGIN
  s0 := Loop(220);
  WHILE done1 = 0 DO t := t + 1; END;
  WHILE done2 = 0 DO t := t + 1; END;
  WHILE done3 = 0 DO t := t + 1; END;
  PutInt(s0 + s1 + s2 + s3); PutLn();
END CS.
`

// Each thread keeps the multiples of 5 up to n: 4950+3330+2030+1050.
const concSchedWant = "11360\n"

func runConcSched(t *testing.T, c *driver.Compiled, threaded bool) sweepRun {
	t.Helper()
	cc := &driver.Compiled{Opts: c.Opts, IR: c.IR, Prog: c.Prog, Tables: c.Tables, Encoded: c.Encoded}
	cc.Opts.ThreadedDispatch = threaded
	cfg := vmachine.Config{HeapWords: 1024, StackWords: 4096, MaxThreads: 8, Quantum: 53}
	// A live tracer makes the scheduler emit the rendezvous and
	// gc-wait events on every cycle, so that path is exercised too.
	cfg.Tel = telemetry.New(telemetry.Config{})
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := cc.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	if m.ThreadedDispatch() != threaded {
		t.Fatalf("dispatcher mode %v, want %v", m.ThreadedDispatch(), threaded)
	}
	for _, name := range []string{"W1", "W2", "W3"} {
		p := c.Prog.FindProc(name)
		if p < 0 {
			t.Fatalf("proc %s not found", name)
		}
		if _, err := m.Spawn(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(1_000_000_000); err != nil {
		t.Fatalf("threaded=%v: %v (out=%q)", threaded, err, sb.String())
	}
	if col.Cycles == 0 {
		t.Fatalf("threaded=%v: no concurrent cycles on a 1024-word heap", threaded)
	}
	return sweepRun{out: sb.String(), steps: m.Steps, gcs: m.GCCount, heapHash: hashHeap(m), opCounts: m.OpCounts()}
}

func TestConcurrentSchedulerDispatchAgreement(t *testing.T) {
	opts := driver.NewOptions()
	opts.Multithreaded = true
	opts.ConcurrentMark = true
	c, err := driver.Compile("cs.m3", concSchedSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	sw := runConcSched(t, c, false)
	th := runConcSched(t, c, true)
	if sw.out != concSchedWant {
		t.Errorf("switch output %q, want %q", sw.out, concSchedWant)
	}
	if !reflect.DeepEqual(sw, th) {
		t.Errorf("dispatchers diverged under concurrent marking:\n switch  %+v\n threaded %+v", sw, th)
	}
}
