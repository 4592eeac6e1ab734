package gengc_test

import (
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/vmachine"
)

// Tree-shaped (fan-out 2) live data under concurrent generational
// majors: mirrors TestConcurrentMajorSplitMatchesSTW but keeps a
// binary tree live across rounds, so marking with fan-out spans
// several bursts, and pins it against stop-the-world (a dropped
// subtree shows as object-reachable-but-unmarked under col.Debug).
// Fan-out is the shape that once exposed a gray-stack aliasing bug,
// a burst's batch overwritten by its own discoveries; marking now pops
// one object at a time, so that bug can no longer be written.
func TestConcurrentMajorTreeMatchesSTW(t *testing.T) {
	src := `
MODULE T;
TYPE N = REF RECORD v: INTEGER; l, r: N; END;
VAR keep: N; i, s: INTEGER;

PROCEDURE Build(d: INTEGER): N =
  VAR n: N;
  BEGIN
    n := NEW(N);
    n.v := d;
    IF d > 0 THEN
      n.l := Build(d - 1);
      n.r := Build(d - 1);
    END;
    RETURN n;
  END Build;

PROCEDURE Sum(n: N): INTEGER =
  BEGIN
    IF n = NIL THEN RETURN 0; END;
    RETURN n.v + Sum(n.l) + Sum(n.r);
  END Sum;

BEGIN
  s := 0;
  FOR i := 1 TO 8 DO
    keep := Build(6);
    s := s + Sum(keep);
  END;
  PutInt(s); PutLn();
END T.
`
	run := func(concurrent bool) (string, int64, int64) {
		t.Helper()
		opts := driver.NewOptions()
		opts.Generational = true
		opts.ConcurrentMark = concurrent
		c, err := driver.Compile("t.m3", src, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = 3072
		var sb strings.Builder
		cfg.Out = &sb
		m, col, err := c.NewGenerationalMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		col.Debug = true
		if err := m.Run(100_000_000); err != nil {
			t.Fatalf("concurrent=%v: %v (out %q)", concurrent, err, sb.String())
		}
		return sb.String(), col.Minor, col.Major
	}
	outSTW, _, majorSTW := run(false)
	if majorSTW == 0 {
		t.Skip("workload never escalated to a major")
	}
	outConc, _, _ := run(true)
	if outConc != outSTW {
		t.Errorf("concurrent output %q, stop-the-world %q", outConc, outSTW)
	}
}

// A live set too large for the old semispace must surface as a clean
// error from Run, not a slice-bounds panic inside the copy phase —
// and the same error in both collection modes. (Before CopySpace
// gained ToLimit, a major whose nursery+old survivors outgrew the old
// semispace panicked in copyObjectSized; the aliasing bug above
// masked it under concurrent marking by undermarking the tree.)
func TestMajorOverflowIsCleanError(t *testing.T) {
	src := `
MODULE T;
TYPE N = REF RECORD v: INTEGER; l, r: N; END;
VAR keep: N; i, s: INTEGER;

PROCEDURE Build(d: INTEGER): N =
  VAR n: N;
  BEGIN
    n := NEW(N); n.v := d;
    IF d > 0 THEN n.l := Build(d - 1); n.r := Build(d - 1); END;
    RETURN n;
  END Build;

PROCEDURE Sum(n: N): INTEGER =
  BEGIN
    IF n = NIL THEN RETURN 0; END;
    RETURN n.v + Sum(n.l) + Sum(n.r);
  END Sum;

BEGIN
  s := 0;
  FOR i := 1 TO 4 DO
    keep := Build(7);
    s := s + Sum(keep);
  END;
  PutInt(s); PutLn();
END T.
`
	var errs []string
	for _, concurrent := range []bool{false, true} {
		opts := driver.NewOptions()
		opts.Generational = true
		opts.ConcurrentMark = concurrent
		c, err := driver.Compile("t.m3", src, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = 2048
		var sb strings.Builder
		cfg.Out = &sb
		m, _, err := c.NewGenerationalMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runErr := m.Run(10_000_000)
		if runErr == nil {
			t.Fatalf("concurrent=%v: expected an overflow error, got clean run (out %q)", concurrent, sb.String())
		}
		if !strings.Contains(runErr.Error(), "overflow the") {
			t.Fatalf("concurrent=%v: error %v, want the copy-target overflow", concurrent, runErr)
		}
		errs = append(errs, runErr.Error())
	}
	if errs[0] != errs[1] {
		t.Errorf("modes disagree on the failure: stw %q, concurrent %q", errs[0], errs[1])
	}
}
