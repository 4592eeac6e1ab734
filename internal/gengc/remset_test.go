package gengc_test

import (
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gengc"
	"repro/internal/vmachine"
)

// runGenMachine is runGen's sibling for tests that need the machine
// and collector themselves, not just the summary statistics.
func runGenMachine(t *testing.T, src string, heapWords int64, traceWorkers int) (string, *vmachine.Machine, *gengc.Collector) {
	t.Helper()
	opts := driver.NewOptions()
	opts.Generational = true
	c, err := driver.Compile("t.m3", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = heapWords
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewGenerationalMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	col.TraceWorkers = traceWorkers
	if err := m.Run(100_000_000); err != nil {
		t.Fatalf("run: %v (out %q)", err, sb.String())
	}
	return sb.String(), m, col
}

// TestEmptyNurseryMinor: back-to-back forced collections give the
// second minor an empty nursery — nothing to trace, nothing to
// promote, and the cycle must still complete cleanly.
func TestEmptyNurseryMinor(t *testing.T) {
	out, _, col := runGenMachine(t, `
MODULE T;
VAR x: INTEGER;
BEGIN
  x := 7;
  GcCollect();
  GcCollect();
  PutInt(x); PutLn();
END T.
`, 4096, 1)
	if out != "7\n" {
		t.Errorf("output %q", out)
	}
	if col.Minor < 2 {
		t.Errorf("minor=%d, want at least the two forced cycles", col.Minor)
	}
	if col.Major != 0 {
		t.Errorf("major=%d for a program that allocates nothing", col.Major)
	}
	if col.PromotedWords != 0 {
		t.Errorf("promoted %d words from an empty nursery", col.PromotedWords)
	}
	if col.RemsetSize() != 0 {
		t.Errorf("remset holds %d slots after collection", col.RemsetSize())
	}
}

// TestPromotionReentersRemset: a node promoted by one minor collection
// immediately receives a young pointer afterwards, so its slot must
// re-enter the (just-cleared) remembered set. The young node hangs off
// an old object only — if the re-entry were missed, the final minor
// would drop it and the Debug checks (or the sum) would catch it.
func TestPromotionReentersRemset(t *testing.T) {
	out, _, col := runGenMachine(t, `
MODULE T;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR anchor: L;
BEGIN
  anchor := NEW(L);
  anchor.v := 1;
  GcCollect();                 (* promotes anchor into old space *)
  anchor.next := NEW(L);       (* old slot <- young pointer: remset entry *)
  anchor.next.v := 41;
  GcCollect();                 (* promotes anchor.next via the remset *)
  anchor.next.next := NEW(L);  (* the fresh promotee re-enters at once *)
  anchor.next.next.v := 58;
  GcCollect();                 (* and must keep its young child alive *)
  PutInt(anchor.v + anchor.next.v + anchor.next.next.v); PutLn();
END T.
`, 4096, 1)
	if out != "100\n" {
		t.Errorf("output %q", out)
	}
	if col.BarrierHits < 2 {
		t.Errorf("barrier hits %d, want the two old<-young stores recorded", col.BarrierHits)
	}
	if col.RemsetPeak < 1 {
		t.Errorf("remset peak %d, want at least one remembered slot at collection time", col.RemsetPeak)
	}
	if col.RemsetSize() != 0 {
		t.Errorf("remset holds %d slots after the final collection", col.RemsetSize())
	}
	t.Logf("minor=%d checks=%d hits=%d peak=%d",
		col.Minor, col.BarrierChecks, col.BarrierHits, col.RemsetPeak)
}

// TestRemsetIterationDeterminism: with several remembered slots live at
// each minor collection, iteration order decides which slot promotes a
// young object first — and therefore the promoted heap layout. Two
// identical runs (with an 8-wide trace-copy pool, so the race shard
// exercises this under -race) must produce identical output, identical
// statistics, and bit-identical final heaps.
func TestRemsetIterationDeterminism(t *testing.T) {
	const src = `
MODULE T;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR a, b, c, junk: L; i, s: INTEGER;
BEGIN
  a := NEW(L); b := NEW(L); c := NEW(L);
  GcCollect();
  s := 0;
  FOR i := 1 TO 400 DO
    a.next := NEW(L); a.next.v := i;
    b.next := NEW(L); b.next.v := i * 2;
    c.next := NEW(L); c.next.v := i * 3;
    junk := NEW(L); junk.v := i;
    s := s + a.next.v + b.next.v + c.next.v;
    junk := NIL;
  END;
  PutInt(s); PutLn();
END T.
`
	out1, m1, col1 := runGenMachine(t, src, 2048, 8)
	out2, m2, col2 := runGenMachine(t, src, 2048, 8)

	if out1 != "481200\n" {
		t.Errorf("output %q", out1)
	}
	if out1 != out2 {
		t.Fatalf("outputs differ: %q vs %q", out1, out2)
	}
	if col1.Minor != col2.Minor || col1.Major != col2.Major ||
		col1.PromotedWords != col2.PromotedWords || col1.RemsetPeak != col2.RemsetPeak {
		t.Fatalf("statistics differ: minor %d/%d major %d/%d promoted %d/%d peak %d/%d",
			col1.Minor, col2.Minor, col1.Major, col2.Major,
			col1.PromotedWords, col2.PromotedWords, col1.RemsetPeak, col2.RemsetPeak)
	}
	if col1.RemsetPeak < 3 {
		t.Errorf("remset peak %d, want the three anchors remembered together", col1.RemsetPeak)
	}
	h1 := m1.Mem[col1.Heap.Lo:col1.Heap.Hi]
	h2 := m2.Mem[col2.Heap.Lo:col2.Heap.Hi]
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("final heaps differ at word %d: %d vs %d", i, h1[i], h2[i])
		}
	}
}
