package gc_test

// End-to-end tests for mostly-concurrent marking: a four-thread soak
// with per-cycle heap and gc-table verification, a hostile mutator that
// keeps re-hiding the only reference to an object mid-mark, a
// black-allocation regression for allocation during marking, fused
// superinstruction/switch parity under the SATB barrier, and the
// pause-SLO regression comparing the concurrent final pause against
// the equivalent stop-the-world pause.

import (
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vmachine"
)

// concChecker embeds the real collector so the machine still sees a
// vmachine.ConcurrentCollector (StartCycle and MarkStep promote), but
// re-validates the whole world after every completed cycle: explicit
// heap invariants plus the static gc-map verifier in strict mode.
type concChecker struct {
	*gc.Collector
	t      *testing.T
	c      *driver.Compiled
	cycles int
}

func (s *concChecker) check() {
	s.cycles++
	if err := s.Collector.Heap.Check(); err != nil {
		s.t.Fatalf("cycle %d: %v", s.cycles, err)
	}
	if err := s.c.Verify(); err != nil {
		s.t.Fatalf("cycle %d: %v", s.cycles, err)
	}
}

func (s *concChecker) FinishCycle(m *vmachine.Machine) error {
	if err := s.Collector.FinishCycle(m); err != nil {
		return err
	}
	s.check()
	return nil
}

func (s *concChecker) Collect(m *vmachine.Machine) error {
	if err := s.Collector.Collect(m); err != nil {
		return err
	}
	s.check()
	return nil
}

func concCompile(t *testing.T, src string, mutate func(*driver.Options)) *driver.Compiled {
	t.Helper()
	opts := driver.NewOptions()
	opts.Multithreaded = true
	opts.ConcurrentMark = true
	if mutate != nil {
		mutate(&opts)
	}
	c, err := driver.Compile("conc.m3", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func spawnWorkers(t *testing.T, c *driver.Compiled, m *vmachine.Machine, names ...string) {
	t.Helper()
	for _, name := range names {
		p := c.Prog.FindProc(name)
		if p < 0 {
			t.Fatalf("proc %s not found", name)
		}
		if _, err := m.Spawn(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentSoak is TestParallelSoak's concurrent twin: four
// mutator threads on a pressured heap, driven through well over a
// hundred mostly-concurrent cycles, with Debug heap checking inside
// every final pause plus an explicit heap.Check and a strict gcverify
// pass after each cycle. Skipped under -short; pairs with -race in
// make race / make concurrent-smoke.
func TestConcurrentSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	c := concCompile(t, soakSrc, func(o *driver.Options) { o.TraceWorkers = 8 })
	cfg := vmachine.Config{HeapWords: 1024, StackWords: 4096, MaxThreads: 8, Quantum: 53}
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	spawnWorkers(t, c, m, "W1", "W2", "W3")
	chk := &concChecker{Collector: col, t: t, c: c}
	m.Collector = chk
	if err := m.Run(1_000_000_000); err != nil {
		t.Fatalf("%v (out=%q)", err, sb.String())
	}
	if sb.String() != parallelWant {
		t.Errorf("output %q, want %q", sb.String(), parallelWant)
	}
	if chk.cycles < 100 {
		t.Errorf("only %d cycles; the soak needs at least 100", chk.cycles)
	}
	if col.Cycles < 100 {
		t.Errorf("collector reports %d concurrent cycles, want >= 100", col.Cycles)
	}
	t.Logf("%d concurrent cycles soaked (satb logged=%d, copied %d objects)",
		col.Cycles, col.SATBLogged, col.ObjectsCopied)
}

// hostileSrc keeps exactly one reference to a victim Box alive and
// shuffles it between two heap slots through a register, thousands of
// times, while three workers churn enough garbage to keep collection
// cycles continuously in flight. The move is the classic concurrent-
// marking killer: load the only reference out of a not-yet-scanned
// slot, store it into an already-scanned (black) object, nil the
// source. Without the snapshot barrier on the nil-ing store the victim
// is white when marking finishes and the final copy drops it; the
// barrier logs the overwritten reference and it survives every cycle.
const hostileSrc = `
MODULE HW;
TYPE Box = REF RECORD v: INTEGER; END;
TYPE Slot = REF RECORD ref: Box; END;
VAR a, b: Slot; done1, done2, done3, t: INTEGER;

PROCEDURE Churn(n: INTEGER): INTEGER =
  VAR junk: Box; i: INTEGER;
  BEGIN
    FOR i := 1 TO n DO junk := NEW(Box); junk.v := i; END;
    RETURN junk.v;
  END Churn;

PROCEDURE Loop(n: INTEGER): INTEGER =
  VAR r, s: INTEGER;
  BEGIN
    FOR r := 1 TO 60 DO s := Churn(n); END;
    RETURN s;
  END Loop;

PROCEDURE W1() = BEGIN t := Loop(150); done1 := 1; END W1;
PROCEDURE W2() = BEGIN t := Loop(120); done2 := 1; END W2;
PROCEDURE W3() = BEGIN t := Loop(90); done3 := 1; END W3;

PROCEDURE Shuffle(rounds: INTEGER) =
  VAR x: Box; i: INTEGER;
  BEGIN
    FOR i := 1 TO rounds DO
      x := a.ref;      (* the only reference, into a register *)
      a.ref := NIL;    (* snapshot barrier must log the old value *)
      b.ref := x;      (* re-hidden in a possibly-black object *)
      x := NIL;
      x := b.ref;
      b.ref := NIL;
      a.ref := x;
      x := NIL;
    END;
  END Shuffle;

BEGIN
  a := NEW(Slot); b := NEW(Slot);
  a.ref := NEW(Box);
  a.ref.v := 12345;
  Shuffle(4000);
  WHILE done1 = 0 DO t := t + 1; END;
  WHILE done2 = 0 DO t := t + 1; END;
  WHILE done3 = 0 DO t := t + 1; END;
  PutInt(a.ref.v); PutLn();
END HW.
`

func TestConcurrentHostileWhiteStore(t *testing.T) {
	c := concCompile(t, hostileSrc, nil)
	// A tiny mark budget stretches each cycle across many scheduler
	// passes, so shuffles land mid-mark with certainty.
	cfg := vmachine.Config{HeapWords: 768, StackWords: 4096, MaxThreads: 8, Quantum: 41}
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	col.MarkBudget = 8
	spawnWorkers(t, c, m, "W1", "W2", "W3")
	chk := &concChecker{Collector: col, t: t, c: c}
	m.Collector = chk
	if err := m.Run(1_000_000_000); err != nil {
		t.Fatalf("%v (out=%q)", err, sb.String())
	}
	if sb.String() != "12345\n" {
		t.Fatalf("victim corrupted or lost: output %q, want %q", sb.String(), "12345\n")
	}
	if col.Cycles == 0 {
		t.Fatal("no concurrent cycles ran; the test exercised nothing")
	}
	if col.SATBLogged == 0 {
		t.Fatal("SATB barrier never logged an overwrite; the hostile store was not covered")
	}
	t.Logf("victim survived %d cycles (%d SATB logs)", col.Cycles, col.SATBLogged)
}

// blackAllocSrc holds a persistent ballast list live across the whole
// run while a burst allocator churns; every ballast node is reachable
// only through the list head, so a single wrongly-reclaimed (or
// wrongly-unmarked) mid-mark allocation corrupts the final checksum.
const blackAllocSrc = `
MODULE BA;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
VAR done1, done2, s1, s2, t: INTEGER;

PROCEDURE Build(n: INTEGER): List =
  VAR keep: List; junk: List; i: INTEGER;
  BEGIN
    keep := NIL;
    FOR i := 1 TO n DO
      junk := NEW(List);      (* garbage between survivors *)
      junk.head := i;
      junk := NEW(List);
      junk.head := i;
      junk.tail := keep;
      keep := junk;
    END;
    RETURN keep;
  END Build;

PROCEDURE Sum(l: List): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE l # NIL DO s := s + l.head; l := l.tail; END;
    RETURN s;
  END Sum;

PROCEDURE Loop(n: INTEGER): INTEGER =
  VAR r, s: INTEGER;
  BEGIN
    FOR r := 1 TO 40 DO s := Sum(Build(n)); END;
    RETURN s;
  END Loop;

PROCEDURE W1() = BEGIN s1 := Loop(110); done1 := 1; END W1;
PROCEDURE W2() = BEGIN s2 := Loop(90); done2 := 1; END W2;

BEGIN
  t := Loop(130);
  WHILE done1 = 0 DO t := t + 1; END;
  WHILE done2 = 0 DO t := t + 1; END;
  PutInt(s1 + s2); PutLn();
END BA.
`

// TestConcurrentBlackAllocation is the regression for the per-thread
// allocation gap left by the dispatch fast path: objects allocated
// while a cycle is marking must be claimed black (never scanned, never
// white), or the final copy reclaims live data. The tiny mark budget
// keeps a cycle in flight almost permanently, so nearly all allocation
// happens mid-mark; the checksum plus per-cycle heap checks catch any
// reclaimed survivor.
func TestConcurrentBlackAllocation(t *testing.T) {
	c := concCompile(t, blackAllocSrc, nil)
	cfg := vmachine.Config{HeapWords: 4096, StackWords: 4096, MaxThreads: 8, Quantum: 47}
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	col.MarkBudget = 16
	spawnWorkers(t, c, m, "W1", "W2")
	chk := &concChecker{Collector: col, t: t, c: c}
	m.Collector = chk
	if err := m.Run(1_000_000_000); err != nil {
		t.Fatalf("%v (out=%q)", err, sb.String())
	}
	// Sum(1..110)=6105, Sum(1..90)=4095.
	if want := "10200\n"; sb.String() != want {
		t.Fatalf("live data reclaimed mid-mark: output %q, want %q", sb.String(), want)
	}
	if col.Cycles == 0 {
		t.Fatal("no concurrent cycles ran; the test exercised nothing")
	}
	t.Logf("%d cycles with mid-mark allocation (copied %d objects)", col.Cycles, col.ObjectsCopied)
}

// TestConcurrentDispatchParity runs the hostile shuffle under the
// threaded dispatcher (where the store-heavy shuffle compiles into
// fused st+st / ld+st superinstructions) and the switch interpreter,
// and requires identical outputs, collection counts, and SATB log
// counts: the barrier must fire identically from monomorphic fused
// bodies and the generic switch.
func TestConcurrentDispatchParity(t *testing.T) {
	type result struct {
		out     string
		gcCount int64
		logged  int64
		cycles  int64
	}
	run := func(threaded bool) result {
		t.Helper()
		c := concCompile(t, hostileSrc, func(o *driver.Options) { o.ThreadedDispatch = threaded })
		cfg := vmachine.Config{HeapWords: 768, StackWords: 4096, MaxThreads: 8, Quantum: 41}
		var sb strings.Builder
		cfg.Out = &sb
		m, col, err := c.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		col.Debug = true
		col.MarkBudget = 8
		spawnWorkers(t, c, m, "W1", "W2", "W3")
		if err := m.Run(1_000_000_000); err != nil {
			t.Fatalf("threaded=%v: %v (out=%q)", threaded, err, sb.String())
		}
		return result{sb.String(), m.GCCount, col.SATBLogged, col.Cycles}
	}
	threaded, switched := run(true), run(false)
	if threaded != switched {
		t.Fatalf("dispatch modes diverged under the SATB barrier:\n threaded: %+v\n switch:   %+v",
			threaded, switched)
	}
	if threaded.logged == 0 {
		t.Fatal("SATB barrier never fired; fused stores were not exercised")
	}
}

// sloSrc is churn over a live ballast: main pins an 800-node list for
// the whole run (every cycle must mark and copy it) while three
// workers churn garbage to keep collections coming. The checksum pins
// ballast integrity: Sum(1..800) = 320400 plus the workers' survivors.
const sloSrc = `
MODULE SLO;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
VAR ballast: List; done1, done2, done3, s1, s2, s3, t: INTEGER;

PROCEDURE Build(n: INTEGER): List =
  VAR keep, node: List; i: INTEGER;
  BEGIN
    keep := NIL;
    FOR i := 1 TO n DO
      node := NEW(List);
      node.head := i;
      node.tail := keep;
      keep := node;
    END;
    RETURN keep;
  END Build;

PROCEDURE Sum(l: List): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE l # NIL DO s := s + l.head; l := l.tail; END;
    RETURN s;
  END Sum;

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
    RETURN Sum(keep);
  END Churn;

PROCEDURE Loop(n: INTEGER): INTEGER =
  VAR r, s: INTEGER;
  BEGIN
    FOR r := 1 TO 120 DO s := Churn(n); END;
    RETURN s;
  END Loop;

PROCEDURE W1() = BEGIN s1 := Loop(200); done1 := 1; END W1;
PROCEDURE W2() = BEGIN s2 := Loop(170); done2 := 1; END W2;
PROCEDURE W3() = BEGIN s3 := Loop(140); done3 := 1; END W3;

BEGIN
  ballast := Build(4000);
  WHILE done1 = 0 DO t := t + 1; END;
  WHILE done2 = 0 DO t := t + 1; END;
  WHILE done3 = 0 DO t := t + 1; END;
  PutInt(Sum(ballast) + s1 + s2 + s3); PutLn();
END SLO.
`

// Sum(ballast)=8002000, W1: 5*(1..40)=4100, W2: 5*(1..34)=2975, W3: 5*(1..28)=2030.
const sloWant = "8011105\n"

// pauseSampler measures every stop-the-world window exactly: Collect
// for STW runs, FinishCycle (the final pause) for concurrent runs.
type pauseSampler struct {
	*gc.Collector
	collect []time.Duration
	finish  []time.Duration
}

func (s *pauseSampler) Collect(m *vmachine.Machine) error {
	t0 := time.Now()
	err := s.Collector.Collect(m)
	s.collect = append(s.collect, time.Since(t0))
	return err
}

func (s *pauseSampler) FinishCycle(m *vmachine.Machine) error {
	t0 := time.Now()
	err := s.Collector.FinishCycle(m)
	s.finish = append(s.finish, time.Since(t0))
	return err
}

func exactP99(samples []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(0.99 * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func median(samples []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// TestConcurrentPauseSLO is the pause-SLO regression: on the ballast +
// churn workload the p99 concurrent final pause must be strictly below
// the p99 stop-the-world pause of the identical workload. Pauses are
// measured exactly (wall clock around each stop-the-world window);
// each mode runs several fresh machines and the asserted statistic is
// the median across rounds of the per-round p99, so a single host
// scheduling blip cannot flip the comparison in either direction, and
// the two modes alternate round by round, so a host that slows down for
// a while slows both.
// Trace workers are serial so the stop-the-world mark is honestly on
// its pause path. The telemetry histograms (gc.final_pause_ns) are
// cross-checked for presence, since gcserve's /statz SLO rows read
// those.
func TestConcurrentPauseSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped with -short")
	}
	const rounds = 7
	compile := func(concurrent bool) *driver.Compiled {
		t.Helper()
		opts := driver.NewOptions()
		opts.Multithreaded = true
		opts.ConcurrentMark = concurrent
		opts.TraceWorkers = 1
		c, err := driver.Compile("slo.m3", sloSrc, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// round runs one fresh machine and returns its p99 pause.
	round := func(c *driver.Compiled, concurrent bool) (time.Duration, int) {
		t.Helper()
		tel := telemetry.New(telemetry.Config{})
		cfg := vmachine.Config{HeapWords: 65536, StackWords: 4096, MaxThreads: 8, Quantum: 53, Tel: tel}
		var sb strings.Builder
		cfg.Out = &sb
		m, col, err := c.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spawnWorkers(t, c, m, "W1", "W2", "W3")
		smp := &pauseSampler{Collector: col}
		m.Collector = smp
		if err := m.Run(2_000_000_000); err != nil {
			t.Fatalf("concurrent=%v: %v (out=%q)", concurrent, err, sb.String())
		}
		if sb.String() != sloWant {
			t.Fatalf("concurrent=%v: output %q, want %q", concurrent, sb.String(), sloWant)
		}
		pauses := smp.collect
		if concurrent {
			if len(smp.finish) == 0 {
				t.Fatal("no concurrent cycles ran")
			}
			pauses = smp.finish
		} else if len(pauses) == 0 {
			t.Fatal("workload did not collect")
		}
		if snap := tel.Snapshot(); snap.Histograms[telemetry.HistGCFinalPauseNs].Count == 0 {
			t.Errorf("concurrent=%v: gc.final_pause_ns histogram empty; /statz SLO rows would be blank", concurrent)
		}
		return exactP99(pauses), len(pauses)
	}
	stwProg, concProg := compile(false), compile(true)
	var stwP99s, concP99s []time.Duration
	stwN, concN := 0, 0
	for i := 0; i < rounds; i++ {
		p, n := round(stwProg, false)
		stwP99s, stwN = append(stwP99s, p), stwN+n
		p, n = round(concProg, true)
		concP99s, concN = append(concP99s, p), concN+n
	}
	stwP99, concP99 := median(stwP99s), median(concP99s)
	t.Logf("median per-round pause p99: stw %v (%d pauses), concurrent final %v (%d pauses)",
		stwP99, stwN, concP99, concN)
	if concP99 >= stwP99 {
		t.Errorf("concurrent final-pause p99 %v is not below the stop-the-world p99 %v",
			concP99, stwP99)
	}
}

// TestConcurrentTreeBenchmarksMatchSTW pins the gray-stack aliasing
// regression: MarkStep carves each batch off the tail of the gray
// stack while scanBatch appends discoveries back onto the same stack,
// so a remainder that shared backing capacity with the batch let those
// appends overwrite unread batch entries mid-scan and silently drop
// their subtrees. List-shaped graphs — one discovery per scanned
// object, the difftest generator's habitual output — can never outrun
// the batch read cursor, so the hole only shows on graphs with
// fan-out: the paper's destroy (complete trees) and typereg (the
// structural-equivalence registry) lost whole subtrees within a few
// cycles. Both must now match the stop-the-world run exactly, output
// and collection schedule alike.
func TestConcurrentTreeBenchmarksMatchSTW(t *testing.T) {
	cases := []struct {
		name string
		heap int64
	}{
		{"destroy", 16384},
		{"typereg", 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := bench.Sources()[tc.name]
			run := func(concurrent bool) (string, int64) {
				t.Helper()
				opts := driver.NewOptions()
				opts.ConcurrentMark = concurrent
				c, err := driver.Compile(tc.name+".m3", src, opts)
				if err != nil {
					t.Fatal(err)
				}
				cfg := vmachine.DefaultConfig()
				cfg.HeapWords = tc.heap
				var sb strings.Builder
				cfg.Out = &sb
				m, col, err := c.NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				col.Debug = true
				if err := m.Run(1_000_000_000); err != nil {
					t.Fatalf("concurrent=%v: %v (out=%q)", concurrent, err, sb.String())
				}
				return sb.String(), col.Collections
			}
			outSTW, gcSTW := run(false)
			if gcSTW == 0 {
				t.Fatal("no collections ran; the benchmark no longer pressures this heap")
			}
			outConc, gcConc := run(true)
			if outConc != outSTW {
				t.Errorf("concurrent output %q, stop-the-world %q", outConc, outSTW)
			}
			if gcConc != gcSTW {
				t.Errorf("collection schedule diverged: concurrent %d, stop-the-world %d", gcConc, gcSTW)
			}
		})
	}
}

// collectFunc adapts a function to vmachine.Collector.
type collectFunc func(m *vmachine.Machine) error

func (f collectFunc) Collect(m *vmachine.Machine) error { return f(m) }

// TestConcurrentFinalPauseCatchesUnmarkedRoot simulates a missed
// barrier: after the initial pause a root slot is pointed at an object
// the cycle never claimed (allocated with the black-allocation hook
// bypassed). FinishCycle must refuse with the clean SATB-invariant
// error before it copies anything; gengc runs the same check through
// the same Cycle (TestConcurrentMajorFinalPauseCatchesUnmarkedRoot).
func TestConcurrentFinalPauseCatchesUnmarkedRoot(t *testing.T) {
	opts := driver.NewOptions()
	opts.ConcurrentMark = true
	c, err := driver.Compile("deepwalk.m3", bench.DeepWalkSource(8, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 1 << 14
	cfg.Out = io.Discard
	m, col, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	list := -1
	for _, d := range col.Heap.Descs.Descs {
		if d.Kind == types.DescRecord {
			list = d.ID
			break
		}
	}
	var finishErr error
	var words, objects, collections int64
	m.Collector = collectFunc(func(m *vmachine.Machine) error {
		if err := col.StartCycle(m); err != nil {
			return err
		}
		words, objects, collections = col.WordsCopied, col.ObjectsCopied, col.Collections
		var w gc.Walk
		if err := w.Machine(m, col.Dec, 1); err != nil {
			t.Fatal(err)
		}
		hidden := false
		for _, slot := range w.Roots(m, nil) {
			if *slot != 0 {
				addr, ok := m.Alloc.TryAlloc(list, 0)
				if !ok {
					t.Fatal("allocation for the hidden object failed")
				}
				*slot, hidden = addr, true
				break
			}
		}
		if !hidden {
			t.Fatal("no live root to hide an object in")
		}
		finishErr = col.FinishCycle(m)
		return finishErr
	})
	err = m.Run(0)
	if finishErr == nil || err == nil {
		t.Fatalf("FinishCycle accepted an unmarked root (run error %v)", err)
	}
	if !strings.Contains(finishErr.Error(), "unmarked at final pause") {
		t.Errorf("FinishCycle error %q, want the SATB-invariant error", finishErr)
	}
	if col.WordsCopied != words || col.ObjectsCopied != objects || col.Collections != collections {
		t.Errorf("the refused cycle copied: words %d→%d, objects %d→%d, collections %d→%d",
			words, col.WordsCopied, objects, col.ObjectsCopied, collections, col.Collections)
	}
}
