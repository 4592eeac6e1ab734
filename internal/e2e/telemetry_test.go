package e2e

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/gctab"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// telemetrySrc churns enough garbage in a tiny heap that every run
// collects several times.
const telemetrySrc = `
MODULE Tel;
TYPE List = REF RECORD head: INTEGER; tail: List; END;

PROCEDURE Churn(n: INTEGER): INTEGER =
  VAR keep, junk: List; i, s: INTEGER;
  BEGIN
    keep := NIL;
    FOR i := 1 TO n DO
      junk := NEW(List);
      junk.head := i;
      IF i MOD 4 = 0 THEN
        junk.tail := keep;
        keep := junk;
      END;
    END;
    s := 0;
    WHILE keep # NIL DO s := s + keep.head; keep := keep.tail; END;
    RETURN s;
  END Churn;

BEGIN
  PutInt(Churn(400)); PutLn();
END Tel.
`

// TestTelemetryEndToEnd runs a collecting program with a tracer
// attached and checks that the probes across the VM, collector, heap,
// and table decoder all reported, and that the Chrome export contains
// the complete gc cycles.
func TestTelemetryEndToEnd(t *testing.T) {
	c, err := driver.Compile("tel.m3", telemetrySrc, driver.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Config{})
	cfg := vmachine.Config{HeapWords: 1024, StackWords: 4096, MaxThreads: 2, Quantum: 100}
	cfg.Out = io.Discard
	cfg.Tel = tel
	cfg.PCSampleEvery = 16
	m, _, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}

	s := tel.Snapshot()
	if s.Counter(telemetry.CtrGCCollections) == 0 {
		t.Fatal("no collections recorded; shrink the heap")
	}
	if s.Counter(telemetry.CtrGCCollections) != m.GCCount {
		t.Errorf("telemetry counted %d collections, machine %d",
			s.Counter(telemetry.CtrGCCollections), m.GCCount)
	}
	if s.Counter(telemetry.CtrGCFramesWalked) == 0 {
		t.Error("no frames walked recorded")
	}
	if s.Counter(telemetry.CtrGCBytesCopied) == 0 {
		t.Error("no copied bytes recorded")
	}
	if s.Counter(telemetry.CtrVMSteps) != m.Steps {
		t.Errorf("vm.steps = %d, machine stepped %d", s.Counter(telemetry.CtrVMSteps), m.Steps)
	}
	scheme := c.Opts.Scheme.String()
	if s.Counter("gctab.decode.hits."+scheme) == 0 {
		t.Errorf("no decode hits recorded for scheme %s (counters: %v)", scheme, s.Counters)
	}
	if h := s.Histograms[telemetry.HistGCPauseNs]; h.Count != m.GCCount {
		t.Errorf("pause histogram has %d observations, want %d", h.Count, m.GCCount)
	}
	if len(tel.HotPCs(1)) == 0 {
		t.Error("no pc samples recorded")
	}

	var buf bytes.Buffer
	if err := tel.WriteChromeTraceFile(&buf, "tel"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	cycles := 0
	for _, ev := range doc.TraceEvents {
		if strings.HasPrefix(ev.Name, "gc.cycle") {
			cycles++
			if _, ok := ev.Args["bytes_copied"]; !ok {
				t.Errorf("cycle slice lacks bytes_copied: %v", ev.Args)
			}
		}
	}
	if int64(cycles) != m.GCCount {
		t.Errorf("exported %d cycle slices, want %d", cycles, m.GCCount)
	}
}

// TestTelemetryRendezvous checks the multi-threaded probes: rendezvous
// latency and per-thread gc-point waits.
func TestTelemetryRendezvous(t *testing.T) {
	c, err := driver.Compile("mt2.m3", telemetrySrc, driver.Options{
		Optimize: true, GCSupport: true, Multithreaded: true,
		Scheme: driver.NewOptions().Scheme,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Config{})
	cfg := vmachine.Config{HeapWords: 1024, StackWords: 4096, MaxThreads: 4, Quantum: 53}
	cfg.Out = io.Discard
	cfg.Tel = tel
	m, _, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A second thread running main's Churn keeps both threads
	// allocating, so collections need a full rendezvous.
	churn := c.Prog.FindProc("Churn")
	if churn < 0 {
		t.Fatal("Churn proc not found")
	}
	if _, err := m.Spawn(churn, 300); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if m.GCCount == 0 {
		t.Fatal("expected rendezvous collections")
	}
	var rendezvous, waits int
	for _, ev := range tel.Events() {
		switch ev.Kind {
		case telemetry.EvRendezvous:
			rendezvous++
			if ev.Args[1] < 1 {
				t.Errorf("rendezvous with %d parked threads", ev.Args[1])
			}
		case telemetry.EvGCWait:
			waits++
		}
	}
	if rendezvous == 0 {
		t.Error("no rendezvous events recorded")
	}
	if waits == 0 {
		t.Error("no gc-point wait events recorded")
	}
	if h := tel.Snapshot().Histograms[telemetry.HistGCWaitNs]; int(h.Count) != waits {
		t.Errorf("wait histogram has %d observations, %d wait events", h.Count, waits)
	}
}

// TestDecodeCacheDeepStack runs the deep-recursion program with the
// decode cache off and then on, collecting at the bottom of a 100-frame
// stack every round. Both runs must print the closed-form total and
// collect identically, every collection must walk the deep stack, and
// the cache must both hit and cut the table bytes the walks read, as
// counted by the decoders' shared gctab.decode.bytes counter.
func TestDecodeCacheDeepStack(t *testing.T) {
	const depth, rounds = 100, 3
	c, err := driver.Compile("deepwalk.m3", bench.DeepWalkSource(depth, rounds), driver.Options{
		Optimize: true, GCSupport: true, Scheme: gctab.DeltaPP,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(cache bool) telemetry.Snapshot {
		t.Helper()
		c.Opts.DecodeCache = cache
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = 1 << 12
		cfg.StackWords = depth*32 + 4096
		var out strings.Builder
		cfg.Out = &out
		cfg.Tel = telemetry.New(telemetry.Config{})
		m, _, err := c.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			t.Fatalf("cache=%v: %v", cache, err)
		}
		if want := bench.DeepWalkWant(depth, rounds); out.String() != want {
			t.Errorf("cache=%v: output %q, want %q", cache, out.String(), want)
		}
		return cfg.Tel.Snapshot()
	}
	uncached, cached := run(false), run(true)
	s := c.Encoded.Scheme
	collections := cached.Counter(telemetry.CtrGCCollections)
	if got := uncached.Counter(telemetry.CtrGCCollections); got != collections {
		t.Errorf("collections: %d uncached, %d cached", got, collections)
	}
	if collections < rounds {
		t.Errorf("collections = %d, want at least one per round", collections)
	}
	if frames := cached.Counter(telemetry.CtrGCFramesWalked); frames < depth*rounds {
		t.Errorf("frames walked = %d, want >= %d", frames, depth*rounds)
	}
	if ub, cb := uncached.Counter(s.DecodeBytesCounter()), cached.Counter(s.DecodeBytesCounter()); cb == 0 || ub <= cb {
		t.Errorf("decode bytes: %d uncached, %d cached; the cache must cut the deep walk's reads", ub, cb)
	}
	if cached.Counter(s.CacheHitsCounter()) == 0 {
		t.Error("cached run recorded no cache hits")
	}
}
