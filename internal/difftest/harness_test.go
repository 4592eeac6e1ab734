package difftest

import (
	"strings"
	"testing"

	"repro/internal/gctab"
	"repro/internal/telemetry"
)

func TestMatrixShape(t *testing.T) {
	cells := Matrix(nil)
	// gc and gengc explore trace-worker widths {1,8}; conservative has
	// no copy phase and runs {1} only. Every cell doubles across the
	// heaplive compile dimension, again across switch/threaded dispatch,
	// and again across synchronous/concurrent marking.
	if want := (2*8*2*2 + 1*8*2*1) * 2 * 2 * 2; len(cells) != want {
		t.Fatalf("full matrix has %d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.String()] {
			t.Fatalf("duplicate cell %s", c)
		}
		seen[c.String()] = true
	}
}

// A slice of real seeds through a reduced matrix (two schemes, all
// collectors, cache and trace-width variation) must produce zero
// findings: scheme, cache, and trace width are behaviorally invisible,
// all three collectors print the reference output, and the strict
// verifier passes every compile. The 300-seed full-matrix sweep lives in
// cmd/difffuzz; this is the in-tree smoke slice of it.
func TestDifferentialSeedsClean(t *testing.T) {
	schemes := []gctab.Scheme{gctab.DeltaPP, {Full: true}}
	for seed := int64(1); seed <= 12; seed++ {
		r := RunSeed(seed, Config{Schemes: schemes})
		if !r.OK() {
			for _, f := range r.Findings {
				t.Errorf("%s", f)
			}
			t.Fatalf("seed %d: %d findings\n%s", seed, len(r.Findings), r.Program)
		}
		if want := (2*2 + 1) * len(schemes) * 2 * 2 * 2 * 2; r.Cells != want {
			t.Fatalf("seed %d: ran %d cells, want %d", seed, r.Cells, want)
		}
	}
}

// Corrupting one byte of every encoded stream must surface somewhere
// in the matrix — the verifier, the cache probe, or an execution cell.
// This is the harness checking its own detectors.
func TestCorruptionDetected(t *testing.T) {
	detected := 0
	for _, corr := range []Corruption{{Off: 3, Mask: 0x40}, {Off: 11, Mask: 0xFF}, {Off: 29, Mask: 0x01}} {
		r := RunSeed(1, Config{
			Schemes: []gctab.Scheme{gctab.DeltaPP},
			Corrupt: &corr,
		})
		if len(r.Findings) > 0 {
			detected++
			for _, f := range r.Findings {
				if f.Corrupt == nil || *f.Corrupt != corr {
					t.Fatalf("finding lost its corruption record: %s", f)
				}
			}
		}
	}
	if detected == 0 {
		t.Fatal("no corruption detected by any probe")
	}
}

func TestTelemetryCounters(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	r := RunSeed(2, Config{
		Schemes: []gctab.Scheme{gctab.DeltaPP},
		Cells: []Cell{
			{Collector: CollectorGC, Scheme: gctab.DeltaPP},
			{Collector: CollectorGen, Scheme: gctab.DeltaPP, Cache: true, TraceWorkers: 8},
		},
		Tel: tel,
	})
	if !r.OK() {
		t.Fatalf("unexpected findings: %v", r.Findings)
	}
	snap := tel.Snapshot()
	want := map[string]int64{
		"difftest.programs":    1,
		"difftest.cells.gc":    1,
		"difftest.cells.gengc": 1,
	}
	for name, v := range want {
		if got := snap.Counter(name); got != v {
			t.Errorf("counter %s = %d, want %d", name, got, v)
		}
	}
}

// An empty-but-non-nil cell list runs only the per-scheme checks.
func TestNoCells(t *testing.T) {
	r := RunSeed(3, Config{Schemes: []gctab.Scheme{gctab.DeltaPP}, Cells: []Cell{}})
	if r.Cells != 0 {
		t.Fatalf("ran %d cells, want 0", r.Cells)
	}
	if !r.OK() {
		t.Fatalf("unexpected findings: %v", r.Findings)
	}
}

// A program that fails to compile is one KindCompile finding, not a
// crash.
func TestCompileFailureIsFinding(t *testing.T) {
	r := Execute(0, "MODULE Broken; BEGIN ... END Broken.", Config{
		Schemes: []gctab.Scheme{gctab.DeltaPP},
	})
	if len(r.Findings) == 0 {
		t.Fatal("no finding for a broken program")
	}
	if r.Findings[0].Kind != KindCompile {
		t.Fatalf("kind = %s, want compile", r.Findings[0].Kind)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := KindCompile; k <= KindCache; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("kind %s does not round-trip", k)
		}
	}
	if _, ok := KindFromString("nonsense"); ok {
		t.Fatal("unknown kind accepted")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Seed: 7, Kind: KindVerify, Cell: Cell{Scheme: gctab.DeltaPP}, Detail: "x"}
	s := f.String()
	if !strings.Contains(s, "seed 7") || !strings.Contains(s, "verify") {
		t.Fatalf("unhelpful finding string %q", s)
	}
}
