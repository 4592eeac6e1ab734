package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gctab"
)

// The line-based ddmin must shrink to exactly the failure-carrying
// lines when the predicate is a simple content test.
func TestReduceSynthetic(t *testing.T) {
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, "filler")
	}
	lines[17] = "NEEDLE-A"
	lines[31] = "NEEDLE-B"
	src := strings.Join(lines, "\n")
	fails := func(s string) bool {
		return strings.Contains(s, "NEEDLE-A") && strings.Contains(s, "NEEDLE-B")
	}
	red, trials := Reduce(src, fails, 0)
	if !fails(red) {
		t.Fatal("reduction lost the failure")
	}
	if n := len(strings.Split(red, "\n")); n > 2 {
		t.Fatalf("reduced to %d lines, want <= 2 (%d trials):\n%s", n, trials, red)
	}
}

// Reducing a corruption finding must preserve reproducibility: the
// reduced program, replayed through FailsLike's narrowed config, still
// reports the finding — and is smaller.
func TestReduceFindingCorruption(t *testing.T) {
	corr := &Corruption{Off: 3, Mask: 0x40}
	cfg := Config{Schemes: []gctab.Scheme{gctab.DeltaPP}, Corrupt: corr}
	r := RunSeed(1, cfg)
	if len(r.Findings) == 0 {
		t.Skip("this corruption happens to be undetectable on seed 1")
	}
	f := r.Findings[0]
	red, trials := ReduceFinding(f, r.Program, cfg, 300)
	if trials == 0 {
		t.Fatal("reducer made no attempts")
	}
	if len(red) >= len(r.Program) && trials < 300 {
		t.Fatalf("no shrink after %d trials (%d -> %d bytes)", trials, len(r.Program), len(red))
	}
	if !FailsLike(f, cfg)(red) {
		t.Fatal("reduced program no longer reproduces the finding")
	}
}

func TestCellSpecRoundTrip(t *testing.T) {
	for _, c := range Matrix(nil) {
		if back := c.Spec().Cell(); back != c {
			t.Fatalf("cell %s round-trips to %s", c, back)
		}
	}
}

func TestWriteReadRegression(t *testing.T) {
	dir := t.TempDir()
	f := Finding{
		Seed:    99,
		Kind:    KindOutput,
		Cell:    Cell{Collector: CollectorGen, Scheme: gctab.DeltaPP, Cache: true, TraceWorkers: 8},
		Detail:  "output mismatch",
		Corrupt: &Corruption{Off: 5, Mask: 0x80},
	}
	base, err := WriteRegression(dir, f, "MODULE Fuzz;\nBEGIN\nEND Fuzz.")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(base + ".m3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(src), "\n") {
		t.Error("stored program missing trailing newline")
	}
	reg, err := ReadRegression(base + ".json")
	if err != nil {
		t.Fatal(err)
	}
	if reg.Seed != 99 || reg.Kind != "output" {
		t.Fatalf("sidecar lost identity: %+v", reg)
	}
	if reg.Cell.Cell() != f.Cell {
		t.Fatalf("sidecar cell %+v != %s", reg.Cell, f.Cell)
	}
	if reg.Corrupt == nil || *reg.Corrupt != *f.Corrupt {
		t.Fatalf("sidecar corruption %+v", reg.Corrupt)
	}
	if filepath.Base(base) != "seed99-output" {
		t.Fatalf("unexpected base name %q", filepath.Base(base))
	}
}
