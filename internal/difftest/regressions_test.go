package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gctab"
)

// Every reduced reproducer under testdata/regressions replays through
// the harness. Clean entries (no corruption) document a fixed bug and
// must stay finding-free forever; corrupted entries document a fault
// the detectors must keep catching.
func TestRegressions(t *testing.T) {
	sidecars, err := filepath.Glob(filepath.Join("testdata", "regressions", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sidecars) == 0 {
		t.Fatal("no regressions checked in; at least the seed-222 reproducer should exist")
	}
	for _, sc := range sidecars {
		sc := sc
		t.Run(strings.TrimSuffix(filepath.Base(sc), ".json"), func(t *testing.T) {
			reg, err := ReadRegression(sc)
			if err != nil {
				t.Fatal(err)
			}
			src, err := os.ReadFile(strings.TrimSuffix(sc, ".json") + ".m3")
			if err != nil {
				t.Fatal(err)
			}
			kind, ok := KindFromString(reg.Kind)
			if !ok {
				t.Fatalf("unknown kind %q", reg.Kind)
			}
			cfg := replayConfig(kind, reg.Cell.Cell())
			cfg.Corrupt = reg.Corrupt
			r := Execute(reg.Seed, string(src), cfg)
			if reg.Corrupt == nil {
				for _, f := range r.Findings {
					t.Errorf("regressed: %s", f)
				}
			} else if len(r.Findings) == 0 {
				t.Errorf("recorded corruption (off=%d mask=%#02x) is no longer detected",
					reg.Corrupt.Off, reg.Corrupt.Mask)
			}
		})
	}
}

// replayConfig narrows the matrix to the recorded finding's
// neighborhood, the same way FailsLike does for the reducer.
func replayConfig(kind Kind, cell Cell) Config {
	cfg := Config{Schemes: []gctab.Scheme{cell.Scheme}}
	switch kind {
	case KindVerify, KindCache, KindCompile:
		cfg.Cells = []Cell{}
	case KindDeterminism:
		for _, cache := range []bool{false, true} {
			for _, tw := range traceWidthsFor(cell.Collector) {
				cfg.Cells = append(cfg.Cells, Cell{Collector: cell.Collector,
					Scheme: cell.Scheme, Cache: cache, TraceWorkers: tw})
			}
		}
	default:
		cfg.Cells = []Cell{cell}
	}
	return cfg
}
