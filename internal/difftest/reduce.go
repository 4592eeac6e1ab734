package difftest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/gctab"
)

// Reduce shrinks src to a (locally) minimal program for which fails
// still returns true, by delta debugging over lines: repeatedly try
// deleting line chunks at decreasing granularity, keeping any deletion
// that preserves the failure. Candidates that break the syntax simply
// fail to compile, so fails rejects them and the search moves on.
// maxTrials bounds the number of fails invocations (<=0 means 2000).
// It returns the reduced source and the number of trials spent.
func Reduce(src string, fails func(string) bool, maxTrials int) (string, int) {
	if maxTrials <= 0 {
		maxTrials = 2000
	}
	lines := strings.Split(src, "\n")
	trials := 0
	chunk := (len(lines) + 1) / 2
	for chunk >= 1 {
		removed := false
		for i := 0; i < len(lines) && trials < maxTrials; {
			end := i + chunk
			if end > len(lines) {
				end = len(lines)
			}
			if end-i >= len(lines) {
				// Never offer the empty program.
				break
			}
			cand := make([]string, 0, len(lines)-(end-i))
			cand = append(cand, lines[:i]...)
			cand = append(cand, lines[end:]...)
			trials++
			if fails(strings.Join(cand, "\n")) {
				lines = cand
				removed = true
				// Do not advance: the next chunk slid into position i.
			} else {
				i += chunk
			}
		}
		if trials >= maxTrials {
			break
		}
		if chunk == 1 && !removed {
			break
		}
		if !removed || chunk > 1 {
			chunk /= 2
		}
	}
	return strings.Join(lines, "\n"), trials
}

// FailsLike builds the reducer predicate for one finding: a candidate
// fails when re-executing it (same seed, corruption, and a matrix
// narrowed to the finding's neighborhood) reproduces a finding of the
// same kind in the same cell.
func FailsLike(f Finding, cfg Config) func(string) bool {
	narrow := cfg
	narrow.Tel = nil
	narrow.Corrupt = f.Corrupt
	narrow.Schemes = []gctab.Scheme{f.Cell.Scheme}
	switch f.Kind {
	case KindVerify, KindCache, KindCompile:
		// Per-scheme (or pre-cell) findings need no cells at all.
		narrow.Cells = []Cell{}
	case KindDeterminism:
		// Determinism is judged within a {collector, heaplive} group:
		// keep the whole {cache × trace-workers × dispatch × concurrent}
		// slice of the failing collector at the failing cell's HeapLive
		// setting.
		var cells []Cell
		for _, cache := range []bool{false, true} {
			for _, tw := range traceWidthsFor(f.Cell.Collector) {
				for _, th := range []bool{false, true} {
					for _, conc := range []bool{false, true} {
						cells = append(cells, Cell{Collector: f.Cell.Collector, Scheme: f.Cell.Scheme,
							Cache: cache, TraceWorkers: tw,
							HeapLive: f.Cell.HeapLive, Threaded: th, Concurrent: conc})
					}
				}
			}
		}
		narrow.Cells = cells
	default:
		narrow.Cells = []Cell{f.Cell}
	}
	return func(src string) bool {
		r := Execute(f.Seed, src, narrow)
		for _, g := range r.Findings {
			if g.Kind == f.Kind && (f.Kind == KindDeterminism || g.Cell == f.Cell) {
				return true
			}
		}
		return false
	}
}

// ReduceFinding shrinks the finding's program to a minimal reproducer.
func ReduceFinding(f Finding, program string, cfg Config, maxTrials int) (string, int) {
	return Reduce(program, FailsLike(f, cfg), maxTrials)
}

// Regression is the JSON sidecar stored next to a reduced reproducer:
// everything needed to replay the finding bit-identically.
type Regression struct {
	Seed    int64       `json:"seed"`
	Kind    string      `json:"kind"`
	Cell    CellSpec    `json:"cell"`
	Detail  string      `json:"detail,omitempty"`
	Corrupt *Corruption `json:"corrupt,omitempty"`
}

// CellSpec is Cell in a JSON-stable spelling. TraceWorkers, HeapLive,
// Threaded, and Concurrent are omitted when zero/false so sidecars
// written before those dimensions existed replay unchanged (0 = the
// collector's default width, false = the pass/dispatcher/marker off,
// matching the old behavior). Sidecars written while cells had a
// stack-walk width carry a "workers" key; the walk is serial now, so
// decoding ignores it.
type CellSpec struct {
	Collector    string `json:"collector"`
	Full         bool   `json:"full"`
	Packing      bool   `json:"packing"`
	Previous     bool   `json:"previous"`
	Cache        bool   `json:"cache"`
	TraceWorkers int    `json:"trace_workers,omitempty"`
	HeapLive     bool   `json:"heap_live,omitempty"`
	Threaded     bool   `json:"threaded,omitempty"`
	Concurrent   bool   `json:"concurrent,omitempty"`
}

// Spec converts a Cell for serialization.
func (c Cell) Spec() CellSpec {
	return CellSpec{Collector: c.Collector, Full: c.Scheme.Full, Packing: c.Scheme.Packing,
		Previous: c.Scheme.Previous, Cache: c.Cache,
		TraceWorkers: c.TraceWorkers, HeapLive: c.HeapLive, Threaded: c.Threaded,
		Concurrent: c.Concurrent}
}

// Cell converts back.
func (s CellSpec) Cell() Cell {
	return Cell{Collector: s.Collector,
		Scheme: gctab.Scheme{Full: s.Full, Packing: s.Packing, Previous: s.Previous},
		Cache:  s.Cache, TraceWorkers: s.TraceWorkers,
		HeapLive: s.HeapLive, Threaded: s.Threaded, Concurrent: s.Concurrent}
}

// WriteRegression stores the reduced program and its replay sidecar
// under dir, so the found bug becomes a permanent regression test (see
// regressions_test.go). It returns the base path (without extension).
func WriteRegression(dir string, f Finding, reduced string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("seed%d-%s", f.Seed, f.Kind))
	if !strings.HasSuffix(reduced, "\n") {
		reduced += "\n"
	}
	if err := os.WriteFile(base+".m3", []byte(reduced), 0o644); err != nil {
		return "", err
	}
	reg := Regression{Seed: f.Seed, Kind: f.Kind.String(), Cell: f.Cell.Spec(),
		Detail: f.Detail, Corrupt: f.Corrupt}
	js, err := json.MarshalIndent(reg, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".json", append(js, '\n'), 0o644); err != nil {
		return "", err
	}
	return base, nil
}

// ReadRegression loads a replay sidecar.
func ReadRegression(path string) (*Regression, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reg Regression
	if err := json.Unmarshal(data, &reg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &reg, nil
}
