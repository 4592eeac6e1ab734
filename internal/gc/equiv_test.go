package gc_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// equivSchemes is the full 8-way encoding matrix: {full-info, δ-main}
// × {plain, previous, packing, packing+previous}.
var equivSchemes = []gctab.Scheme{
	{Full: true},
	{Full: true, Previous: true},
	{Full: true, Packing: true},
	{Full: true, Packing: true, Previous: true},
	{},
	{Previous: true},
	{Packing: true},
	{Packing: true, Previous: true},
}

// equivTraceWidths are the trace-copy pool widths the equivalence
// matrix compares: serial, the smallest parallel pool, and a wide one.
var equivTraceWidths = []int{1, 2, 8}

// fnvWords is FNV-1a over a word image (the same digest difftest uses
// for its cross-cell heap comparison).
func fnvWords(ws []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(w >> s))
			h *= 1099511628211
		}
	}
	return h
}

// equivRecorder wraps the real collector and logs, per collection, the
// frame-list signature (walked exactly as the collector will walk it)
// and, after the cycle, the full heap digest and survivor count — so
// two runs can be compared collection by collection, not just at exit.
type equivRecorder struct {
	real   *gc.Collector
	walk   gc.Walk
	frames []string
	hashes []uint64
	live   []int64
}

func (r *equivRecorder) Collect(m *vmachine.Machine) error {
	if err := r.walk.Machine(m, r.real.Dec); err != nil {
		return err
	}
	r.frames = append(r.frames, r.walk.String())
	if err := r.real.Collect(m); err != nil {
		return err
	}
	r.hashes = append(r.hashes, fnvWords(m.Mem[m.HeapLo:m.HeapHi]))
	r.live = append(r.live, r.real.Heap.LiveObjects)
	return nil
}

// equivRun is everything one configuration's execution observed.
type equivRun struct {
	label   string
	out     string
	gcs     int64
	frames  []string
	hashes  []uint64
	live    []int64
	words   int64
	objects int64
	telly   map[string]int64 // final telemetry counters under comparison
}

func runEquivCell(t *testing.T, scheme gctab.Scheme, tw int) equivRun {
	t.Helper()
	opts := driver.NewOptions()
	opts.Multithreaded = true
	opts.Scheme = scheme
	opts.TraceWorkers = tw
	c := compileParallel(t, opts)

	tel := telemetry.New(telemetry.Config{})
	cfg := vmachine.Config{HeapWords: 1024, StackWords: 4096, MaxThreads: 8, Quantum: 53, Tel: tel}
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
	rec := &equivRecorder{real: col}
	m.Collector = rec
	if err := m.Run(100_000_000); err != nil {
		t.Fatalf("scheme=%s tw=%d: %v (out=%q)", scheme, tw, err, sb.String())
	}
	if col.MarkTime+col.CopyTime == 0 {
		t.Errorf("scheme=%s tw=%d: no mark or copy time recorded", scheme, tw)
	}
	snap := tel.Snapshot()
	return equivRun{
		label:   fmt.Sprintf("scheme=%s tw=%d", scheme, tw),
		out:     sb.String(),
		gcs:     m.GCCount,
		frames:  rec.frames,
		hashes:  rec.hashes,
		live:    rec.live,
		words:   col.WordsCopied,
		objects: col.ObjectsCopied,
		telly: map[string]int64{
			telemetry.CtrGCCollections:   snap.Counter(telemetry.CtrGCCollections),
			telemetry.CtrGCBytesCopied:   snap.Counter(telemetry.CtrGCBytesCopied),
			telemetry.CtrGCObjectsCopied: snap.Counter(telemetry.CtrGCObjectsCopied),
		},
	}
}

func compareEquivRuns(t *testing.T, base, r equivRun) {
	t.Helper()
	if r.out != base.out {
		t.Errorf("%s: output %q, %s had %q", r.label, r.out, base.label, base.out)
	}
	if r.gcs != base.gcs {
		t.Errorf("%s: %d collections, %s had %d", r.label, r.gcs, base.label, base.gcs)
	}
	if !reflect.DeepEqual(r.frames, base.frames) {
		for i := range base.frames {
			if i >= len(r.frames) || r.frames[i] != base.frames[i] {
				t.Errorf("%s: collection %d frame list\n  %q\nwant (%s)\n  %q",
					r.label, i, at(r.frames, i), base.label, at(base.frames, i))
				break
			}
		}
	}
	if !reflect.DeepEqual(r.hashes, base.hashes) {
		for i := range base.hashes {
			if i >= len(r.hashes) || r.hashes[i] != base.hashes[i] {
				t.Errorf("%s: heap digest after collection %d is %#x, %s had %#x",
					r.label, i, r.hashes[i], base.label, base.hashes[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(r.live, base.live) {
		t.Errorf("%s: survivor counts %v, %s had %v", r.label, r.live, base.label, base.live)
	}
	if r.words != base.words || r.objects != base.objects {
		t.Errorf("%s: copied %d words / %d objects, %s copied %d / %d",
			r.label, r.words, r.objects, base.label, base.words, base.objects)
	}
	if !reflect.DeepEqual(r.telly, base.telly) {
		t.Errorf("%s: telemetry %v, %s had %v", r.label, r.telly, base.label, base.telly)
	}
}

// TestTraceWorkersEquivalence is the acceptance matrix for the parallel
// trace-copy engine under the full collector: for every encoding scheme,
// a four-thread churn run at TraceWorkers 1, 2, and 8 must be
// indistinguishable collection by collection — same frame lists, same
// post-cycle heap digests (which subsumes every forwarding decision),
// same survivor counts, same cumulative copy totals, and the same final
// telemetry counters. Run under -race in CI, it doubles as the data-race
// proof for the mark/copy/fixup pools.
func TestTraceWorkersEquivalence(t *testing.T) {
	for _, scheme := range equivSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			base := runEquivCell(t, scheme, equivTraceWidths[0])
			if base.out != parallelWant {
				t.Fatalf("%s: output %q, want %q", base.label, base.out, parallelWant)
			}
			if base.gcs == 0 {
				t.Fatal("no collections; nothing was compared")
			}
			for _, tw := range equivTraceWidths[1:] {
				compareEquivRuns(t, base, runEquivCell(t, scheme, tw))
			}
		})
	}
}
