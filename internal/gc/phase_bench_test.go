package gc

import (
	"fmt"
	"testing"

	"repro/internal/heap"
	"repro/internal/types"
)

// benchWorld is a synthetic from-space for phase benchmarks: benchObjs
// four-word records (header + int + two pointer fields) linked as a
// binary tree rooted at the first object, with an extra cross edge per
// node: duplicate discoveries for the claim bitmap to filter, and jumps
// across the tree that pile up enough gray objects for the wider rows
// to share (a pure tree keeps the stack a few entries deep).
type benchWorld struct {
	h     *heap.Heap
	addrs []int64
	root  int64
	sp    CopySpace
}

const benchObjs = 20000

func buildBenchWorld(tb testing.TB) *benchWorld {
	tb.Helper()
	dt := types.NewDescTable()
	dt.Descs = append(dt.Descs, &types.Desc{
		ID: 0, Kind: types.DescRecord, Name: "BenchNode",
		DataWords: 3, PtrOffsets: []int64{1, 2},
	})
	// Lo starts past 0 like the real machine heap: address 0 is nil.
	mem := make([]int64, 4*benchObjs*2+32)
	h := heap.New(mem, 16, int64(len(mem)), dt)
	w := &benchWorld{h: h}
	for i := 0; i < benchObjs; i++ {
		a, ok := h.TryAlloc(0, 0)
		if !ok {
			tb.Fatalf("allocation %d failed", i)
		}
		mem[a+1] = int64(i)
		w.addrs = append(w.addrs, a)
	}
	for i, a := range w.addrs {
		if l := 2*i + 1; l < len(w.addrs) {
			mem[a+2] = w.addrs[l] // tree edge (left; right is l+1's parent slot)
		}
		mem[a+3] = w.addrs[(i*7+3)%len(w.addrs)] // cross edge
	}
	for i := 2; i < len(w.addrs); i += 2 {
		mem[w.addrs[i/2-1]+3] = w.addrs[i] // right tree edge replaces the cross edge
	}
	w.root = w.addrs[0]
	lo, hi := h.FromSpan()
	w.sp = CopySpace{
		Mem:        mem,
		SpanLo:     lo,
		SpanHi:     hi,
		InFrom:     h.Contains,
		SizeOf:     h.SizeOf,
		PtrOffsets: h.PointerOffsets,
		Copy:       h.CopyObjectSized,
		ToBase:     h.BeginCollection(),
		Marks:      heap.NewMarkSet(lo, hi),
	}
	return w
}

// mark runs the mark phase over a cleared bitmap and checks it found
// every object.
func (w *benchWorld) mark(tb testing.TB, workers int) {
	w.sp.Marks.Reset(w.sp.SpanLo, w.sp.SpanHi)
	if _, err := markPhase([]*int64{&w.root}, &w.sp, workers); err != nil {
		tb.Fatal(err)
	}
	if n := w.sp.Marks.Len(); n != benchObjs {
		tb.Fatalf("marked %d objects, want %d", n, benchObjs)
	}
}

func benchWidths() []int { return []int{1, 2, 4, 8} }

// BenchmarkMarkPhase times the graph traversal over the synthetic
// 20k-object world. workers=1 is the serial path — private stack,
// non-atomic claims, no goroutine — which is also all a small or
// tree-shaped heap ever runs at any width; the wider rows add the chunk
// pool, the helpers and the atomic claim bitmap.
func BenchmarkMarkPhase(b *testing.B) {
	w := buildBenchWorld(b)
	for _, workers := range benchWidths() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(4 * benchObjs * heap.WordBytes)
			for i := 0; i < b.N; i++ {
				w.mark(b, workers)
			}
		})
	}
}

// BenchmarkAssignPhase times the determinism keystone: sweeping the
// mark bitmap into allocation order and laying out to-space by prefix
// sums. Always serial.
func BenchmarkAssignPhase(b *testing.B) {
	w := buildBenchWorld(b)
	w.mark(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := assignPhase(&w.sp)
		if len(plan.from) != benchObjs {
			b.Fatalf("planned %d objects, want %d", len(plan.from), benchObjs)
		}
	}
}

// BenchmarkCopyPhase times the range-partitioned evacuation. Copying
// destroys the from-space headers (forwarding words), so each
// iteration restores them off the clock.
func BenchmarkCopyPhase(b *testing.B) {
	w := buildBenchWorld(b)
	w.mark(b, 8)
	plan := assignPhase(&w.sp)
	headers := make([]int64, len(plan.from))
	for i, a := range plan.from {
		headers[i] = w.sp.Mem[a]
	}
	for _, workers := range benchWidths() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(plan.total * heap.WordBytes)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, a := range plan.from {
					w.sp.Mem[a] = headers[j]
				}
				b.StartTimer()
				runChunks(&w.sp, workers, (*CopySpace).copyRange)
			}
		})
	}
}
