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
		Mem:    mem,
		Descs:  dt,
		SpanLo: lo,
		SpanHi: hi,
		ToBase: h.BeginCollection(),
		Marks:  heap.NewMarkSet(lo, hi),
	}
	return w
}

// wordSum is an order-sensitive checksum of a memory image.
func wordSum(ws []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return h
}

// evacuation is the benchmark world between the phases: its copy plan,
// the from-space headers the copy overwrites, and the to-space
// checksums a correct copy and fixup leave. Every object is live, so
// the copy must reproduce the from-space image, and the fixup the same
// image with every pointer field moved by ToBase-SpanLo.
type evacuation struct {
	plan          *copyPlan
	toBase        int64
	headers       []int64
	copied, fixed uint64
}

// evacuate marks and assigns w and records what a correct copy and
// fixup leave behind.
func (w *benchWorld) evacuate(tb testing.TB) *evacuation {
	w.mark(tb, 8)
	sp := &w.sp
	e := &evacuation{plan: assignPhase(sp), toBase: sp.ToBase}
	from := sp.Mem[sp.SpanLo:sp.SpanHi]
	e.copied = wordSum(from)
	fixed := append([]int64(nil), from...)
	for _, a := range e.plan.from {
		for _, off := range sp.Descs.PointerOffsets(sp.Mem, a, nil) {
			if v := fixed[a-sp.SpanLo+off]; v != 0 {
				fixed[a-sp.SpanLo+off] = v - sp.SpanLo + sp.ToBase
			}
		}
	}
	e.fixed = wordSum(fixed)
	for _, a := range e.plan.from {
		e.headers = append(e.headers, sp.Mem[a])
	}
	return e
}

// to is the to-space image the plan fills.
func (e *evacuation) to(w *benchWorld) []int64 {
	return w.sp.Mem[e.toBase : e.toBase+e.plan.total]
}

// check fails tb unless the to-space holds want and every from-space
// header is the forwarding word to its object's copy.
func (e *evacuation) check(tb testing.TB, w *benchWorld, phase string, want uint64) {
	tb.Helper()
	if got := wordSum(e.to(w)); got != want {
		tb.Fatalf("%s: to-space checksum %#x, want %#x", phase, got, want)
	}
	for i, a := range e.plan.from {
		if fw := w.sp.Mem[a]; fw != -(e.plan.to[i] + 1) {
			tb.Fatalf("%s: header of %d reads %d, want the forwarding word %d", phase, a, fw, -(e.plan.to[i] + 1))
		}
	}
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
// iteration restores them off the clock. The to-space starts cleared
// and is checked, with the forwarding words, after the last iteration,
// so a broken copy fails here rather than only running fast.
func BenchmarkCopyPhase(b *testing.B) {
	w := buildBenchWorld(b)
	e := w.evacuate(b)
	for _, workers := range benchWidths() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(e.plan.total * heap.WordBytes)
			clear(e.to(w))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, a := range e.plan.from {
					w.sp.Mem[a] = e.headers[j]
				}
				b.StartTimer()
				runChunks(&w.sp, workers, (*CopySpace).copyRange)
			}
			b.StopTimer()
			e.check(b, w, "copy", e.copied)
		})
	}
}

// BenchmarkFixupPhase times the pointer translation over the to-space
// copies and the root slot. Each iteration restores the copied,
// untranslated to-space and the root off the clock; the last
// iteration's to-space must read the from-space image with every
// pointer moved to its copy, and the root must point at the first copy.
func BenchmarkFixupPhase(b *testing.B) {
	w := buildBenchWorld(b)
	e := w.evacuate(b)
	runChunks(&w.sp, 1, (*CopySpace).copyRange)
	e.check(b, w, "copy", e.copied)
	copied := append([]int64(nil), e.to(w)...)
	for _, workers := range benchWidths() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(e.plan.total * heap.WordBytes)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(e.to(w), copied)
				w.root = w.addrs[0]
				b.StartTimer()
				if err := fixupPhase([]*int64{&w.root}, &w.sp, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			e.check(b, w, "fixup", e.fixed)
			if w.root != e.toBase {
				b.Fatalf("fixup: root reads %d, want %d", w.root, e.toBase)
			}
		})
	}
}
