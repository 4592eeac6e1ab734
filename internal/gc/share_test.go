package gc_test

// Tests for the mark phase's work-sharing path: private gray stacks that
// hand surplus to the chunk pool. Both earlier soundness bugs in this
// engine's ancestors were gray-stack aliasing — a batch carved off a
// stack that its owner kept appending to — and both hid from the
// generated-program matrix because only bushy heaps pile up enough gray
// objects to reach the sharing code. These worlds are built to reach it.

import (
	"runtime"
	"testing"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/types"
)

const (
	shareNode = iota // record: id + four child pointers
	shareArr         // open array of pointers
	shareCell        // record: id + next pointer
)

// shareWorld is a hand-built from-space with garbage between the live
// objects (so compaction moves everything) and the root slots a
// collection starts from.
type shareWorld struct {
	h      *heap.Heap
	roots  []int64
	chunks int // chunks the last collection's copy and fixup ran in
}

func newShareWorld(words int64) *shareWorld {
	dt := &types.DescTable{Descs: []*types.Desc{
		{ID: shareNode, Kind: types.DescRecord, Name: "Node", DataWords: 5, PtrOffsets: []int64{1, 2, 3, 4}},
		{ID: shareArr, Kind: types.DescOpenArray, Name: "Arr", ElemWords: 1, ElemPtrOffsets: []int64{0}},
		{ID: shareCell, Kind: types.DescRecord, Name: "Cell", DataWords: 2, PtrOffsets: []int64{1}},
	}}
	mem := make([]int64, 16+2*words)
	return &shareWorld{h: heap.New(mem, 16, int64(len(mem)), dt)}
}

// alloc allocates one object and, before it, a dead cell.
func (w *shareWorld) alloc(t *testing.T, desc int, n int64) int64 {
	t.Helper()
	if _, ok := w.h.TryAlloc(shareCell, 0); !ok {
		t.Fatal("share world heap exhausted")
	}
	a, ok := w.h.TryAlloc(desc, n)
	if !ok {
		t.Fatal("share world heap exhausted")
	}
	return a
}

// collect runs one TraceCopy at the given width and returns its stats
// and the digest of the whole heap region plus the patched root slots.
func (w *shareWorld) collect(t *testing.T, workers int) (gc.TraceStats, uint64) {
	t.Helper()
	h := w.h
	lo, hi := h.FromSpan()
	slots := make([]*int64, len(w.roots))
	for i := range w.roots {
		slots[i] = &w.roots[i]
	}
	sp := &gc.CopySpace{
		Mem:    h.Mem,
		Descs:  h.Descs,
		SpanLo: lo,
		SpanHi: hi,
		ToBase: h.BeginCollection(),
	}
	st, err := gc.TraceCopy(slots, sp, workers)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	w.chunks = gc.CopyChunks(sp, workers)
	h.AddCopied(st.Objects)
	h.FinishCollection(st.Next)
	if err := h.Check(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return st, fnvWords(h.Mem[h.Lo:h.Hi]) ^ fnvWords(w.roots)
}

// buildTree allocates a complete 4-ary tree of the given depth (root at
// depth 0) in breadth-first order, ids 1..n, and returns the node
// addresses level by level.
func (w *shareWorld) buildTree(t *testing.T, depth int) [][]int64 {
	t.Helper()
	levels := make([][]int64, depth+1)
	id := int64(0)
	for d := 0; d <= depth; d++ {
		for i := 0; i < 1<<(2*d); i++ {
			a := w.alloc(t, shareNode, 0)
			id++
			w.h.Mem[a+1] = id
			levels[d] = append(levels[d], a)
			if d > 0 {
				w.h.Mem[levels[d-1][i/4]+2+int64(i%4)] = a
			}
		}
	}
	return levels
}

// sumTree walks the (moved) tree from a root and returns the node count
// and the sum of ids.
func (w *shareWorld) sumTree(root int64) (n, sum int64) {
	stack := []int64{root}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n++
		sum += w.h.Mem[a+1]
		for k := int64(2); k <= 5; k++ {
			if c := w.h.Mem[a+k]; c != 0 {
				stack = append(stack, c)
			}
		}
	}
	return n, sum
}

var shareWidths = []int{1, 2, 8}

// checkShared is the common verdict: the survivor count is the closed
// form, the heap image is the same at every width, width 1 never touches
// the pool, and wider pools do when the world was built to overflow a
// private stack.
func checkShared(t *testing.T, run func(t *testing.T, workers int) (gc.TraceStats, uint64), wantObjects int64, wantShare bool) {
	t.Helper()
	var ref uint64
	for _, workers := range shareWidths {
		st, hash := run(t, workers)
		if st.Objects != wantObjects {
			t.Errorf("workers=%d: %d objects survived, want %d", workers, st.Objects, wantObjects)
		}
		if workers == shareWidths[0] {
			ref = hash
		} else if hash != ref {
			t.Errorf("workers=%d: heap hash %#x differs from the serial image %#x", workers, hash, ref)
		}
		switch {
		case workers == 1 || !wantShare:
			if st.Steals != 0 {
				t.Errorf("workers=%d: %d chunks changed hands, want 0", workers, st.Steals)
			}
		case st.Steals == 0:
			t.Errorf("workers=%d: no chunk changed hands; the sharing path did not run", workers)
		}
	}
}

// TestShareTree collects complete 4-ary trees. From its root alone a
// depth-first mark never holds more than 3·depth+1 gray nodes, so no
// width shares anything: the serial start is a property of the heap.
// With every node of level 5 also held in a root slot — a thousand live
// references in frames, as a recursive builder leaves them — the seeded
// stack overflows two chunks at once, and the same tree must come out
// bit for bit the same. Depth 7 (21845 six-word nodes) stays just under
// the copy split; depth 8 (87381 nodes, 524k words) is past it, so
// wider pools copy and fix up in several goroutines over disjoint
// ranges, and that image too must match the serial one.
func TestShareTree(t *testing.T) {
	for _, tc := range []struct {
		name      string
		depth     int
		rootLevel int // level whose nodes are root slots too; 0 = the root alone
	}{{"single-root", 7, 0}, {"level-rooted", 7, 5}, {"split-copy", 8, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := int64(1<<(2*(tc.depth+1))-1) / 3
			split := nodes*6 >= 2*gc.MinWordsPerWorker
			checkShared(t, func(t *testing.T, workers int) (gc.TraceStats, uint64) {
				w := newShareWorld(nodes * (6 + 3))
				levels := w.buildTree(t, tc.depth)
				w.roots = append(w.roots, levels[0][0])
				if tc.rootLevel > 0 {
					w.roots = append(w.roots, levels[tc.rootLevel]...)
				}
				st, hash := w.collect(t, workers)
				if n, sum := w.sumTree(w.roots[0]); n != nodes || sum != nodes*(nodes+1)/2 {
					t.Errorf("workers=%d: moved tree has %d nodes summing to %d, want %d and %d",
						workers, n, sum, nodes, nodes*(nodes+1)/2)
				}
				switch {
				case split && workers > 1 && w.chunks < 2:
					t.Errorf("workers=%d: %d live words copied in %d chunk; the split path did not run",
						workers, st.Words, w.chunks)
				case (!split || workers == 1) && w.chunks != 1:
					t.Errorf("workers=%d: %d live words copied in %d chunks, want 1", workers, st.Words, w.chunks)
				}
				return st, hash
			}, nodes, tc.rootLevel > 0)
		})
	}
}

// buildWideArray makes the world's one root an open array of fan
// elements, each the head of a chain of cells with ids 1..fan*chain.
func buildWideArray(t *testing.T, fan, chain int64) *shareWorld {
	t.Helper()
	w := newShareWorld(2 + fan + fan*chain*6 + 16)
	arr := w.alloc(t, shareArr, fan)
	for i := int64(0); i < fan; i++ {
		next := int64(0)
		for k := int64(0); k < chain; k++ {
			c := w.alloc(t, shareCell, 0)
			w.h.Mem[c+1] = i*chain + k + 1
			w.h.Mem[c+2] = next
			next = c
		}
		w.h.Mem[arr+2+i] = next
	}
	w.roots = []int64{arr}
	return w
}

// TestShareWideArray collects one open array whose single scan pushes
// more than two chunks of gray objects: 3000 elements, each the head of
// a three-cell chain, so a taken chunk has work under it.
func TestShareWideArray(t *testing.T) {
	const fan, chain = 3000, 3
	checkShared(t, func(t *testing.T, workers int) (gc.TraceStats, uint64) {
		w := buildWideArray(t, fan, chain)
		st, hash := w.collect(t, workers)
		arr := w.roots[0]
		var n, sum int64
		for i := int64(0); i < fan; i++ {
			for c := w.h.Mem[arr+2+i]; c != 0; c = w.h.Mem[c+2] {
				n++
				sum += w.h.Mem[c+1]
			}
		}
		if want := int64(fan * chain); n != want || sum != want*(want+1)/2 {
			t.Errorf("workers=%d: moved array reaches %d cells summing to %d, want %d and %d",
				workers, n, sum, want, want*(want+1)/2)
		}
		return st, hash
	}, 1+fan*chain, true)
}

// TestShareDefaultWidthFollowsRuntime pins the call-time default: a
// collection that does not pick a width asks the runtime then, not at
// package initialisation, and DefaultTraceWorkers still overrides it.
func TestShareDefaultWidthFollowsRuntime(t *testing.T) {
	run := func() int64 {
		st, _ := buildWideArray(t, 3000, 1).collect(t, 0)
		return st.Steals
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if s := run(); s != 0 {
		t.Errorf("GOMAXPROCS=1: default width shared %d chunks; it was not resolved at call time", s)
	}
	runtime.GOMAXPROCS(4)
	if s := run(); s == 0 {
		t.Error("GOMAXPROCS=4: default width shared nothing; it was not resolved at call time")
	}
	gc.DefaultTraceWorkers = 1
	defer func() { gc.DefaultTraceWorkers = 0 }()
	if s := run(); s != 0 {
		t.Errorf("DefaultTraceWorkers=1 shared %d chunks; the override was ignored", s)
	}
}
