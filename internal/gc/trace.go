// Deterministic parallel trace-and-copy engine.
//
// The serial collector's Cheney scan interleaves discovery and copying,
// so to-space layout depends on traversal order — unusable for a
// parallel collector that must stay bitwise reproducible. This engine
// splits a moving collection into four phases whose result depends only
// on the *set* of reachable objects, never on the order they were
// found:
//
//	mark    graph traversal from the roots; the claim bitmap
//	        (heap.MarkSet) is the only record of what was found. It
//	        starts on the caller's goroutine with a private gray stack
//	        and non-atomic claims, and most collections end there. Only
//	        when the stack outgrows two chunks does the worker publish
//	        its oldest chunk to a shared pool and start helpers, each
//	        with a private stack of its own; from then on claims are
//	        atomic, a worker publishes when it has surplus and the pool
//	        is empty, idle workers take whole chunks, and marking ends
//	        when every worker is idle and the pool is empty
//	assign  the bitmap is swept in ascending address (= allocation)
//	        order and prefix sums of the object sizes assign each
//	        survivor the exact to-space address a serial
//	        allocation-order compaction would choose
//	copy    workers copy disjoint address ranges and install
//	        forwarding words (disjoint objects → no shared writes)
//	fixup   workers rewrite the pointer fields of their to-space
//	        copies through the forwarding words; root slots are
//	        patched serially (they may alias across frames)
//
// The engine reads object layout itself, from the descriptor table
// the headers index (types.DescTable.SizeAt and PointerOffsets, the one
// definition every heap shares), and decides what moves by address
// alone (CopySpace.InFrom): no phase calls back into the heap, so a
// pointer field costs a compare, not an indirect call.
//
// Because placement is canonical, a collection at any worker count —
// including 1 — produces an identical heap image, identical forwarding
// decisions, and identical survivor counts. The full collector (gc.go)
// and both generational collections (gengc) are built on this one
// engine.
package gc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/heap"
	"repro/internal/types"
)

// DefaultTraceWorkers, when positive, overrides the width of the
// collection worker pool for callers that do not pick one
// (TraceWorkers <= 0). Zero asks the runtime at each collection: mark
// and copy are CPU/memory-bound, so GOMAXPROCS is the natural cap, and
// a host may change it after this package is initialised.
var DefaultTraceWorkers = 0

// poolWidth resolves a worker count: the caller's choice, else the
// package-level override, else GOMAXPROCS now.
func poolWidth(workers, override int) int {
	if workers <= 0 {
		workers = override
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return workers
}

const (
	// markChunk is the unit of gray work that moves between workers.
	markChunk = 256
	// minWordsPerWorker is the copy/fixup share below which a second
	// goroutine does not pay: measured on two cores, 49k words each
	// (gc.destroy) took as long shared as inline, 228k words each
	// (a 470k-word ballast heap) 20 to 35 % less. No benchmark
	// workload reaches the split side today; TestShareTree's
	// split-copy case checks it, but does not time it.
	minWordsPerWorker = 1 << 16
)

// CopySpace describes one moving collection to the engine: the memory
// and descriptor table the objects live in, the span being evacuated,
// and where the survivors go.
//
// It also carries the engine's scratch — gray stack, copy plan, the
// marker's hand-off state — so a collector that keeps one CopySpace and
// only re-aims its spans each cycle collects without allocating. A
// CopySpace must not be copied once a collection has used it.
type CopySpace struct {
	// Mem is the machine memory the spaces live in.
	Mem []int64
	// Descs is the descriptor table object headers index: the engine
	// reads every size and pointer slot from it.
	Descs *types.DescTable
	// SpanLo/SpanHi bound the from-space: every object the collection
	// moves lies in [SpanLo, SpanHi), and the mark bitmap covers it.
	// The span may be wider than where objects are (up to a concurrent
	// cycle's allocation limit) as long as no pointer value falls in
	// the slack, and it may contain the copy target, which InFrom
	// excludes.
	SpanLo, SpanHi int64
	// ToBase is the first free to-space address.
	ToBase int64
	// ToLimit, when nonzero, bounds the to-space: if the survivors'
	// total footprint would run past it, the collection aborts with an
	// error before the copy phase touches memory, and InFrom excludes
	// [ToBase, ToLimit). The semispace collector leaves it zero (from-
	// and to-space are disjoint and the same size), but the
	// generational heap funnels nursery + old survivors into one old
	// semispace, which a large enough live set can overflow and which a
	// major's span contains after a flip.
	ToLimit int64
	// Marks is the set of live objects, covering [SpanLo, SpanHi):
	// TraceCopy fills it (and allocates one when nil — pass a recycled
	// set already Reset to the span to avoid that), FinishCopy reads it.
	Marks *heap.MarkSet
	// Check, when non-nil, validates every traced pointer value
	// (roots and fields); a non-nil return aborts the collection.
	// Non-from-space values that pass Check are simply not traced.
	Check func(v int64) error

	mark   marker
	gray   markWorker // the calling goroutine's; helpers bring their own
	plan   copyPlan
	fixErr atomic.Pointer[error]
}

// InFrom is the engine's from-set rule: v is an object this collection
// moves when SpanLo <= v < SpanHi and v lies outside the copy target
// [ToBase, ToLimit). It is pure address arithmetic, so it holds in
// fixup too, after from-space headers have become forwarding words;
// and a root slot already patched to its to-space copy reads as
// not-from, which keeps root fixup idempotent where the target lies
// inside the span.
func (sp *CopySpace) InFrom(v int64) bool {
	return v >= sp.SpanLo && v < sp.SpanHi && (v < sp.ToBase || v >= sp.ToLimit)
}

// TraceStats reports what one engine run did, phase by phase.
type TraceStats struct {
	Objects int64 // live objects marked and copied
	Words   int64 // words copied
	Next    int64 // next free to-space address after the copy
	Steals  int64 // gray chunks workers took from the shared pool during mark

	Mark, Assign, Copy, Fixup time.Duration
}

// TraceCopy runs one deterministic collection: everything reachable
// from the given root slots is marked, assigned a canonical to-space
// address, copied, and patched. roots are the addresses of the root
// slots themselves (duplicates and aliases are fine — marking claims
// each object once and root fixup is idempotent). workers <= 0 means
// the default width (DefaultTraceWorkers); 1 runs every phase inline on
// the caller's goroutine, and so does any width when the heap offers
// too little work to share. The resulting heap image is bitwise
// identical at any width.
func TraceCopy(roots []*int64, sp *CopySpace, workers int) (TraceStats, error) {
	var st TraceStats
	workers = poolWidth(workers, DefaultTraceWorkers)
	if sp.Marks == nil {
		sp.Marks = heap.NewMarkSet(sp.SpanLo, sp.SpanHi)
	}

	t0 := time.Now()
	steals, err := markPhase(roots, sp, workers)
	st.Mark = time.Since(t0)
	st.Steals = steals
	if err != nil {
		return st, err
	}

	fin, err := FinishCopy(roots, sp, workers)
	st.Objects, st.Words, st.Next = fin.Objects, fin.Words, fin.Next
	st.Assign, st.Copy, st.Fixup = fin.Assign, fin.Copy, fin.Fixup
	return st, err
}

// FinishCopy runs the deterministic tail of a collection — assign,
// copy, fixup — over the marked set in sp.Marks. TraceCopy calls it
// after its own mark phase; the concurrent collectors call it directly
// at the final pause, with the set claimed incrementally while mutators
// ran. Mark/Steals in the returned stats are zero.
func FinishCopy(roots []*int64, sp *CopySpace, workers int) (TraceStats, error) {
	var st TraceStats
	workers = poolWidth(workers, DefaultTraceWorkers)

	t0 := time.Now()
	plan := assignPhase(sp)
	st.Assign = time.Since(t0)
	st.Objects = int64(len(plan.from))
	st.Words = plan.total
	st.Next = sp.ToBase + plan.total
	if sp.ToLimit != 0 && st.Next > sp.ToLimit {
		return st, fmt.Errorf("gc: %d live words overflow the %d-word copy target (heap too small for the live set)",
			plan.total, sp.ToLimit-sp.ToBase)
	}

	t0 = time.Now()
	runChunks(sp, workers, (*CopySpace).copyRange)
	st.Copy = time.Since(t0)

	t0 = time.Now()
	err := fixupPhase(roots, sp, workers)
	st.Fixup = time.Since(t0)
	return st, err
}

// fixupPhase translates the pointer fields of every to-space copy, then
// the root slots, through the forwarding words the copy phase left.
func fixupPhase(roots []*int64, sp *CopySpace, workers int) error {
	sp.fixErr.Store(nil)
	runChunks(sp, workers, (*CopySpace).fixupRange)
	// Root slots may alias (the same callee-save slot reconstructed
	// into several frames), so patch them serially; the translation is
	// idempotent because a patched slot no longer holds a from-space
	// address.
	for _, p := range roots {
		if v := *p; v != 0 && sp.InFrom(v) {
			*p = -sp.Mem[v] - 1
		}
	}
	if e := sp.fixErr.Load(); e != nil {
		return *e
	}
	return nil
}

// copyRange evacuates plan entries [lo, hi): each object's words move
// to its assigned address and its old header becomes the forwarding
// word -(to+1).
func (sp *CopySpace) copyRange(_ *markWorker, lo, hi int) {
	plan, mem := &sp.plan, sp.Mem
	for i := lo; i < hi; i++ {
		from, to, size := plan.from[i], plan.to[i], plan.size[i]
		copy(mem[to:to+size], mem[from:from+size])
		mem[from] = -(to + 1)
	}
}

// fixupRange translates the pointer fields of the to-space copies of
// plan entries [lo, hi) through the forwarding words.
func (sp *CopySpace) fixupRange(w *markWorker, lo, hi int) {
	plan, mem := &sp.plan, sp.Mem
	offs := w.offs
	defer func() { w.offs = offs }()
	for i := lo; i < hi; i++ {
		to := plan.to[i]
		offs = sp.Descs.PointerOffsets(mem, to, offs[:0])
		for _, off := range offs {
			v := mem[to+off]
			if v == 0 || !sp.InFrom(v) {
				continue
			}
			hd := mem[v]
			if hd >= 0 {
				// Reachable from a marked object yet never marked:
				// an engine invariant violation, not a user error.
				err := fmt.Errorf("gc: object %d reachable from %d was not marked", v, plan.from[i])
				sp.fixErr.Store(&err)
				return
			}
			mem[to+off] = -hd - 1
		}
	}
}

// copyPlan is the assign phase's output: the canonical evacuation
// schedule, in ascending from-space address order.
type copyPlan struct {
	from  []int64
	size  []int64
	to    []int64
	total int64
}

// assignPhase reads the marked set back in allocation (ascending
// address) order and lays survivors out contiguously from ToBase by
// prefix sums of their sizes. This is the determinism keystone: the
// layout depends only on the marked set.
func assignPhase(sp *CopySpace) *copyPlan {
	n := sp.Marks.Len()
	// Three words per survivor is the engine's one large buffer; it is
	// kept across collections because fresh pages cost more than
	// filling them.
	plan := &sp.plan
	if cap(plan.from) < n {
		plan.from, plan.size, plan.to = make([]int64, 0, n), make([]int64, n), make([]int64, n)
	}
	plan.from = sp.Marks.AppendTo(plan.from[:0])
	plan.size, plan.to, plan.total = plan.size[:n], plan.to[:n], 0
	for i, a := range plan.from {
		s := sp.Descs.SizeAt(sp.Mem, a)
		plan.size[i] = s
		plan.to[i] = sp.ToBase + plan.total
		plan.total += s
	}
	return plan
}

// runChunks partitions the plan into at most `workers` contiguous
// index ranges balanced by copied words, each at least
// minWordsPerWorker, and runs fn over them — inline when that leaves
// one, which then works in the space's recycled scratch. The partition
// is a pure function of the plan, but fn must be order-independent
// anyway: chunks run concurrently.
func runChunks(sp *CopySpace, workers int, fn func(sp *CopySpace, w *markWorker, lo, hi int)) {
	plan := &sp.plan
	n := len(plan.from)
	if n == 0 {
		return
	}
	if most := int(plan.total / minWordsPerWorker); workers > most {
		workers = most
	}
	if workers <= 1 {
		fn(sp, &sp.gray, 0, n)
		return
	}
	target := (plan.total + int64(workers) - 1) / int64(workers)
	var wg sync.WaitGroup
	lo, acc := 0, int64(0)
	for i := 0; i < n; i++ {
		acc += plan.size[i]
		if acc >= target || i == n-1 {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fn(sp, new(markWorker), lo, hi)
			}(lo, i+1)
			lo, acc = i+1, 0
		}
	}
	wg.Wait()
}

// marker is one mark phase in flight. Workers keep their gray objects
// in private stacks; the fields under mu are the one place work changes
// hands — whole chunks — and a worker touches them only when it has
// surplus to give or nothing left to do.
type marker struct {
	sp      *CopySpace
	workers int
	helpers sync.WaitGroup

	mu     sync.Mutex
	wake   sync.Cond // on mu: a chunk arrived, or marking is over
	chunks [][]int64
	n      atomic.Int32 // len(chunks), for publishers to poll without mu
	idle   int          // workers blocked in take
	taken  int64
	err    error // first Check failure any worker reported
}

// markWorker is one worker's private scratch: its gray stack and the
// buffer it reads an object's pointer offsets into (fixup chunks use
// the latter too).
type markWorker struct {
	stack, offs []int64
}

// publish moves the oldest markChunk entries of stack (the ones nearest
// the roots, so likeliest to head large subgraphs) into the pool and
// returns the shortened stack. The chunk is a copy — it must not alias
// a stack its owner keeps appending to — and the youngest entries fill
// the hole, so the cost does not grow with the stack's depth.
func (e *marker) publish(stack []int64) []int64 {
	c := make([]int64, markChunk)
	copy(c, stack)
	n := len(stack) - markChunk
	copy(stack, stack[n:])
	e.mu.Lock()
	e.chunks = append(e.chunks, c)
	e.n.Store(int32(len(e.chunks)))
	e.mu.Unlock()
	e.wake.Signal()
	return stack[:n]
}

// take blocks until it can return a chunk, or returns nil once every
// worker is idle with the pool empty: no gray object is left anywhere,
// since only a working participant can create one.
func (e *marker) take() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.idle++
	for len(e.chunks) == 0 {
		if e.idle == e.workers {
			e.wake.Broadcast()
			return nil
		}
		e.wake.Wait()
	}
	e.idle--
	last := len(e.chunks) - 1
	c := e.chunks[last]
	e.chunks = e.chunks[:last]
	e.n.Store(int32(last))
	e.taken++
	return c
}

func (e *marker) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// run drains one worker's private gray stack. The caller of markPhase
// enters with shared false: it alone is marking, claims need no
// atomics, and an empty stack means done. The first time its stack
// outgrows two chunks (and the width allows) it publishes one, starts
// the helpers and becomes a participant like them: atomic claims, a
// chunk to the pool whenever it has surplus and the pool is empty, and
// an empty stack means wait for a chunk or for everyone to be idle.
func (e *marker) run(w *markWorker, shared bool) {
	sp, marks := e.sp, e.sp.Marks
	stack, offs := w.stack, w.offs
	defer func() { w.stack, w.offs = stack[:0], offs }()
	for {
		if len(stack) == 0 {
			if !shared {
				return
			}
			c := e.take()
			if c == nil {
				return
			}
			stack = append(stack, c...)
		}
		if len(stack) > 2*markChunk && e.workers > 1 && e.n.Load() == 0 {
			stack = e.publish(stack)
			if !shared {
				shared = true
				e.helpers.Add(e.workers - 1)
				for i := 1; i < e.workers; i++ {
					go func() {
						defer e.helpers.Done()
						e.run(new(markWorker), true)
					}()
				}
			}
		}
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		offs = sp.Descs.PointerOffsets(sp.Mem, a, offs[:0])
		for _, off := range offs {
			v := sp.Mem[a+off]
			if v == 0 {
				continue
			}
			if sp.Check != nil {
				if err := sp.Check(v); err != nil {
					e.fail(err)
					continue
				}
			}
			if !sp.InFrom(v) {
				continue
			}
			claimed := false
			if shared {
				claimed = marks.Claim(v)
			} else {
				claimed = marks.ClaimSerial(v)
			}
			if claimed {
				stack = append(stack, v)
			}
		}
	}
}

// markPhase computes the live set into sp.Marks and returns the number
// of chunks that changed hands. Roots are claimed serially, so a bad
// root is reported deterministically.
func markPhase(roots []*int64, sp *CopySpace, workers int) (int64, error) {
	e := &sp.mark
	e.sp, e.workers, e.wake.L = sp, workers, &e.mu
	e.chunks, e.idle, e.taken, e.err = e.chunks[:0], 0, 0, nil
	e.n.Store(0)
	w := &sp.gray
	w.stack = w.stack[:0]
	for _, p := range roots {
		v := *p
		if v == 0 {
			continue
		}
		if sp.Check != nil {
			if err := sp.Check(v); err != nil {
				return 0, err
			}
		}
		if sp.InFrom(v) && sp.Marks.ClaimSerial(v) {
			w.stack = append(w.stack, v)
		}
	}
	e.run(w, false)
	e.helpers.Wait()
	return e.taken, e.err
}
