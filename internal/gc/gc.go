// Package gc implements the paper's precise, fully compacting copying
// collector. It locates every root in globals, thread stacks, and
// registers using the compiler-emitted tables, reconstructs register
// contents of suspended frames from callee-save maps, and updates
// derived values with the two-phase adjust/re-derive protocol of §3:
//
//	phase 1 (before moving), callee frames first, derived values
//	before their bases:     E = a − Σ sign·base
//	phase 2 (after moving), exactly the reverse order:
//	                        a = E + Σ sign·base′
//
// The frame-walking, register-reconstruction, and derived-value pieces
// are exported (walk.go) and shared with the generational collector.
package gc

import (
	"fmt"
	"time"

	"repro/internal/gctab"
	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// Mode selects what Collect does (the §6.3 timing methodology: one run
// with collection being a stack trace, one with a null call).
type Mode int

// Collection modes.
const (
	ModeFull      Mode = iota // trace, copy, compact
	ModeTraceOnly             // walk stacks and decode tables only
	ModeNull                  // do nothing (timing baseline)
)

// Collector is the precise compacting collector.
type Collector struct {
	Heap  *heap.Heap
	Dec   gctab.TableDecoder
	Mode  Mode
	Debug bool // verify roots and heap invariants

	// WalkWorkers bounds the stack-walk worker pool (0 = GOMAXPROCS at
	// the time of the walk, unless DefaultWalkWorkers overrides it; 1 =
	// serial). The walk result is deterministic at any width.
	WalkWorkers int

	// TraceWorkers bounds the collection worker pool that marks,
	// copies, and patches the heap (trace.go): 0 = GOMAXPROCS at the
	// time of the collection, unless DefaultTraceWorkers overrides it; 1
	// = serial. Placement is canonical (allocation-order assignment), so
	// the resulting heap is bitwise identical at any width.
	TraceWorkers int

	// Concurrent enables mostly-concurrent marking (concurrent.go):
	// collections split into an initial root-scan pause, incremental
	// mark bursts interleaved with mutator execution, and a short final
	// pause that runs only assign/copy/fixup. Requires barriered stores
	// in the program (codegen Options.Generational or Options.Barriers).
	Concurrent bool
	// MarkBudget bounds the gray objects scanned per mark burst
	// (0 = DefaultMarkBudget). Smaller budgets mean shorter bursts and
	// more of them.
	MarkBudget int

	// Statistics.
	Collections    int64
	FramesTraced   int64
	StackTraceTime time.Duration
	TotalTime      time.Duration
	WordsCopied    int64
	ObjectsCopied  int64
	Steals         int64 // gray chunks taken from the mark pool
	MarkTime       time.Duration
	AssignTime     time.Duration
	CopyTime       time.Duration
	FixupTime      time.Duration
	// Concurrent-mode statistics.
	Cycles         int64 // completed concurrent cycles
	SATBLogged     int64 // old values the write barrier claimed
	ConcMarkTime   time.Duration
	FinalPauseTime time.Duration

	// Pauses and FinalPauses, when non-nil, observe the stalls the
	// collector already times for TotalTime, ConcMarkTime and
	// FinalPauseTime, so observing adds no clock read: Pauses sees every
	// mutator stall (a whole stop-the-world collection, an initial pause,
	// each mark burst, a final pause), FinalPauses the stop a full
	// collection ends with — all of a stop-the-world one. A host that
	// wants a pause distribution per machine without a tracer per machine
	// (gcserve) owns the histograms and points the collector at them.
	Pauses, FinalPauses *telemetry.Histogram

	// cyc is the in-flight concurrent cycle, nil outside one; cycle is
	// its recycled storage.
	cyc   *concCycle
	cycle concCycle

	// Per-collector state recycled across collections, so a collection
	// in steady state allocates nothing: the stack-walk arena, the
	// engine's description of this heap (with the engine's own scratch),
	// and the mark bitmap.
	walk  Walk
	space CopySpace
	marks heap.MarkSet

	// Tel, when non-nil, receives per-cycle events and metrics; every
	// probe below is guarded by a nil check so a collector without
	// telemetry pays one branch and zero allocations.
	Tel *telemetry.Tracer

	mCollections *telemetry.Counter
	mFrames      *telemetry.Counter
	mCopied      *telemetry.Counter
	mObjects     *telemetry.Counter
	mSteals      *telemetry.Counter
	mAdjusted    *telemetry.Counter
	mRederived   *telemetry.Counter
	hPause       *telemetry.Histogram
	hWalk        *telemetry.Histogram
	hMark        *telemetry.Histogram
	hAssign      *telemetry.Histogram
	hCopy        *telemetry.Histogram
	hFixup       *telemetry.Histogram
	hConcMark    *telemetry.Histogram
	hFinal       *telemetry.Histogram
	gAllocBytes  *telemetry.Gauge
	gLiveBytes   *telemetry.Gauge
	gLiveObjects *telemetry.Gauge
	gCollections *telemetry.Gauge
}

// New creates a collector over h using the encoded tables, decoded on
// every lookup (the paper's §6.3 cost model). NewWith picks the
// decoder.
func New(h *heap.Heap, enc *gctab.Encoded) *Collector {
	return NewWith(h, gctab.NewDecoder(enc))
}

// NewWith creates a collector over h walking stacks through dec —
// typically a gctab.CachedDecoder when amortizing decode cost, or a
// plain gctab.Decoder to reproduce the paper's numbers.
func NewWith(h *heap.Heap, dec gctab.TableDecoder) *Collector {
	return &Collector{Heap: h, Dec: dec}
}

// SetTracer attaches telemetry to the collector and its table decoder,
// resolving the metric handles once so cycle probes are map-free.
func (c *Collector) SetTracer(t *telemetry.Tracer) {
	c.Tel = t
	c.Dec.SetTracer(t)
	if t == nil {
		c.mCollections, c.mFrames, c.mCopied, c.mAdjusted, c.mRederived = nil, nil, nil, nil, nil
		c.mObjects, c.mSteals = nil, nil
		c.hPause, c.hWalk = nil, nil
		c.hMark, c.hAssign, c.hCopy, c.hFixup = nil, nil, nil, nil
		c.hConcMark, c.hFinal = nil, nil
		c.gAllocBytes, c.gLiveBytes, c.gLiveObjects, c.gCollections = nil, nil, nil, nil
		return
	}
	c.mCollections = t.Counter(telemetry.CtrGCCollections)
	c.mFrames = t.Counter(telemetry.CtrGCFramesWalked)
	c.mCopied = t.Counter(telemetry.CtrGCBytesCopied)
	c.mObjects = t.Counter(telemetry.CtrGCObjectsCopied)
	c.mSteals = t.Counter(telemetry.CtrGCMarkSteals)
	c.mAdjusted = t.Counter(telemetry.CtrGCDerivedAdjusted)
	c.mRederived = t.Counter(telemetry.CtrGCDerivedRederive)
	c.hPause = t.Histogram(telemetry.HistGCPauseNs)
	c.hWalk = t.Histogram(telemetry.HistGCStackWalkNs)
	c.hMark = t.Histogram(telemetry.HistGCMarkNs)
	c.hAssign = t.Histogram(telemetry.HistGCAssignNs)
	c.hCopy = t.Histogram(telemetry.HistGCCopyNs)
	c.hFixup = t.Histogram(telemetry.HistGCFixupNs)
	c.hConcMark = t.Histogram(telemetry.HistGCConcMarkNs)
	c.hFinal = t.Histogram(telemetry.HistGCFinalPauseNs)
	c.gAllocBytes = t.Gauge(telemetry.GaugeHeapAllocBytes)
	c.gLiveBytes = t.Gauge(telemetry.GaugeHeapLiveBytes)
	c.gLiveObjects = t.Gauge(telemetry.GaugeHeapLiveObjects)
	c.gCollections = t.Gauge(telemetry.GaugeHeapCollections)
}

// gcKind maps a collection mode to its telemetry cycle kind.
func gcKind(mode Mode) int64 {
	switch mode {
	case ModeTraceOnly:
		return telemetry.GCTraceOnly
	case ModeNull:
		return telemetry.GCNull
	}
	return telemetry.GCFull
}

// curThread identifies the thread a collection runs on behalf of.
func curThread(m *vmachine.Machine) int32 {
	if m.Cur != nil {
		return int32(m.Cur.ID)
	}
	return -1
}

// Collect implements vmachine.Collector. With Concurrent set, a direct
// call runs the whole split cycle back-to-back (collectSplit) — the
// single-threaded inline path, bitwise identical to stop-the-world; the
// multi-threaded scheduler instead drives StartCycle/MarkStep/
// FinishCycle itself and never calls Collect.
func (c *Collector) Collect(m *vmachine.Machine) error {
	if c.cyc != nil {
		// A direct Collect landed while a cycle is in flight (an
		// external caller; the machine's own paths finish the cycle
		// first): drain and finish it rather than starting another.
		return c.finishActive(m)
	}
	if c.ShouldStartCycle() {
		return c.collectSplit(m)
	}
	collected := false
	defer c.endStall(time.Now(), &collected, c.Mode == ModeFull)
	if c.Mode == ModeNull {
		return nil
	}
	c.Collections++

	tid := curThread(m)
	var telStart int64
	if c.Tel != nil {
		telStart = c.Tel.Now()
		c.Tel.Emit(telemetry.EvGCBegin, tid, gcKind(c.Mode),
			c.Heap.LiveBytes(), c.Heap.AllocatedBytes(), c.Heap.Collections)
	}

	traceStart := time.Now()
	if err := c.walk.Machine(m, c.Dec, c.WalkWorkers); err != nil {
		return err
	}
	nFrames := int64(c.walk.NumFrames())
	c.FramesTraced += nFrames
	if err := c.walk.AdjustDerived(m, c.TraceWorkers); err != nil {
		return err
	}
	walkTime := time.Since(traceStart)
	c.StackTraceTime += walkTime

	var st TraceStats
	if c.Mode == ModeFull {
		var err error
		if st, err = c.copyLive(m); err != nil {
			return err
		}
	}
	c.walk.RederiveAll(m, c.TraceWorkers)

	if c.Tel != nil {
		nDeriv := int64(c.walk.NumDerivs())
		copiedBytes := st.Words * heap.WordBytes
		c.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), nFrames, 0, 0)
		c.Tel.Emit(telemetry.EvGCEnd, tid, copiedBytes, nFrames, nDeriv, nDeriv)
		c.mCollections.Add(1)
		c.mFrames.Add(nFrames)
		c.mCopied.Add(copiedBytes)
		c.mObjects.Add(st.Objects)
		c.mSteals.Add(st.Steals)
		c.mAdjusted.Add(nDeriv)
		c.mRederived.Add(nDeriv)
		c.hWalk.Observe(int64(walkTime))
		if c.Mode == ModeFull {
			c.hMark.Observe(int64(st.Mark))
			c.hAssign.Observe(int64(st.Assign))
			c.hCopy.Observe(int64(st.Copy))
			c.hFixup.Observe(int64(st.Fixup))
		}
		pause := c.Tel.Now() - telStart
		c.hPause.Observe(pause)
		if c.Mode == ModeFull {
			// A stop-the-world collection's "final pause" is the whole
			// pause, so concurrent-vs-STW SLO comparisons read one
			// histogram.
			c.hFinal.Observe(pause)
		}
		c.gAllocBytes.Set(c.Heap.AllocatedBytes())
		c.gLiveBytes.Set(c.Heap.LiveBytes())
		c.gLiveObjects.Set(c.Heap.LiveObjects)
		c.gCollections.Set(c.Heap.Collections)
	}
	collected = true
	return nil
}

// endStall, deferred with the stall's start, accrues its duration to
// TotalTime and, if the stall ran to completion (*done), observes it.
func (c *Collector) endStall(start time.Time, done *bool, final bool) {
	d := time.Since(start)
	c.TotalTime += d
	if *done {
		c.observePause(d, final)
	}
}

// observePause records one completed stall of duration d in the host's
// histograms (nil histograms ignore it); final marks the stop that ends
// a full collection.
func (c *Collector) observePause(d time.Duration, final bool) {
	c.Pauses.Observe(int64(d))
	if final {
		c.FinalPauses.Observe(int64(d))
	}
}

// copySpace aims the collector's CopySpace at the from-space span
// [lo, hi) and the current copy space. The heap callbacks are bound
// once: a method value allocates each time it is taken.
func (c *Collector) copySpace(lo, hi int64) *CopySpace {
	h, sp := c.Heap, &c.space
	if sp.Mem == nil {
		sp.Mem = h.Mem
		sp.InFrom = h.Contains
		sp.SizeOf = h.SizeOf
		sp.PtrOffsets = h.PointerOffsets
		sp.Copy = h.CopyObjectSized
	}
	sp.SpanLo, sp.SpanHi = lo, hi
	sp.ToBase = h.BeginCollection()
	sp.Marks = &c.marks
	return sp
}

// copyLive evacuates every live object through the deterministic
// trace-copy engine (trace.go): parallel mark over the from-space,
// canonical allocation-order address assignment, range copy, pointer
// fixup. Identical at every TraceWorkers width.
func (c *Collector) copyLive(m *vmachine.Machine) (TraceStats, error) {
	h := c.Heap
	lo, hi := h.FromSpan()
	c.marks.Reset(lo, hi)
	sp := c.copySpace(lo, hi)
	sp.Check = nil
	if c.Debug {
		sp.Check = func(v int64) error {
			if !h.Contains(v) {
				return fmt.Errorf("gc: root %d outside the heap", v)
			}
			return nil
		}
	}
	st, err := TraceCopy(c.walk.Roots(m, nil), sp, c.TraceWorkers)
	if err != nil {
		return st, err
	}
	c.WordsCopied += st.Words
	c.ObjectsCopied += st.Objects
	c.Steals += st.Steals
	c.MarkTime += st.Mark
	c.AssignTime += st.Assign
	c.CopyTime += st.Copy
	c.FixupTime += st.Fixup
	h.AddCopied(st.Objects)
	h.FinishCollection(st.Next)
	if c.Debug {
		if err := h.Check(); err != nil {
			return st, err
		}
	}
	return st, nil
}
