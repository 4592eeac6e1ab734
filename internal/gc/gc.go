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

// Collector is the precise compacting collector. A pause walks every
// live thread's stack serially, one outward sweep per thread (Walk),
// and hands the roots to the trace-copy engine, which runs on a pool
// of TraceWorkers.
type Collector struct {
	Heap  *heap.Heap
	Dec   gctab.TableDecoder
	Mode  Mode
	Debug bool // verify roots and heap invariants

	// TraceWorkers bounds the collection worker pool that marks,
	// copies, and patches the heap (trace.go): 0 = GOMAXPROCS at the
	// time of the collection, unless DefaultTraceWorkers overrides it; 1
	// = serial. Placement is canonical (allocation-order assignment), so
	// the resulting heap is bitwise identical at any width.
	TraceWorkers int

	// Statistics (the walk, stall and concurrent-cycle ones are the
	// embedded Cycle's).
	Collections   int64
	WordsCopied   int64
	ObjectsCopied int64
	Steals        int64 // gray chunks taken from the mark pool
	MarkTime      time.Duration
	AssignTime    time.Duration
	CopyTime      time.Duration
	FixupTime     time.Duration

	// Cycle is the mostly-concurrent mark cycle (concurrent.go): its
	// Concurrent and MarkBudget switch and size it.
	Cycle

	// Per-collector state recycled across collections, so a collection
	// in steady state allocates nothing: the stack-walk arena, the
	// engine's description of this heap (with the engine's own scratch),
	// and the mark bitmap.
	walk  Walk
	space CopySpace
	marks heap.MarkSet

	// probe receives per-cycle events and metrics when a tracer is
	// attached (SetTracer); every probe is guarded by a nil check, so a
	// collector without telemetry pays one branch and zero allocations.
	probe        Probes
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
	c.Dec.SetTracer(t)
	c.probe.Bind(t)
	c.gLiveObjects, c.gCollections = nil, nil
	if t != nil {
		c.gLiveObjects = t.Gauge(telemetry.GaugeHeapLiveObjects)
		c.gCollections = t.Gauge(telemetry.GaugeHeapCollections)
	}
}

// Probes are a precise collector's telemetry handles: Tel, and the
// metrics both collectors and their Cycle report, resolved once per
// tracer so a collection's probes are map-free. Without a tracer every
// handle is nil and each probe is a no-op.
type Probes struct {
	Tel                                                               *telemetry.Tracer
	Collections, Frames, Copied, Objects, Steals, Adjusted, Rederived *telemetry.Counter
	Pause, Walk, Mark, Assign, Copy, Fixup, ConcMark, Final           *telemetry.Histogram
	AllocBytes, LiveBytes                                             *telemetry.Gauge
}

// Bind resolves the handles against t; nil detaches them all.
func (p *Probes) Bind(t *telemetry.Tracer) {
	if t == nil {
		*p = Probes{}
		return
	}
	*p = Probes{
		Tel:         t,
		Collections: t.Counter(telemetry.CtrGCCollections),
		Frames:      t.Counter(telemetry.CtrGCFramesWalked),
		Copied:      t.Counter(telemetry.CtrGCBytesCopied),
		Objects:     t.Counter(telemetry.CtrGCObjectsCopied),
		Steals:      t.Counter(telemetry.CtrGCMarkSteals),
		Adjusted:    t.Counter(telemetry.CtrGCDerivedAdjusted),
		Rederived:   t.Counter(telemetry.CtrGCDerivedRederive),
		Pause:       t.Histogram(telemetry.HistGCPauseNs),
		Walk:        t.Histogram(telemetry.HistGCStackWalkNs),
		Mark:        t.Histogram(telemetry.HistGCMarkNs),
		Assign:      t.Histogram(telemetry.HistGCAssignNs),
		Copy:        t.Histogram(telemetry.HistGCCopyNs),
		Fixup:       t.Histogram(telemetry.HistGCFixupNs),
		ConcMark:    t.Histogram(telemetry.HistGCConcMarkNs),
		Final:       t.Histogram(telemetry.HistGCFinalPauseNs),
		AllocBytes:  t.Gauge(telemetry.GaugeHeapAllocBytes),
		LiveBytes:   t.Gauge(telemetry.GaugeHeapLiveBytes),
	}
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
// call runs the whole split cycle back-to-back (Cycle.Inline) — the
// single-threaded inline path, bitwise identical to stop-the-world; the
// multi-threaded scheduler instead drives StartCycle/MarkStep/
// FinishCycle itself and never calls Collect.
func (c *Collector) Collect(m *vmachine.Machine) error {
	if done, err := c.Inline(m, c); done {
		return err
	}
	collected := false
	defer c.EndStall(time.Now(), &collected, c.Mode == ModeFull)
	if c.Mode == ModeNull {
		return nil
	}
	c.Collections++

	p := &c.probe
	tid := curThread(m)
	var telStart int64
	if p.Tel != nil {
		telStart = p.Tel.Now()
		p.Tel.Emit(telemetry.EvGCBegin, tid, gcKind(c.Mode),
			c.Heap.LiveBytes(), c.Heap.AllocatedBytes(), c.Heap.Collections)
	}

	walkTime, err := c.WalkStacks(m, &c.walk, c.Dec, true)
	if err != nil {
		return err
	}

	var st TraceStats
	if c.Mode == ModeFull {
		if st, err = c.copyLive(m); err != nil {
			return err
		}
	}
	c.walk.RederiveAll()

	if p.Tel != nil {
		nFrames, nDeriv := int64(c.walk.NumFrames()), int64(c.walk.NumDerivs())
		copiedBytes := st.Words * heap.WordBytes
		p.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), nFrames, 0, 0)
		p.Tel.Emit(telemetry.EvGCEnd, tid, copiedBytes, nFrames, nDeriv, nDeriv)
		p.Collections.Add(1)
		p.Frames.Add(nFrames)
		p.Copied.Add(copiedBytes)
		p.Objects.Add(st.Objects)
		p.Steals.Add(st.Steals)
		p.Adjusted.Add(nDeriv)
		p.Rederived.Add(nDeriv)
		p.Walk.Observe(int64(walkTime))
		if c.Mode == ModeFull {
			p.Mark.Observe(int64(st.Mark))
			p.Assign.Observe(int64(st.Assign))
			p.Copy.Observe(int64(st.Copy))
			p.Fixup.Observe(int64(st.Fixup))
		}
		pause := p.Tel.Now() - telStart
		p.Pause.Observe(pause)
		if c.Mode == ModeFull {
			// A stop-the-world collection's "final pause" is the whole
			// pause, so concurrent-vs-STW SLO comparisons read one
			// histogram.
			p.Final.Observe(pause)
		}
		p.AllocBytes.Set(c.Heap.AllocatedBytes())
		p.LiveBytes.Set(c.Heap.LiveBytes())
		c.gLiveObjects.Set(c.Heap.LiveObjects)
		c.gCollections.Set(c.Heap.Collections)
	}
	collected = true
	return nil
}

// ShouldStartCycle implements vmachine.ConcurrentCollector: only full
// compacting collections run concurrently (the trace-only and null
// timing modes have no mark set to build incrementally).
func (c *Collector) ShouldStartCycle() bool {
	return c.Concurrent && c.Mode == ModeFull
}

// StartCycle implements vmachine.ConcurrentCollector: the initial
// root-scan pause (Cycle.Start).
func (c *Collector) StartCycle(m *vmachine.Machine) error { return c.Start(m, c) }

// FinishCycle implements vmachine.ConcurrentCollector: the final pause
// (Cycle.Finish).
func (c *Collector) FinishCycle(m *vmachine.Machine) error { return c.Finish(m, c) }

// CycleEnv implements CycleHost: a cycle marks the whole from-space
// quota, past the allocation watermark (black allocations during the
// cycle claim addresses there), from the walked stacks alone.
func (c *Collector) CycleEnv() CycleEnv {
	h := c.Heap
	return CycleEnv{
		Walk: &c.walk, Dec: c.Dec, TraceWorkers: c.TraceWorkers,
		Space: c.copySpace(h.FromLo, h.Limit),
		Heap:  h, Kind: telemetry.GCFull, Count: h.Collections, Probes: &c.probe,
	}
}

// CycleTail implements CycleHost: copy the marked set into to-space and
// flip the semispaces.
func (c *Collector) CycleTail(_ *vmachine.Machine, roots []*int64) (TraceStats, error) {
	h := c.Heap
	st, err := FinishCopy(roots, &c.space, c.TraceWorkers)
	if err != nil {
		return st, err
	}
	c.Collections++
	c.WordsCopied += st.Words
	c.ObjectsCopied += st.Objects
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
	c.gLiveObjects.Set(h.LiveObjects)
	c.gCollections.Set(h.Collections)
	return st, nil
}

// copySpace aims the collector's CopySpace at the from-space span
// [lo, hi) and the current copy space.
func (c *Collector) copySpace(lo, hi int64) *CopySpace {
	h, sp := c.Heap, &c.space
	sp.Mem, sp.Descs = h.Mem, h.Descs
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
