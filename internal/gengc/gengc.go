// Package gengc implements the generational extension the paper points
// at: the "accurate scavenging scheme" of the UMass garbage collector
// toolkit [15], using the very same compiler-emitted tables. The heap
// is split into a nursery and an old space; compiler-emitted store
// checks (the §6.2 "store checks" that generational schemes perform,
// OpStB) record old→young pointer stores in a remembered set, so a
// minor collection scans only the nursery's roots:
//
//	minor: precise roots (tables) + remembered slots; every surviving
//	       young object is promoted into the old space, the nursery is
//	       reset, and the remembered set is cleared (full promotion —
//	       no young object survives a minor collection unpromoted).
//	major: a full semispace copy of everything live (old and young)
//	       when the old space fills.
//
// Derived values get the same two-phase adjust/re-derive treatment as
// in the full collector — minor collections move objects too.
package gengc

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vmachine"
)

// Heap is the two-generation heap. Region layout:
//
//	[Lo, nurseryEnd)                  nursery (bump)
//	[nurseryEnd, nurseryEnd+oldSemi)  old space A
//	[nurseryEnd+oldSemi, Hi)          old space B
type Heap struct {
	Mem   []int64
	Lo    int64
	Hi    int64
	Descs *types.DescTable

	nurseryEnd int64
	oldSemi    int64

	nurseryAlloc int64
	oldFrom      int64 // base of the current old space
	oldTo        int64 // base of the copy target old space
	oldAlloc     int64
	// pendingOld is set when a direct old-space allocation failed; the
	// next collection escalates to a major one to make room.
	pendingOld bool

	// Statistics.
	NurseryAllocated int64
	OldAllocated     int64
}

// NewHeap splits the region: an eighth for the nursery (nurseries are
// small — survivors are few and promotion must always fit in the old
// space), the rest into two old semispaces.
func NewHeap(mem []int64, lo, hi int64, descs *types.DescTable) *Heap {
	total := hi - lo
	nursery := total / 8
	oldSemi := (total - nursery) / 2
	h := &Heap{
		Mem: mem, Lo: lo, Hi: hi, Descs: descs,
		nurseryEnd: lo + nursery,
		oldSemi:    oldSemi,
	}
	h.nurseryAlloc = lo
	h.oldFrom = h.nurseryEnd
	h.oldTo = h.nurseryEnd + oldSemi
	h.oldAlloc = h.oldFrom
	return h
}

// InNursery reports whether addr is a young object address.
func (h *Heap) InNursery(addr int64) bool {
	return addr >= h.Lo && addr < h.nurseryAlloc
}

// InOld reports whether addr lies in the current old space.
func (h *Heap) InOld(addr int64) bool {
	return addr >= h.oldFrom && addr < h.oldAlloc
}

// Contains reports whether addr is a plausible live object address.
func (h *Heap) Contains(addr int64) bool {
	return h.InNursery(addr) || h.InOld(addr)
}

func (h *Heap) sizeFor(descID int, n int64) (int64, bool) {
	d := h.Descs.Get(descID)
	if d.Kind == types.DescOpenArray {
		if n < 0 {
			return 0, false
		}
		return 2 + n*d.ElemWords, true
	}
	return 1 + d.DataWords, true
}

// SizeOf returns the total word size of the object at addr.
func (h *Heap) SizeOf(addr int64) int64 {
	d := h.Descs.Get(int(h.Mem[addr]))
	if d.Kind == types.DescOpenArray {
		return 2 + h.Mem[addr+1]*d.ElemWords
	}
	return 1 + d.DataWords
}

// TryAlloc implements vmachine.Allocator: bump allocation in the
// nursery; objects larger than half the nursery go directly to the old
// space (pretenuring).
func (h *Heap) TryAlloc(descID int, n int64) (int64, bool) {
	size, ok := h.sizeFor(descID, n)
	if !ok {
		return 0, false
	}
	if size > (h.nurseryEnd-h.Lo)/2 {
		return h.allocOld(descID, n, size)
	}
	if h.nurseryAlloc+size > h.nurseryEnd {
		return 0, false
	}
	addr := h.nurseryAlloc
	h.nurseryAlloc += size
	h.NurseryAllocated += size
	h.initObject(addr, descID, n)
	return addr, true
}

func (h *Heap) allocOld(descID int, n, size int64) (int64, bool) {
	if h.oldAlloc+size > h.oldFrom+h.oldSemi {
		h.pendingOld = true
		return 0, false
	}
	addr := h.oldAlloc
	h.oldAlloc += size
	h.OldAllocated += size
	clear(h.Mem[addr : addr+size])
	h.initObject(addr, descID, n)
	return addr, true
}

func (h *Heap) initObject(addr int64, descID int, n int64) {
	h.Mem[addr] = int64(descID)
	if h.Descs.Get(descID).Kind == types.DescOpenArray {
		h.Mem[addr+1] = n
	}
}

// copyObjectSized is the range-copy primitive handed to the parallel
// trace-copy engine: workers own disjoint objects and destination
// ranges, so no shared state is touched.
func (h *Heap) copyObjectSized(addr, to, size int64) {
	copy(h.Mem[to:to+size], h.Mem[addr:addr+size])
	h.Mem[addr] = -(to + 1)
}

// resetNursery zeroes and empties the nursery after a collection.
func (h *Heap) resetNursery() {
	clear(h.Mem[h.Lo:h.nurseryAlloc])
	h.nurseryAlloc = h.Lo
}

// inFrom reports whether v is movable by a major collection: a young
// object, or one in the current old space.
func (h *Heap) inFrom(v int64) bool {
	return h.InNursery(v) || (v >= h.oldFrom && v < h.oldAlloc)
}

// PointerOffsets appends the pointer-field offsets of the object at
// addr.
func (h *Heap) PointerOffsets(addr int64, out []int64) []int64 {
	d := h.Descs.Get(int(h.Mem[addr]))
	switch d.Kind {
	case types.DescOpenArray:
		n := h.Mem[addr+1]
		for i := int64(0); i < n; i++ {
			base := 2 + i*d.ElemWords
			for _, off := range d.ElemPtrOffsets {
				out = append(out, base+off)
			}
		}
	default:
		for _, off := range d.PtrOffsets {
			out = append(out, 1+off)
		}
	}
	return out
}

// Collector is the generational collector. It implements
// vmachine.Collector; install its Barrier on the machine.
type Collector struct {
	Heap  *Heap
	Dec   gctab.TableDecoder
	Debug bool

	// WalkWorkers bounds the stack-walk worker pool (0 = the gc
	// package's default, 1 = serial).
	WalkWorkers int

	// TraceWorkers bounds the parallel trace-copy pool used by both
	// minor (promotion) and major (old-space copy) collections (0 = the
	// gc package's default, 1 = serial). Placement is canonical, so the
	// heap is bitwise identical at any width.
	TraceWorkers int

	remset map[int64]bool // old-space slot addresses holding young pointers

	// Per-collector state recycled across collections, so a minor in
	// steady state allocates nothing: the stack-walk arena, the sorted
	// remembered slots, the engine's descriptions of the two kinds of
	// collection (each with the engine's scratch), and the mark bitmap
	// they share.
	walk       gc.Walk
	slots      []int64
	minorSpace gc.CopySpace
	majorSpace gc.CopySpace
	marks      heap.MarkSet

	// Statistics (the walk, stall and concurrent-cycle ones are the
	// embedded Cycle's).
	Minor         int64
	Major         int64
	BarrierHits   int64 // barriered stores that recorded a remembered slot
	BarrierChecks int64 // barriered stores executed (the store-check cost)
	PromotedWords int64
	MajorCopied   int64
	ObjectsCopied int64
	Steals        int64
	RemsetPeak    int
	MarkTime      time.Duration
	AssignTime    time.Duration
	CopyTime      time.Duration
	FixupTime     time.Duration

	// Cycle runs concurrent majors (concurrent.go): with its Concurrent
	// set, the escalation that would run a stop-the-world major instead
	// starts an incremental mark with the SATB barrier armed, keeping
	// only the copy/flip in the final pause. Minor collections stay
	// stop-the-world — a nursery scan is already bounded by the (small)
	// nursery size.
	gc.Cycle

	// probe receives per-cycle events and metrics when a tracer is
	// attached. The barrier itself stays probe-free (it runs on every
	// barriered store); its cumulative counts are published as gauges
	// per cycle.
	probe      gc.Probes
	mMinor     *telemetry.Counter
	mMajor     *telemetry.Counter
	mPromoted  *telemetry.Counter
	gBarChecks *telemetry.Gauge
	gBarHits   *telemetry.Gauge
	gRemset    *telemetry.Gauge
}

// New creates a generational collector over h, decoding tables on
// every lookup; NewWith picks the decoder.
func New(h *Heap, enc *gctab.Encoded) *Collector {
	return NewWith(h, gctab.NewDecoder(enc))
}

// NewWith creates a generational collector over h walking stacks
// through dec (e.g. a shared gctab.CachedDecoder).
func NewWith(h *Heap, dec gctab.TableDecoder) *Collector {
	return &Collector{Heap: h, Dec: dec, remset: make(map[int64]bool)}
}

// SetTracer attaches telemetry to the collector and its table decoder.
func (c *Collector) SetTracer(t *telemetry.Tracer) {
	c.Dec.SetTracer(t)
	c.probe.Bind(t)
	c.mMinor, c.mMajor, c.mPromoted = nil, nil, nil
	c.gBarChecks, c.gBarHits, c.gRemset = nil, nil, nil
	if t == nil {
		return
	}
	c.mMinor = t.Counter(telemetry.CtrGenMinor)
	c.mMajor = t.Counter(telemetry.CtrGenMajor)
	c.mPromoted = t.Counter(telemetry.CtrGenPromotedBytes)
	c.gBarChecks = t.Gauge(telemetry.GaugeGenBarrierChecks)
	c.gBarHits = t.Gauge(telemetry.GaugeGenBarrierHits)
	c.gRemset = t.Gauge(telemetry.GaugeGenRemset)
}

// Barrier is the store check: record old-space slots that receive young
// pointers.
func (c *Collector) Barrier(slot, val int64) {
	c.BarrierChecks++
	if c.Heap.InNursery(val) && !c.Heap.InNursery(slot) && slot >= c.Heap.nurseryEnd && slot < c.Heap.Hi {
		c.remset[slot] = true
		c.BarrierHits++
	}
}

// RemsetSize reports how many old-space slots the remembered set
// currently tracks. It peaks between collections: a minor collection
// promotes every young survivor, so the set is cleared afterwards.
func (c *Collector) RemsetSize() int { return len(c.remset) }

// Collect implements vmachine.Collector: a minor collection, escalating
// to a major one when the old space cannot absorb the survivors. With
// Concurrent set, an escalation called directly runs the whole split
// major cycle back-to-back (gc.Cycle.Inline); the multi-threaded
// scheduler drives the split phases itself through the
// ConcurrentCollector protocol and never reaches this path for them.
func (c *Collector) Collect(m *vmachine.Machine) error {
	if done, err := c.Inline(m, c); done {
		return err
	}
	collected := false
	defer c.EndStall(time.Now(), &collected, true)
	c.noteRemset()

	h := c.Heap
	// Decided before the stack walk: the escalation test only reads
	// allocation state.
	escalate := h.mustEscalate()

	p := &c.probe
	var tid int32 = -1
	if m.Cur != nil {
		tid = int32(m.Cur.ID)
	}
	var telStart int64
	if p.Tel != nil {
		telStart = p.Tel.Now()
		kind := telemetry.GCMinor
		if escalate {
			kind = telemetry.GCMajor
		}
		p.Tel.Emit(telemetry.EvGCBegin, tid, kind,
			h.LiveBytes(), h.AllocatedBytes(), c.Minor+c.Major)
	}

	walkTime, err := c.WalkStacks(m, &c.walk, c.Dec, c.WalkWorkers, c.TraceWorkers, true)
	if err != nil {
		return err
	}

	promotedBefore, copiedBefore := c.PromotedWords, c.MajorCopied
	var st gc.TraceStats
	if escalate {
		h.pendingOld = false
		st, err = c.major(m)
	} else {
		st, err = c.minor(m)
	}
	if err != nil {
		return err
	}
	c.ObjectsCopied += st.Objects
	c.Steals += st.Steals
	c.MarkTime += st.Mark
	c.AssignTime += st.Assign
	c.CopyTime += st.Copy
	c.FixupTime += st.Fixup

	c.walk.RederiveAll(m, c.TraceWorkers)

	if p.Tel != nil {
		nFrames, nDeriv := int64(c.walk.NumFrames()), int64(c.walk.NumDerivs())
		movedBytes := (c.PromotedWords - promotedBefore + c.MajorCopied - copiedBefore) * heap.WordBytes
		p.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), nFrames, 0, 0)
		p.Tel.Emit(telemetry.EvGCEnd, tid, movedBytes, nFrames, nDeriv, nDeriv)
		p.Collections.Add(1)
		if escalate {
			c.mMajor.Add(1)
		} else {
			c.mMinor.Add(1)
			c.mPromoted.Add(movedBytes)
		}
		p.Frames.Add(nFrames)
		p.Copied.Add(movedBytes)
		p.Objects.Add(st.Objects)
		p.Steals.Add(st.Steals)
		p.Adjusted.Add(nDeriv)
		p.Rederived.Add(nDeriv)
		p.Walk.Observe(int64(walkTime))
		p.Mark.Observe(int64(st.Mark))
		p.Assign.Observe(int64(st.Assign))
		p.Copy.Observe(int64(st.Copy))
		p.Fixup.Observe(int64(st.Fixup))
		pause := p.Tel.Now() - telStart
		p.Pause.Observe(pause)
		// A stop-the-world collection's "final pause" is its whole
		// pause (see telemetry.HistGCFinalPauseNs).
		p.Final.Observe(pause)
		p.AllocBytes.Set(h.AllocatedBytes())
		p.LiveBytes.Set(h.LiveBytes())
		c.gBarChecks.Set(c.BarrierChecks)
		c.gBarHits.Set(c.BarrierHits)
	}
	collected = true
	return nil
}

// mustEscalate reports whether the next collection has to be a major:
// a minor promotes every young survivor, so the old space must be able
// to absorb the whole nursery; a failed direct old-space allocation
// also escalates.
func (h *Heap) mustEscalate() bool {
	return h.pendingOld || h.oldFrom+h.oldSemi-h.oldAlloc < h.nurseryAlloc-h.Lo
}

// noteRemset records the remembered set's size as a collection begins:
// its peak, and the gauge a tracer reads.
func (c *Collector) noteRemset() {
	if len(c.remset) > c.RemsetPeak {
		c.RemsetPeak = len(c.remset)
	}
	c.gRemset.Set(int64(len(c.remset)))
}

// remsetSlots returns the remembered old-space slots in address order,
// so a root list built from them (Walk.Roots) is deterministic.
func (c *Collector) remsetSlots() []int64 {
	c.slots = c.slots[:0]
	for slot := range c.remset {
		c.slots = append(c.slots, slot)
	}
	slices.Sort(c.slots)
	return c.slots
}

// bindSpace fills in the parts of a CopySpace that never change. Callers
// do it once per space (sp.Mem == nil): a method value allocates each
// time it is taken.
func (c *Collector) bindSpace(sp *gc.CopySpace, inFrom func(int64) bool) {
	h := c.Heap
	sp.Mem = h.Mem
	sp.InFrom = inFrom
	sp.SizeOf = h.SizeOf
	sp.PtrOffsets = h.PointerOffsets
	sp.Copy = h.copyObjectSized
}

// minor promotes all live young objects into the old space through the
// deterministic trace-copy engine: reachable nursery objects are
// marked from the precise roots and the remembered slots, assigned
// old-space addresses in nursery allocation order, then copied and
// patched by the worker pool. Old objects do not move; old→young
// references are covered by the remembered set (the store-barrier
// invariant), and every pointer into the nursery — remembered slot,
// stack root, or a field of a promoted copy — is forwarded in fixup.
func (c *Collector) minor(m *vmachine.Machine) (gc.TraceStats, error) {
	c.Minor++
	h := c.Heap
	sp := &c.minorSpace
	if sp.Mem == nil {
		c.bindSpace(sp, h.InNursery)
	}
	sp.SpanLo, sp.SpanHi = h.Lo, h.nurseryAlloc
	sp.ToBase, sp.ToLimit = h.oldAlloc, h.oldFrom+h.oldSemi
	c.marks.Reset(h.Lo, h.nurseryAlloc)
	sp.Marks = &c.marks
	st, err := gc.TraceCopy(c.walk.Roots(m, c.remsetSlots()), sp, c.TraceWorkers)
	if err != nil {
		return st, err
	}
	c.PromotedWords += st.Words
	h.oldAlloc = st.Next
	// Nothing young survives unpromoted: the remembered set is empty by
	// construction now.
	clear(c.remset)
	h.resetNursery()
	return st, nil
}

// majorCopySpace aims the major collection's CopySpace at the span
// [Lo, hi) of both generations and the other old semispace.
func (c *Collector) majorCopySpace(hi int64) *gc.CopySpace {
	h := c.Heap
	sp := &c.majorSpace
	if sp.Mem == nil {
		c.bindSpace(sp, h.inFrom)
	}
	sp.SpanLo, sp.SpanHi = h.Lo, hi
	sp.ToBase, sp.ToLimit = h.oldTo, h.oldTo+h.oldSemi
	sp.Marks = &c.marks
	return sp
}

// major copies everything live (young and old) into the other old
// semispace, again with canonical placement: survivors land in
// ascending from-address order (nursery objects first, then the old
// space in its allocation order).
func (c *Collector) major(m *vmachine.Machine) (gc.TraceStats, error) {
	c.Major++
	h := c.Heap
	c.marks.Reset(h.Lo, h.oldAlloc)
	sp := c.majorCopySpace(h.oldAlloc)
	sp.Check = nil
	if c.Debug {
		sp.Check = func(v int64) error {
			if !h.inFrom(v) {
				return fmt.Errorf("gengc: root %d outside the heap", v)
			}
			return nil
		}
	}
	st, err := gc.TraceCopy(c.walk.Roots(m, c.remsetSlots()), sp, c.TraceWorkers)
	if err != nil {
		return st, err
	}
	c.MajorCopied += st.Words
	c.finishMajor(st.Next)
	return st, nil
}

// finishMajor flips the old semispaces after a major's copy and empties
// the nursery and the remembered set. The set held old-FROM-space slot
// addresses, all of which just moved; stale entries must not survive
// the compaction. Clearing (rather than relocating) them is sound for
// the same reason it is after a minor collection: the nursery was reset
// too, so no old→young pointer exists anywhere — the set is rebuilt
// from scratch by the store barrier. The minor→major→minor regression
// test pins this.
func (c *Collector) finishMajor(copyEnd int64) {
	h := c.Heap
	h.oldFrom, h.oldTo = h.oldTo, h.oldFrom
	h.oldAlloc = copyEnd
	clear(h.Mem[h.oldTo : h.oldTo+h.oldSemi]) // the next major's copy target
	h.resetNursery()
	clear(c.remset)
}

// LiveOldWords reports the words in use in the old space.
func (h *Heap) LiveOldWords() int64 { return h.oldAlloc - h.oldFrom }

// LiveBytes returns the bytes currently held by nursery and old-space
// objects together.
func (h *Heap) LiveBytes() int64 {
	return (h.nurseryAlloc - h.Lo + h.LiveOldWords()) * heap.WordBytes
}

// AllocatedBytes returns the cumulative bytes ever allocated in either
// generation.
func (h *Heap) AllocatedBytes() int64 {
	return (h.NurseryAllocated + h.OldAllocated) * heap.WordBytes
}
