// Package conservative implements the baseline the paper contrasts
// with (§7, Boehm): a non-moving mark-sweep collector with ambiguous
// roots. Every word in the globals, every word of every live stack, and
// every register is treated as a potential pointer; any value that
// falls inside an allocated object (header or interior) keeps that
// object alive. Objects never move, so no compaction, no derived-value
// updates — and none of the compiler support the paper builds is
// needed. The cost is fragmentation and imprecision, which is exactly
// the trade-off the comparison benchmarks measure.
package conservative

import (
	"sort"
	"time"

	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vmachine"
)

// object tracks one allocation (host-side bookkeeping standing in for
// Boehm's block headers).
type object struct {
	addr int64
	size int64
	mark bool
}

// Heap is a free-list heap with mark-sweep collection. It implements
// both vmachine.Allocator and vmachine.Collector.
type Heap struct {
	Mem   []int64
	Lo    int64
	Hi    int64
	Descs *types.DescTable
	// MemOwner keeps Mem's backing alive while the heap is reachable
	// (vmachine.Machine.MemOwner); nil when Mem is an ordinary slice.
	MemOwner any

	objects []object // sorted by addr
	free    []span   // sorted by addr, coalesced

	Collections    int64
	MarkedObjects  int64
	AllocatedWords int64
	TotalTime      time.Duration

	// Tel, when non-nil, receives one begin/end event pair per
	// mark-sweep cycle plus cycle metrics.
	Tel *telemetry.Tracer

	mCollections *telemetry.Counter
	hPause       *telemetry.Histogram
	gAllocBytes  *telemetry.Gauge
	gLiveBytes   *telemetry.Gauge
	gLiveObjects *telemetry.Gauge
	gCollections *telemetry.Gauge
}

// SetTracer attaches telemetry to the conservative heap/collector.
// There is no table decoder here — ambiguous roots need no tables,
// which is exactly the contrast the paper draws.
func (h *Heap) SetTracer(t *telemetry.Tracer) {
	h.Tel = t
	if t == nil {
		h.mCollections, h.hPause = nil, nil
		h.gAllocBytes, h.gLiveBytes, h.gLiveObjects, h.gCollections = nil, nil, nil, nil
		return
	}
	h.mCollections = t.Counter(telemetry.CtrGCCollections)
	h.hPause = t.Histogram(telemetry.HistGCPauseNs)
	h.gAllocBytes = t.Gauge(telemetry.GaugeHeapAllocBytes)
	h.gLiveBytes = t.Gauge(telemetry.GaugeHeapLiveBytes)
	h.gLiveObjects = t.Gauge(telemetry.GaugeHeapLiveObjects)
	h.gCollections = t.Gauge(telemetry.GaugeHeapCollections)
}

// AllocatedBytes returns the cumulative bytes ever allocated.
func (h *Heap) AllocatedBytes() int64 { return h.AllocatedWords * heap.WordBytes }

// LiveBytes returns the bytes currently held by allocated objects.
func (h *Heap) LiveBytes() int64 { return h.LiveWords() * heap.WordBytes }

type span struct {
	addr int64
	size int64
}

// New creates a conservative heap over mem[lo:hi).
func New(mem []int64, lo, hi int64, descs *types.DescTable) *Heap {
	return &Heap{
		Mem: mem, Lo: lo, Hi: hi, Descs: descs,
		free: []span{{addr: lo, size: hi - lo}},
	}
}

// TryAlloc implements vmachine.Allocator with first-fit allocation.
func (h *Heap) TryAlloc(descID int, n int64) (int64, bool) {
	d := h.Descs.Get(descID)
	size, ok := d.AllocWords(n)
	if !ok {
		return 0, false
	}
	for i := range h.free {
		if h.free[i].size >= size {
			addr := h.free[i].addr
			h.free[i].addr += size
			h.free[i].size -= size
			if h.free[i].size == 0 {
				h.free = append(h.free[:i], h.free[i+1:]...)
			}
			// Zero the block (free memory may hold stale data).
			for w := addr; w < addr+size; w++ {
				h.Mem[w] = 0
			}
			h.Mem[addr] = int64(descID)
			if d.Kind == types.DescOpenArray {
				h.Mem[addr+1] = n
			}
			h.insertObject(object{addr: addr, size: size})
			h.AllocatedWords += size
			return addr, true
		}
	}
	return 0, false
}

func (h *Heap) insertObject(o object) {
	i := sort.Search(len(h.objects), func(i int) bool { return h.objects[i].addr >= o.addr })
	h.objects = append(h.objects, object{})
	copy(h.objects[i+1:], h.objects[i:])
	h.objects[i] = o
}

// findObject returns the index of the object containing addr (header
// or interior), or -1.
func (h *Heap) findObject(addr int64) int {
	if addr < h.Lo || addr >= h.Hi {
		return -1
	}
	i := sort.Search(len(h.objects), func(i int) bool { return h.objects[i].addr > addr })
	if i == 0 {
		return -1
	}
	o := &h.objects[i-1]
	if addr < o.addr+o.size {
		return i - 1
	}
	return -1
}

// Collect implements vmachine.Collector: ambiguous-root mark, then
// sweep with coalescing.
func (h *Heap) Collect(m *vmachine.Machine) error {
	start := time.Now()
	defer func() { h.TotalTime += time.Since(start) }()
	h.Collections++

	var tid int32 = -1
	if m.Cur != nil {
		tid = int32(m.Cur.ID)
	}
	var telStart int64
	if h.Tel != nil {
		telStart = h.Tel.Now()
		h.Tel.Emit(telemetry.EvGCBegin, tid, telemetry.GCMarkSweep,
			h.LiveBytes(), h.AllocatedBytes(), h.Collections-1)
	}
	markedBefore := h.MarkedObjects

	for i := range h.objects {
		h.objects[i].mark = false
	}

	var stack []int
	markWord := func(v int64) {
		if i := h.findObject(v); i >= 0 && !h.objects[i].mark {
			h.objects[i].mark = true
			stack = append(stack, i)
		}
	}

	// Ambiguous roots: all global words, then each live thread's stack
	// words and registers.
	for off := int64(0); off < m.Prog.GlobalWords; off++ {
		markWord(m.Mem[m.GlobalBase+off])
	}
	for _, t := range m.Threads {
		if t.Done {
			continue
		}
		for a := t.SP; a < t.StackHi; a++ {
			markWord(m.Mem[a])
		}
		for _, r := range t.Regs {
			markWord(r)
		}
	}

	// Transitive marking uses the descriptors (the heap itself is
	// type-accurate; only the roots are ambiguous).
	var offs []int64
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		addr := h.objects[i].addr
		offs = h.Descs.PointerOffsets(h.Mem, addr, offs[:0])
		for _, off := range offs {
			markWord(h.Mem[addr+off])
		}
	}

	// Sweep.
	var kept []object
	var free []span
	addFree := func(addr, size int64) {
		if n := len(free); n > 0 && free[n-1].addr+free[n-1].size == addr {
			free[n-1].size += size
			return
		}
		free = append(free, span{addr, size})
	}
	cursor := h.Lo
	for _, o := range h.objects {
		if o.addr > cursor {
			addFree(cursor, o.addr-cursor)
		}
		if o.mark {
			kept = append(kept, o)
			h.MarkedObjects++
		} else {
			addFree(o.addr, o.size)
			cursor = o.addr + o.size
			continue
		}
		cursor = o.addr + o.size
	}
	if cursor < h.Hi {
		addFree(cursor, h.Hi-cursor)
	}
	// Merge adjacent free spans produced around kept objects.
	sort.Slice(free, func(i, j int) bool { return free[i].addr < free[j].addr })
	var merged []span
	for _, s := range free {
		if n := len(merged); n > 0 && merged[n-1].addr+merged[n-1].size == s.addr {
			merged[n-1].size += s.size
		} else {
			merged = append(merged, s)
		}
	}
	h.objects = kept
	h.free = merged

	if h.Tel != nil {
		h.Tel.Emit(telemetry.EvGCEnd, tid, h.LiveBytes(), h.MarkedObjects-markedBefore, 0, 0)
		h.mCollections.Add(1)
		h.hPause.Observe(h.Tel.Now() - telStart)
		h.gAllocBytes.Set(h.AllocatedBytes())
		h.gLiveBytes.Set(h.LiveBytes())
		h.gLiveObjects.Set(int64(len(h.objects)))
		h.gCollections.Set(h.Collections)
	}
	return nil
}

// LiveWords reports the words currently held by allocated objects.
func (h *Heap) LiveWords() int64 {
	var n int64
	for _, o := range h.objects {
		n += o.size
	}
	return n
}
