// Package telemetry is the runtime observability subsystem for the
// collectors, the virtual machine, and the table pipeline: a lock-free
// ring-buffer event tracer plus counter/histogram/gauge metrics with a
// snapshot API, and exporters for JSONL and the Chrome trace_event
// format (export.go) so a run opens in chrome://tracing or Perfetto.
//
// The design constraint is zero cost when off: every probe in the
// runtime is guarded by a nil check on a *Tracer field —
//
//	if c.Tel != nil { c.Tel.Emit(...) }
//
// — so a machine or collector without a tracer attached pays one
// pointer comparison per probe and performs no allocation (asserted by
// BenchmarkDisabledProbe). When a tracer is attached, Emit itself is
// allocation-free: events are fixed-size records claimed from the ring
// with one atomic add and published with per-slot sequence numbers, so
// pre-emptive VM threads (or host goroutines) may emit concurrently.
package telemetry

import (
	"sort"
	"sync"
	"time"
)

// EventKind identifies a traced runtime event.
type EventKind uint8

// Event kinds. The Args meaning per kind:
//
//	EvGCBegin    [gc kind, live bytes before, allocated bytes (cumulative), collections so far]
//	EvGCEnd      [bytes copied/promoted, frames walked, derived adjusted, derived re-derived]
//	             (mark-sweep: [live bytes after, objects marked, 0, 0])
//	EvStackWalk  [duration ns, frames walked, 0, 0]
//	EvDecode     [gc-point byte pc, hit (1) or miss (0), duration ns, table bytes read]
//	EvGCWait     [wait ns at the rendezvous gc-point, 0, 0, 0] (Thread = parked thread)
//	EvRendezvous [request→collect latency ns, threads parked, 0, 0]
//	EvPCSample   [byte pc, 0, 0, 0]
const (
	EvNone EventKind = iota
	EvGCBegin
	EvGCEnd
	EvStackWalk
	EvDecode
	EvGCWait
	EvRendezvous
	EvPCSample
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvNone:       "none",
	EvGCBegin:    "gc.begin",
	EvGCEnd:      "gc.end",
	EvStackWalk:  "gc.stackwalk",
	EvDecode:     "tab.decode",
	EvGCWait:     "gc.wait",
	EvRendezvous: "gc.rendezvous",
	EvPCSample:   "vm.pc_sample",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "event(?)"
}

// GC cycle kinds (Args[0] of EvGCBegin).
const (
	GCFull      int64 = iota // precise compacting, full copy
	GCTraceOnly              // stack trace only (§6.3 timing mode)
	GCNull                   // null collection (timing baseline)
	GCMinor                  // generational minor (promotion)
	GCMajor                  // generational major (old-space copy)
	GCMarkSweep              // conservative ambiguous-roots mark-sweep
)

// GCKindName names a GC cycle kind for exports and summaries.
func GCKindName(k int64) string {
	switch k {
	case GCFull:
		return "full"
	case GCTraceOnly:
		return "trace-only"
	case GCNull:
		return "null"
	case GCMinor:
		return "minor"
	case GCMajor:
		return "major"
	case GCMarkSweep:
		return "mark-sweep"
	}
	return "gc(?)"
}

// Event is one decoded trace record: what happened, on which VM thread,
// when (ns since the tracer was created), and four kind-specific args.
type Event struct {
	Kind   EventKind
	Thread int32
	TimeNs int64
	Args   [4]int64
}

// Canonical metric names used by the runtime probes. Keeping them here
// keeps producers (collectors, VM) and consumers (gctrace, bench
// harness) from drifting apart.
const (
	CtrGCCollections     = "gc.collections"
	CtrGCFramesWalked    = "gc.frames_walked"
	CtrGCBytesCopied     = "gc.bytes_copied"
	CtrGCDerivedAdjusted = "gc.derived_adjusted"
	CtrGCDerivedRederive = "gc.derived_rederived"
	CtrGCObjectsCopied   = "gc.objects_copied"
	CtrGCMarkSteals      = "gc.mark_steals"
	HistGCPauseNs        = "gc.pause_ns"
	HistGCStackWalkNs    = "gc.stackwalk_ns"
	HistGCMarkNs         = "gc.mark_ns"
	HistGCAssignNs       = "gc.assign_ns"
	HistGCCopyNs         = "gc.copy_ns"
	HistGCFixupNs        = "gc.fixup_ns"
	HistGCWaitNs         = "vm.gcpoint_wait_ns"
	// Concurrent-mark split of the pause accounting: mark_concurrent_ns
	// observes each mark burst that ran while mutators were scheduled
	// (not a pause), and final_pause_ns observes the stop-the-world
	// remainder of a cycle — the SATB drain plus assign/copy/fixup. A
	// fully stop-the-world collection observes its entire pause in
	// final_pause_ns too, so "final-pause p99, concurrent vs. STW" is a
	// single-histogram comparison.
	HistGCConcMarkNs   = "gc.mark_concurrent_ns"
	HistGCFinalPauseNs = "gc.final_pause_ns"

	CtrGenMinor           = "gengc.minor"
	CtrGenMajor           = "gengc.major"
	CtrGenPromotedBytes   = "gengc.promoted_bytes"
	GaugeGenBarrierChecks = "gengc.barrier_checks"
	GaugeGenBarrierHits   = "gengc.barrier_hits"
	GaugeGenRemset        = "gengc.remset_slots"

	GaugeHeapAllocBytes  = "heap.allocated_bytes"
	GaugeHeapLiveBytes   = "heap.live_bytes"
	GaugeHeapLiveObjects = "heap.live_objects"
	GaugeHeapCollections = "heap.collections"

	CtrVMSteps = "vm.steps"
)

// Tracer owns the event ring and the metric registry. A nil *Tracer is
// the disabled state; Emit, SamplePC, and the metric handle methods are
// all nil-receiver safe so probes degrade to a branch.
type Tracer struct {
	ring *ring
	base time.Time
	// clock returns monotonic nanoseconds since the tracer was created;
	// replaceable (NewWithClock) so exports can be golden-tested.
	clock func() int64

	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram

	pcMu  sync.Mutex
	pcs   map[int64]int64
	pairs map[[2]int64]int64
}

// Config sizes a tracer.
type Config struct {
	// RingSize is the number of events retained (rounded up to a power
	// of two; default 65536). Older events are overwritten, never
	// blocked on: tracing must not stall the mutator.
	RingSize int
}

// New creates a tracer using the wall clock (monotonic).
func New(cfg Config) *Tracer {
	t := newTracer(cfg)
	t.clock = func() int64 { return int64(time.Since(t.base)) }
	return t
}

// NewWithClock creates a tracer with an injected nanosecond clock
// (deterministic exports in tests).
func NewWithClock(cfg Config, clock func() int64) *Tracer {
	t := newTracer(cfg)
	t.clock = clock
	return t
}

func newTracer(cfg Config) *Tracer {
	size := cfg.RingSize
	if size <= 0 {
		size = 1 << 16
	}
	return &Tracer{
		ring:   newRing(size),
		base:   time.Now(),
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		pcs:    make(map[int64]int64),
		pairs:  make(map[[2]int64]int64),
	}
}

// Now returns nanoseconds since the tracer was created.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Emit records one event. Allocation-free; safe for concurrent use; on
// a nil tracer it is a no-op.
func (t *Tracer) Emit(k EventKind, thread int32, a0, a1, a2, a3 int64) {
	if t == nil {
		return
	}
	t.ring.put(int64(k), int64(thread), t.clock(), a0, a1, a2, a3)
}

// Events returns the retained events, oldest first. Events being
// overwritten concurrently are skipped, never returned torn.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// Emitted returns the number of events ever emitted; Dropped the number
// that have been overwritten in the ring.
func (t *Tracer) Emitted() int64 { return t.ring.emitted() }

// Dropped returns the count of events lost to ring wraparound.
func (t *Tracer) Dropped() int64 { return t.ring.droppedCount() }

// SamplePC records one hot-PC sample (the VM calls this every
// Config.PCSampleEvery instructions).
func (t *Tracer) SamplePC(pc int64) {
	if t == nil {
		return
	}
	t.pcMu.Lock()
	t.pcs[pc]++
	t.pcMu.Unlock()
	t.Emit(EvPCSample, -1, pc, 0, 0, 0)
}

// SamplePair records one co-occurrence of an adjacent value pair —
// the VM samples (previous opcode, current opcode) bigrams on the same
// cadence as SamplePC, read back with HotPairs.
func (t *Tracer) SamplePair(a, b int64) {
	if t == nil {
		return
	}
	t.pcMu.Lock()
	t.pairs[[2]int64{a, b}]++
	t.pcMu.Unlock()
}

// PairSample is one aggregated pair bucket (an opcode bigram when fed
// by the VM's dispatch sampler).
type PairSample struct {
	A, B  int64
	Count int64
}

// HotPairs returns the n most-sampled pairs, hottest first (ties break
// on the pair values, so the readout is deterministic).
func (t *Tracer) HotPairs(n int) []PairSample {
	if t == nil {
		return nil
	}
	t.pcMu.Lock()
	out := make([]PairSample, 0, len(t.pairs))
	for k, c := range t.pairs {
		out = append(out, PairSample{A: k[0], B: k[1], Count: c})
	}
	t.pcMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// PCSample is one aggregated hot-PC bucket.
type PCSample struct {
	PC    int64
	Count int64
}

// HotPCs returns the n most-sampled byte PCs, hottest first.
func (t *Tracer) HotPCs(n int) []PCSample {
	if t == nil {
		return nil
	}
	t.pcMu.Lock()
	out := make([]PCSample, 0, len(t.pcs))
	for pc, c := range t.pcs {
		out = append(out, PCSample{PC: pc, Count: c})
	}
	t.pcMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
