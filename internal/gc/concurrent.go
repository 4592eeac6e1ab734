// Mostly-concurrent marking, shared by both precise collectors.
//
// A concurrent cycle splits a collection into three parts driven by the
// vmachine scheduler through the vmachine.ConcurrentCollector protocol:
//
//	initial pause   StartCycle, at a §5.3 rendezvous: walk the stacks,
//	                seed the mark set from the root snapshot, arm the
//	                SATB write barrier and black-allocation hooks
//	concurrent mark MarkStep, once per completed scheduler pass while
//	                mutators run: scan a bounded batch of gray objects
//	                and fold in barrier-logged old values
//	final pause     FinishCycle, at a second rendezvous: drain the
//	                barrier buffer, then run only the collector's
//	                deterministic copy tail (trace.go FinishCopy)
//
// Cycle is that protocol, written once: gc.Collector (a full semispace
// collection) and gengc.Collector (a generational major) each embed
// one and supply only what differs — their root slots, the span they
// mark, the tail after the drain and a telemetry kind (CycleHost).
//
// Soundness is the snapshot-at-the-beginning argument: every object
// reachable when the cycle began is retained, because (a) the roots
// are seeded eagerly at the initial pause, (b) every barriered pointer
// store logs — and immediately claims — the overwritten value, so no
// snapshot edge is ever silently deleted, and (c) every allocation
// during the cycle (bump fast path, slow path, text literals, and
// compile-time cell reuse) is black-allocated. Objects that die during
// the cycle float until the next one.
//
// Determinism: mutators are green threads on one scheduler goroutine,
// so mark bursts never race mutator writes, and burst boundaries fall
// at scheduler pass boundaries, which are invariant under RunFuel
// slicing. A burst scans serially, so its order, SATBLogged and the
// burst count are the same at every worker count. When a cycle runs
// with no mutator steps between its phases — every single-threaded
// machine, including the whole difftest matrix — the marked set equals
// the stop-the-world reachable set and the canonical assign phase makes
// the resulting heap image bitwise identical to a stop-the-world
// collection.
package gc

import (
	"fmt"
	"time"

	"repro/internal/gctab"
	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// DefaultMarkBudget is the number of gray objects one MarkStep scans
// when the collector does not choose a budget (Cycle.MarkBudget <= 0).
const DefaultMarkBudget = 512

// CycleHost is what a collector supplies to the Cycle it embeds: the
// parts of a concurrent cycle that differ between collectors. The
// engine calls them at fixed points and never asks which collector it
// is driving.
type CycleHost interface {
	vmachine.ConcurrentCollector
	// CycleEnv describes the collector to one pause of its cycle.
	CycleEnv() CycleEnv
	// CycleTail is the final pause after the drain, once every root is
	// known to be marked: copy the marked set out of Space and flip.
	CycleTail(m *vmachine.Machine, roots []*int64) (TraceStats, error)
}

// CycleEnv is a collector as one pause of its cycle sees it.
type CycleEnv struct {
	// Walk, Dec and the two worker counts walk the stacks, as in the
	// collector's stop-the-world path.
	Walk                      *Walk
	Dec                       gctab.TableDecoder
	WalkWorkers, TraceWorkers int
	// Space is the CopySpace the collector hands FinishCopy, aimed at
	// the mark span [SpanLo, SpanHi): every address a black allocation
	// can claim before the flip, not just the allocation watermark. The
	// cycle marks into its Marks, testing values with InFrom (the
	// heap's Contains) and scanning objects through Mem and PtrOffsets.
	Space *CopySpace
	// Extra are root slots beyond the walked stacks (Walk.Roots).
	Extra []int64
	// Heap, Kind and Count fill the cycle's telemetry: the sizes the
	// begin event and the heap gauges report, the EvGCBegin kind and
	// the collector's count of collections so far.
	Heap interface {
		LiveBytes() int64
		AllocatedBytes() int64
	}
	Kind, Count int64
	Probes      *Probes
}

// Cycle is the mostly-concurrent mark cycle of a precise collector. It
// owns the gray stack, the SATB log, the machine hooks, the burst budget
// and the drain; the collector embedding it implements CycleHost and
// passes itself to Start, Finish and Inline.
type Cycle struct {
	// Concurrent enables mostly-concurrent marking: a collection splits
	// into an initial root-scan pause, incremental mark bursts
	// interleaved with mutator execution, and a short final pause that
	// runs only the copy tail. Requires barriered stores in the program
	// (codegen Options.Generational or Options.Barriers).
	Concurrent bool
	// MarkBudget bounds the gray objects scanned per mark burst
	// (0 = DefaultMarkBudget). Smaller budgets mean shorter bursts and
	// more of them.
	MarkBudget int

	// Statistics. The walk and stall totals include the embedding
	// collector's stop-the-world collections.
	Cycles         int64 // completed concurrent cycles
	SATBLogged     int64 // old values the write barrier claimed
	FramesTraced   int64
	StackTraceTime time.Duration
	TotalTime      time.Duration
	ConcMarkTime   time.Duration
	FinalPauseTime time.Duration

	// Pauses and FinalPauses, when non-nil, observe the stalls already
	// timed for TotalTime, ConcMarkTime and FinalPauseTime, so observing
	// adds no clock read: Pauses sees every mutator stall (a whole
	// stop-the-world collection, an initial pause, each mark burst, a
	// final pause), FinalPauses the stop a full collection ends with —
	// all of a stop-the-world one. A host that wants a pause
	// distribution per machine without a tracer per machine (gcserve)
	// owns the histograms and points the collector at them.
	Pauses, FinalPauses *telemetry.Histogram

	// sp is the space being marked, nil outside a cycle; probes are the
	// collector's telemetry handles.
	sp     *CopySpace
	probes *Probes
	// gray holds claimed-but-unscanned objects; the claimed set itself
	// (the copy tail's input) lives only in sp.Marks. satb buffers
	// barrier-logged old values between mark steps: each entry was
	// claimed when logged (claim-on-log bounds the buffer by the object
	// count), so folding it into gray just schedules its fields for
	// scanning. batch is the burst being scanned, offs the scan's
	// pointer-offsets buffer. All four are recycled across cycles.
	gray, satb, batch, offs []int64
	// start is the cycle's initial pause: mark bursts time themselves
	// against it (time.Since of a monotonic reading is one clock read,
	// time.Now is two), which is most of a burst that scans a handful of
	// barrier-logged entries.
	start time.Time
	// The machine hooks, bound once (a method value allocates each time
	// it is taken).
	satbHook, allocHook func(int64)
}

// Start is the initial root-scan pause: host's StartCycle. Must run at
// a safepoint (every live thread parked at a gc-point or the machine
// single-threaded inline path).
func (cy *Cycle) Start(m *vmachine.Machine, host CycleHost) error {
	start := time.Now()
	started := false
	defer cy.EndStall(start, &started, false) // the initial root scan stalls mutators
	env := host.CycleEnv()
	p := env.Probes
	tid := curThread(m)
	var telStart int64
	if p.Tel != nil {
		telStart = p.Tel.Now()
		p.Tel.Emit(telemetry.EvGCBegin, tid, env.Kind,
			env.Heap.LiveBytes(), env.Heap.AllocatedBytes(), env.Count)
	}

	sp := env.Space
	sp.Marks.Reset(sp.SpanLo, sp.SpanHi)
	walkTime, err := cy.WalkStacks(m, env.Walk, env.Dec, env.WalkWorkers, env.TraceWorkers, false)
	if err != nil {
		return err
	}

	// Seed the snapshot: every object a root references right now is
	// reachable-at-start by definition. Roots hold only tidy pointers
	// or NIL (derived values live in Deriv entries, not the root set),
	// so the values can be claimed directly without adjustment.
	cy.gray, cy.satb = cy.gray[:0], cy.satb[:0]
	for _, r := range env.Walk.Roots(m, env.Extra) {
		if v := *r; v != 0 && sp.InFrom(v) && sp.Marks.ClaimSerial(v) {
			cy.gray = append(cy.gray, v)
		}
	}
	cy.sp, cy.probes, cy.start = sp, p, start
	if cy.satbHook == nil {
		cy.satbHook, cy.allocHook = cy.satbRecord, cy.blackAlloc
	}
	m.SATB, m.AllocMark = cy.satbHook, cy.allocHook

	if p.Tel != nil {
		nFrames := int64(env.Walk.NumFrames())
		p.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), nFrames, 0, 0)
		p.Frames.Add(nFrames)
		p.Walk.Observe(int64(walkTime))
		// The initial root scan stalls mutators, so it counts against
		// the pause distribution.
		p.Pause.Observe(p.Tel.Now() - telStart)
	}
	started = true
	return nil
}

// WalkStacks walks every live thread's stack into w, adjusting derived
// values too when adjust is set (every pause but a cycle's initial
// one), and books the walk to FramesTraced and StackTraceTime. Both
// collectors' pauses walk through it.
func (cy *Cycle) WalkStacks(m *vmachine.Machine, w *Walk, dec gctab.TableDecoder, walkWorkers, traceWorkers int, adjust bool) (time.Duration, error) {
	start := time.Now()
	if err := w.Machine(m, dec, walkWorkers); err != nil {
		return 0, err
	}
	cy.FramesTraced += int64(w.NumFrames())
	if adjust {
		if err := w.AdjustDerived(m, traceWorkers); err != nil {
			return 0, err
		}
	}
	d := time.Since(start)
	cy.StackTraceTime += d
	return d, nil
}

// satbRecord is the machine's SATB hook: it receives the overwritten
// old value of every barriered pointer store. Claiming at log time
// both bounds the buffer (an object is logged at most once per cycle)
// and makes the snapshot invariant local: once a value is logged, no
// later store can lose it.
func (cy *Cycle) satbRecord(old int64) {
	sp := cy.sp
	if sp == nil || old == 0 {
		return
	}
	if sp.InFrom(old) && sp.Marks.ClaimSerial(old) {
		cy.SATBLogged++
		cy.satb = append(cy.satb, old)
	}
}

// blackAlloc is the machine's AllocMark hook: objects allocated (or
// compile-time reused) during a cycle — in the generational heap,
// nursery bumps and pretenured old allocations alike — are claimed
// black: retained this cycle, never scanned. Their pointer fields start
// NIL and every later pointer store into them is barriered, so nothing
// is missed.
func (cy *Cycle) blackAlloc(addr int64) {
	if cy.sp != nil {
		cy.sp.Marks.ClaimSerial(addr)
	}
}

// MarkStep implements vmachine.ConcurrentCollector: one bounded mark
// increment. The scheduler calls it between passes, so no mutator runs
// concurrently.
func (cy *Cycle) MarkStep(*vmachine.Machine) (bool, error) {
	if cy.sp == nil {
		return true, nil
	}
	if len(cy.satb) > 0 {
		cy.gray = append(cy.gray, cy.satb...)
		cy.satb = cy.satb[:0]
	}
	if len(cy.gray) == 0 {
		return true, nil
	}
	t0 := time.Since(cy.start)

	budget := cy.MarkBudget
	if budget <= 0 {
		budget = DefaultMarkBudget
	}
	keep := max(len(cy.gray)-budget, 0)
	// The batch comes off the gray stack's tail and scan appends its
	// discoveries back onto the gray stack, so the batch is copied out
	// first: appending in place would overwrite unread batch entries
	// whenever a burst discovers faster than it reads (any tree-shaped
	// graph) and silently drop their subtrees.
	cy.batch = append(cy.batch[:0], cy.gray[keep:]...)
	cy.gray = cy.gray[:keep]
	cy.scan(cy.batch)

	burst := time.Since(cy.start) - t0
	cy.ConcMarkTime += burst
	// A burst stalls mutators too (they are descheduled while it runs),
	// so it belongs in the pause distribution — that is the point of
	// bounding it.
	cy.observePause(burst, false)
	cy.probes.ConcMark.Observe(int64(burst))
	cy.probes.Pause.Observe(int64(burst))
	return len(cy.gray) == 0 && len(cy.satb) == 0, nil
}

// scan scans the pointer fields of batch, claiming and graying newly
// discovered objects.
func (cy *Cycle) scan(batch []int64) {
	sp, offs := cy.sp, cy.offs
	for _, a := range batch {
		offs = sp.PtrOffsets(a, offs[:0])
		for _, off := range offs {
			if v := sp.Mem[a+off]; v != 0 && sp.InFrom(v) && sp.Marks.ClaimSerial(v) {
				cy.gray = append(cy.gray, v)
			}
		}
	}
	cy.offs = offs
}

// drain marks to completion: barrier entries logged since the last
// step, and any gray left if the machine rendezvoused before marking
// finished (forced collections, allocation failure mid-cycle).
func (cy *Cycle) drain() {
	for len(cy.satb) > 0 || len(cy.gray) > 0 {
		cy.gray = append(cy.gray, cy.satb...)
		cy.satb = cy.satb[:0]
		// The whole gray stack is the batch; discoveries go to the
		// other buffer.
		cy.batch, cy.gray = cy.gray, cy.batch[:0]
		cy.scan(cy.batch)
	}
}

// Finish is the final pause: host's FinishCycle. Must run at a
// safepoint. It drains whatever the barrier logged since the last mark
// step, re-walks the stacks and adjusts derived values, checks the
// snapshot invariant, runs host's copy tail over the marked set and
// disarms the hooks.
func (cy *Cycle) Finish(m *vmachine.Machine, host CycleHost) error {
	sp := cy.sp
	if sp == nil {
		return nil
	}
	start := time.Now()
	defer func() { cy.TotalTime += time.Since(start) }()
	env := host.CycleEnv()
	p := env.Probes
	tid := curThread(m)
	var telStart int64
	if p.Tel != nil {
		telStart = p.Tel.Now()
	}

	cy.drain()
	walkTime, err := cy.WalkStacks(m, env.Walk, env.Dec, env.WalkWorkers, env.TraceWorkers, true)
	if err != nil {
		return err
	}
	roots := env.Walk.Roots(m, env.Extra)
	// SATB invariant check: every root value must be marked by now
	// (reachable-at-start objects were seeded or logged; later
	// allocations were claimed black). An unmarked root here is a
	// barrier bug, and copying would patch the slot with garbage.
	for _, r := range roots {
		if v := *r; v != 0 && sp.InFrom(v) && !sp.Marks.Marked(v) {
			return fmt.Errorf("gc: root %d unmarked at final pause (SATB invariant violated)", v)
		}
	}
	st, err := host.CycleTail(m, roots)
	if err != nil {
		return err
	}
	env.Walk.RederiveAll(m, env.TraceWorkers)

	m.SATB, m.AllocMark = nil, nil
	cy.sp = nil
	cy.Cycles++

	if p.Tel != nil {
		nFrames, nDeriv := int64(env.Walk.NumFrames()), int64(env.Walk.NumDerivs())
		copiedBytes := st.Words * heap.WordBytes
		p.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), nFrames, 0, 0)
		p.Tel.Emit(telemetry.EvGCEnd, tid, copiedBytes, nFrames, nDeriv, nDeriv)
		p.Collections.Add(1)
		p.Frames.Add(nFrames)
		p.Copied.Add(copiedBytes)
		p.Objects.Add(st.Objects)
		p.Adjusted.Add(nDeriv)
		p.Rederived.Add(nDeriv)
		p.Walk.Observe(int64(walkTime))
		p.Assign.Observe(int64(st.Assign))
		p.Copy.Observe(int64(st.Copy))
		p.Fixup.Observe(int64(st.Fixup))
		final := p.Tel.Now() - telStart
		p.Pause.Observe(final)
		p.Final.Observe(final)
		p.AllocBytes.Set(env.Heap.AllocatedBytes())
		p.LiveBytes.Set(env.Heap.LiveBytes())
	}
	final := time.Since(start)
	cy.FinalPauseTime += final
	cy.observePause(final, true)
	return nil
}

// Inline opens the host's Collect when it is called directly
// (single-threaded machines, stress mode, explicit collections with no
// other runnable thread): a collection landing while a cycle is in
// flight finishes that cycle rather than starting another, and one the
// host wants concurrent runs the whole split cycle back to back. It
// reports false when the collection is the host's to run
// stop-the-world. The multi-threaded scheduler drives StartCycle/
// MarkStep/FinishCycle itself and never calls Collect for a cycle.
func (cy *Cycle) Inline(m *vmachine.Machine, host CycleHost) (bool, error) {
	if cy.sp != nil {
		return true, cy.finishActive(m, host)
	}
	if host.ShouldStartCycle() {
		return true, cy.collectSplit(m, host)
	}
	return false, nil
}

// collectSplit runs a whole concurrent cycle back to back. With zero
// mutator steps between phases it is bitwise identical to a
// stop-the-world collection, so the difftest matrix exercises exactly
// the split-cycle code while pinning its results to the STW cells.
func (cy *Cycle) collectSplit(m *vmachine.Machine, host CycleHost) error {
	if err := host.StartCycle(m); err != nil {
		return err
	}
	return cy.finishActive(m, host)
}

// finishActive drains the active cycle's marking and finishes it (the
// direct-Collect path; the scheduler's own rendezvous uses the same
// MarkStep/FinishCycle pair).
func (cy *Cycle) finishActive(m *vmachine.Machine, host CycleHost) error {
	for {
		done, err := cy.MarkStep(m)
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	return host.FinishCycle(m)
}

// EndStall, deferred with the stall's start, accrues its duration to
// TotalTime and, if the stall ran to completion (*done), observes it.
func (cy *Cycle) EndStall(start time.Time, done *bool, final bool) {
	d := time.Since(start)
	cy.TotalTime += d
	if *done {
		cy.observePause(d, final)
	}
}

// observePause records one completed stall of duration d in the host's
// histograms (nil histograms ignore it); final marks the stop that ends
// a full collection.
func (cy *Cycle) observePause(d time.Duration, final bool) {
	cy.Pauses.Observe(int64(d))
	if final {
		cy.FinalPauses.Observe(int64(d))
	}
}
