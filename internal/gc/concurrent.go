// Mostly-concurrent marking for the precise compacting collector.
//
// A concurrent cycle splits Collect into three parts driven by the
// vmachine scheduler through the vmachine.ConcurrentCollector protocol:
//
//	initial pause   StartCycle, at a §5.3 rendezvous: walk the stacks,
//	                seed the mark set from the root snapshot, arm the
//	                SATB write barrier and black-allocation hooks
//	concurrent mark MarkStep, once per completed scheduler pass while
//	                mutators run: scan a bounded batch of gray objects
//	                (chunked across the TraceCopy worker pool for large
//	                batches) and fold in barrier-logged old values
//	final pause     FinishCycle, at a second rendezvous: drain the
//	                barrier buffer, then run only the deterministic
//	                assign/copy/fixup tail (trace.go FinishCopy)
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
// slicing. When a cycle runs with no mutator steps between its phases
// — every single-threaded machine, including the whole difftest matrix
// — the marked set equals the stop-the-world reachable set and the
// canonical assign phase makes the resulting heap image bitwise
// identical to a stop-the-world collection.
package gc

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// DefaultMarkBudget is the number of gray objects one MarkStep scans
// when the collector does not choose a budget (Collector.MarkBudget
// <= 0). A var so benchmarks can sweep it.
var DefaultMarkBudget = 512

// concParallelThreshold is the batch size below which a mark burst
// scans inline instead of fanning out to the worker pool.
const concParallelThreshold = 128

// concCycle is the state of one in-flight concurrent mark cycle.
type concCycle struct {
	// gray holds claimed-but-unscanned objects. The claimed set itself
	// (the final copy plan's input) lives only in Collector.marks.
	gray []int64
	// satb buffers barrier-logged old values between mark steps. Each
	// entry was already claimed when logged (claim-on-log bounds the
	// buffer by the object count), so folding it into gray just
	// schedules its fields for scanning.
	satb []int64
	// batch is the burst being scanned, copied off gray so scanBatch's
	// appends to gray can never overwrite an unread entry; offs is the
	// serial scan's pointer-offsets buffer.
	batch, offs []int64

	// start is the cycle's initial pause: mark bursts time themselves
	// against it (time.Since of a monotonic reading is one clock read,
	// time.Now is two), which is most of a burst that scans a handful of
	// barrier-logged entries.
	start time.Time

	// The machine hooks, bound once per collector (a method value
	// allocates each time it is taken).
	satbHook  func(old int64)
	allocHook func(addr int64)
}

// ShouldStartCycle implements vmachine.ConcurrentCollector: only full
// compacting collections run concurrently (the trace-only and null
// timing modes have no mark set to build incrementally).
func (c *Collector) ShouldStartCycle() bool {
	return c.Concurrent && c.Mode == ModeFull
}

// StartCycle implements vmachine.ConcurrentCollector: the initial
// root-scan pause. Must run at a safepoint (every live thread parked
// at a gc-point or the machine single-threaded inline path).
func (c *Collector) StartCycle(m *vmachine.Machine) error {
	start := time.Now()
	started := false
	defer c.endStall(start, &started, false) // the initial root scan stalls mutators
	h := c.Heap
	tid := curThread(m)
	var telStart int64
	if c.Tel != nil {
		telStart = c.Tel.Now()
		c.Tel.Emit(telemetry.EvGCBegin, tid, telemetry.GCFull,
			h.LiveBytes(), h.AllocatedBytes(), h.Collections)
	}

	// The mark bitmap must span the whole from-space quota, not just
	// the current allocation watermark: black allocations during the
	// cycle claim addresses past it.
	c.marks.Reset(h.FromLo, h.Limit)

	traceStart := time.Now()
	if err := c.walk.Machine(m, c.Dec, c.WalkWorkers); err != nil {
		return err
	}
	nFrames := int64(c.walk.NumFrames())
	c.FramesTraced += nFrames
	walkTime := time.Since(traceStart)
	c.StackTraceTime += walkTime

	// Seed the snapshot: every object a root references right now is
	// reachable-at-start by definition. Roots hold only tidy pointers
	// or NIL (derived values live in Deriv entries, not the root set),
	// so the values can be claimed directly without adjustment.
	cyc := &c.cycle
	cyc.gray, cyc.satb = cyc.gray[:0], cyc.satb[:0]
	cyc.start = start
	if cyc.satbHook == nil {
		cyc.satbHook, cyc.allocHook = c.satbRecord, c.blackAlloc
	}
	for _, p := range c.walk.Roots(m, nil) {
		v := *p
		if v != 0 && h.Contains(v) && c.marks.ClaimSerial(v) {
			cyc.gray = append(cyc.gray, v)
		}
	}
	c.cyc = cyc
	m.SATB = cyc.satbHook
	m.AllocMark = cyc.allocHook

	if c.Tel != nil {
		c.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), nFrames, 0, 0)
		c.mFrames.Add(nFrames)
		c.hWalk.Observe(int64(walkTime))
		// The initial root scan stalls mutators, so it counts against
		// the pause distribution.
		c.hPause.Observe(c.Tel.Now() - telStart)
	}
	started = true
	return nil
}

// satbRecord is the machine's SATB hook: it receives the overwritten
// old value of every barriered pointer store. Claiming at log time
// both bounds the buffer (an object is logged at most once per cycle)
// and makes the snapshot invariant local: once a value is logged, no
// later store can lose it.
func (c *Collector) satbRecord(old int64) {
	cyc := c.cyc
	if cyc == nil || old == 0 {
		return
	}
	if c.Heap.Contains(old) && c.marks.ClaimSerial(old) {
		c.SATBLogged++
		cyc.satb = append(cyc.satb, old)
	}
}

// blackAlloc is the machine's AllocMark hook: objects allocated (or
// compile-time reused) during a cycle are claimed black — retained
// this cycle, never scanned. Their pointer fields start NIL and every
// later pointer store into them is barriered, so nothing is missed.
func (c *Collector) blackAlloc(addr int64) {
	if c.cyc != nil {
		c.marks.ClaimSerial(addr)
	}
}

// MarkStep implements vmachine.ConcurrentCollector: one bounded mark
// increment. The scheduler calls it between passes, so no mutator runs
// concurrently; within a large burst the scan fans out across the
// TraceCopy worker pool (claim races only affect discovery order,
// never the claimed set, and the canonical assign phase erases order).
func (c *Collector) MarkStep(m *vmachine.Machine) (bool, error) {
	cyc := c.cyc
	if cyc == nil {
		return true, nil
	}
	if len(cyc.satb) > 0 {
		cyc.gray = append(cyc.gray, cyc.satb...)
		cyc.satb = cyc.satb[:0]
	}
	if len(cyc.gray) == 0 {
		return true, nil
	}
	t0 := time.Since(cyc.start)

	budget := c.MarkBudget
	if budget <= 0 {
		budget = DefaultMarkBudget
	}
	n := len(cyc.gray)
	if n > budget {
		n = budget
	}
	// The batch comes off the gray stack's tail, and scanBatch appends
	// discoveries back onto cyc.gray — so the batch is copied out
	// first, or those appends would overwrite unread entries mid-scan
	// and silently drop their subtrees.
	keep := len(cyc.gray) - n
	cyc.batch = append(cyc.batch[:0], cyc.gray[keep:]...)
	cyc.gray = cyc.gray[:keep]
	c.scanBatch(cyc.batch)

	burst := time.Since(cyc.start) - t0
	c.ConcMarkTime += burst
	// A burst stalls mutators too (they are descheduled while it runs),
	// so it belongs in the pause distribution — that is the point of
	// bounding it.
	c.observePause(burst, false)
	if c.Tel != nil {
		c.hConcMark.Observe(int64(burst))
		c.hPause.Observe(int64(burst))
	}
	return len(cyc.gray) == 0 && len(cyc.satb) == 0, nil
}

// scanBatch scans the pointer fields of batch, claiming and graying
// newly discovered objects. Large batches are chunked across the
// worker pool; each worker appends discoveries to its own lists, which
// are merged afterwards.
func (c *Collector) scanBatch(batch []int64) {
	h := c.Heap
	workers := poolWidth(c.TraceWorkers, DefaultTraceWorkers)
	if workers > len(batch)/concParallelThreshold {
		workers = len(batch) / concParallelThreshold
	}
	if workers <= 1 {
		offs := c.cyc.offs
		for _, a := range batch {
			offs = h.PointerOffsets(a, offs[:0])
			for _, off := range offs {
				v := h.Mem[a+off]
				if v != 0 && h.Contains(v) && c.marks.ClaimSerial(v) {
					c.cyc.gray = append(c.cyc.gray, v)
				}
			}
		}
		c.cyc.offs = offs
		return
	}
	found := make([][]int64, workers)
	var wg sync.WaitGroup
	chunk := (len(batch) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, part []int64) {
			defer wg.Done()
			var offs, mine []int64
			for _, a := range part {
				offs = h.PointerOffsets(a, offs[:0])
				for _, off := range offs {
					v := h.Mem[a+off]
					if v != 0 && h.Contains(v) && c.marks.Claim(v) {
						mine = append(mine, v)
					}
				}
			}
			found[w] = mine
		}(w, batch[lo:hi])
	}
	wg.Wait()
	for _, mine := range found {
		c.cyc.gray = append(c.cyc.gray, mine...)
	}
}

// FinishCycle implements vmachine.ConcurrentCollector: the final
// pause. Must run at a safepoint. It drains whatever the barrier
// logged since the last mark step, re-walks the stacks for fixup,
// adjusts derived values, and runs the deterministic assign/copy/fixup
// tail over the accumulated marked set.
func (c *Collector) FinishCycle(m *vmachine.Machine) error {
	cyc := c.cyc
	if cyc == nil {
		return nil
	}
	start := time.Now()
	defer func() { c.TotalTime += time.Since(start) }()
	h := c.Heap
	tid := curThread(m)
	var telStart int64
	if c.Tel != nil {
		telStart = c.Tel.Now()
	}

	// Drain: barrier entries logged since the last step, and any gray
	// left if the machine rendezvoused before marking finished (forced
	// collections, allocation failure mid-cycle).
	for len(cyc.satb) > 0 || len(cyc.gray) > 0 {
		cyc.gray = append(cyc.gray, cyc.satb...)
		cyc.satb = cyc.satb[:0]
		// The whole gray stack is the batch; discoveries go to the
		// other buffer.
		cyc.batch, cyc.gray = cyc.gray, cyc.batch[:0]
		c.scanBatch(cyc.batch)
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

	roots := c.walk.Roots(m, nil)
	// SATB invariant check: every root value must be marked by now
	// (reachable-at-start objects were seeded or logged; later
	// allocations were claimed black). An unmarked root here is a
	// barrier bug, and proceeding would patch the slot with garbage.
	for _, p := range roots {
		if v := *p; v != 0 && h.Contains(v) && !c.marks.Marked(v) {
			return fmt.Errorf("gc: root %d unmarked at final pause (SATB invariant violated)", v)
		}
	}

	st, err := FinishCopy(roots, c.copySpace(h.FromLo, h.Limit), c.TraceWorkers)
	if err != nil {
		return err
	}
	c.WordsCopied += st.Words
	c.ObjectsCopied += st.Objects
	c.AssignTime += st.Assign
	c.CopyTime += st.Copy
	c.FixupTime += st.Fixup
	h.AddCopied(st.Objects)
	h.FinishCollection(st.Next)
	c.walk.RederiveAll(m, c.TraceWorkers)

	m.SATB = nil
	m.AllocMark = nil
	c.cyc = nil
	c.Collections++
	c.Cycles++

	if c.Debug {
		if err := h.Check(); err != nil {
			return err
		}
	}
	if c.Tel != nil {
		nDeriv := int64(c.walk.NumDerivs())
		copiedBytes := st.Words * heap.WordBytes
		c.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), nFrames, 0, 0)
		c.Tel.Emit(telemetry.EvGCEnd, tid, copiedBytes, nFrames, nDeriv, nDeriv)
		c.mCollections.Add(1)
		c.mFrames.Add(nFrames)
		c.mCopied.Add(copiedBytes)
		c.mObjects.Add(st.Objects)
		c.mAdjusted.Add(nDeriv)
		c.mRederived.Add(nDeriv)
		c.hWalk.Observe(int64(walkTime))
		c.hAssign.Observe(int64(st.Assign))
		c.hCopy.Observe(int64(st.Copy))
		c.hFixup.Observe(int64(st.Fixup))
		final := c.Tel.Now() - telStart
		c.hPause.Observe(final)
		c.hFinal.Observe(final)
		c.gAllocBytes.Set(h.AllocatedBytes())
		c.gLiveBytes.Set(h.LiveBytes())
		c.gLiveObjects.Set(h.LiveObjects)
		c.gCollections.Set(h.Collections)
	}
	final := time.Since(start)
	c.FinalPauseTime += final
	c.observePause(final, true)
	return nil
}

// collectSplit runs a whole concurrent cycle back-to-back: the inline
// path used when Collect is called directly (single-threaded machines,
// stress mode, explicit collections with no other runnable thread).
// With zero mutator steps between phases it is bitwise identical to a
// stop-the-world collection, so the difftest matrix exercises exactly
// the split-cycle code while pinning its results to the STW cells.
func (c *Collector) collectSplit(m *vmachine.Machine) error {
	if err := c.StartCycle(m); err != nil {
		return err
	}
	return c.finishActive(m)
}

// finishActive drains the active cycle's marking and finishes it (the
// direct-Collect path; the scheduler's own rendezvous uses the same
// MarkStep/FinishCycle pair).
func (c *Collector) finishActive(m *vmachine.Machine) error {
	for {
		done, err := c.MarkStep(m)
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	return c.FinishCycle(m)
}
