// Mostly-concurrent major collections for the generational collector.
//
// Minor collections stay stop-the-world: their pause is bounded by the
// (deliberately small) nursery. The expensive pause is the escalation
// to a major cycle — a full copy of both generations — and that is the
// one the shared gc.Cycle splits:
//
//	initial pause   snapshot precise roots + remembered slots, arm the
//	                SATB and black-allocation hooks
//	concurrent mark bounded bursts at scheduler pass boundaries, over
//	                nursery and old space together
//	final pause     drain the barrier buffer, then copy every marked
//	                object into the other old semispace (the exact
//	                major() layout: ascending from-address order),
//	                flip, reset the nursery, clear the remembered set
//
// This file supplies only what a major does differently from a full
// collection: its roots (the remembered slots too), its span (both
// generations) and its tail (the flip). The soundness argument is the
// same snapshot-at-the-beginning one; the only generational twist is
// that allocations during the cycle — nursery bumps and pretenured
// old-space allocations alike — are claimed black, so young objects
// born mid-cycle are promoted with everything else at the flip. The
// ordinary remembered-set Barrier keeps running off the same OpStB
// (storeBarriered invokes both hooks), so minor bookkeeping never
// misses a beat.
package gengc

import (
	"repro/internal/gc"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// ShouldStartCycle implements vmachine.ConcurrentCollector: only the
// escalation to a major collection runs concurrently; a pending minor
// returns false and Collect handles it synchronously.
func (c *Collector) ShouldStartCycle() bool {
	return c.Concurrent && c.Heap.mustEscalate()
}

// StartCycle implements vmachine.ConcurrentCollector: the initial
// pause of a concurrent major (gc.Cycle.Start).
func (c *Collector) StartCycle(m *vmachine.Machine) error {
	c.Heap.pendingOld = false
	c.noteRemset()
	return c.Start(m, c)
}

// FinishCycle implements vmachine.ConcurrentCollector: the final pause
// of a concurrent major (gc.Cycle.Finish).
func (c *Collector) FinishCycle(m *vmachine.Machine) error { return c.Finish(m, c) }

// CycleEnv implements gc.CycleHost: a concurrent major marks every
// address a black allocation can claim before the flip — the whole
// nursery and the current old semispace — from the precise roots plus
// the remembered slots (harmless duplication: every remembered value is
// also reachable by scanning its old-space holder, but seeding it keeps
// the barrier invariant locally checkable).
func (c *Collector) CycleEnv() gc.CycleEnv {
	h := c.Heap
	return gc.CycleEnv{
		Walk: &c.walk, Dec: c.Dec, TraceWorkers: c.TraceWorkers,
		Space: c.majorCopySpace(h.Hi), Extra: c.remsetSlots(),
		Heap: h, Kind: telemetry.GCMajor, Count: c.Minor + c.Major, Probes: &c.probe,
	}
}

// CycleTail implements gc.CycleHost: copy every marked object into the
// other old semispace with the canonical major() layout, then flip.
func (c *Collector) CycleTail(_ *vmachine.Machine, roots []*int64) (gc.TraceStats, error) {
	c.Major++
	st, err := gc.FinishCopy(roots, &c.majorSpace, c.TraceWorkers)
	if err != nil {
		return st, err
	}
	c.MajorCopied += st.Words
	c.ObjectsCopied += st.Objects
	c.AssignTime += st.Assign
	c.CopyTime += st.Copy
	c.FixupTime += st.Fixup
	c.finishMajor(st.Next)
	c.mMajor.Add(1)
	c.gBarChecks.Set(c.BarrierChecks)
	c.gBarHits.Set(c.BarrierHits)
	return st, nil
}
