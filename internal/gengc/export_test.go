package gengc

import "repro/internal/gc"

// Spaces returns the CopySpaces c aims its minors and its majors with;
// after a collection each still holds the span and copy target that
// collection used.
func (c *Collector) Spaces() (minor, major *gc.CopySpace) {
	return &c.minorSpace, &c.majorSpace
}

// InFrom is the heap's own test for what a major moves.
func (h *Heap) InFrom(v int64) bool { return h.inFrom(v) }

// Occupied returns the spans holding objects: the nursery's and the
// current old space's.
func (h *Heap) Occupied() (nurseryLo, nurseryHi, oldLo, oldHi int64) {
	return h.Lo, h.nurseryAlloc, h.oldFrom, h.oldAlloc
}

// ForceMajor makes the next collection escalate to a major one.
func (h *Heap) ForceMajor() { h.pendingOld = true }
