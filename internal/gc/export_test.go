package gc

import "sync/atomic"

// MinWordsPerWorker is the copy/fixup share below which the engine
// runs a phase inline, for the external tests that size a heap past it.
const MinWordsPerWorker = minWordsPerWorker

// CopyChunks reports how many chunks the copy and fixup phases cut the
// plan of sp's last collection into at the given width. The partition
// is a pure function of the plan, so this is the split those phases ran.
func CopyChunks(sp *CopySpace, workers int) int {
	var n atomic.Int32
	runChunks(sp, workers, func(*CopySpace, *markWorker, int, int) { n.Add(1) })
	return int(n.Load())
}

// SpaceOf returns the CopySpace c aims its collections with; after a
// collection it still holds the span and copy target that collection
// used.
func SpaceOf(c *Collector) *CopySpace { return &c.space }
