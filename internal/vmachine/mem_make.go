//go:build !linux || race

package vmachine

// mapping is the owner of a memory image made by the Go allocator:
// nothing, since the garbage collector frees the slice. Race builds
// take this path on purpose, because the race detector watches only
// memory in the Go heap.
type mapping struct{}

func newMem(words int64) ([]int64, *mapping) { return make([]int64, words), nil }

func (*mapping) release() {}
