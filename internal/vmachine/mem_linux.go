//go:build linux && !race

package vmachine

import (
	"runtime"
	"syscall"
	"unsafe"

	"repro/internal/heap"
)

// mapping is the owner of a machine's memory image: one anonymous
// private mapping, zero-filled by the kernel and backed by a page only
// once a word on it is written, so a machine costs the pages it touches
// rather than its whole configured size. Everything that keeps a view
// of Mem references the mapping too (the Machine, and the heap the
// driver builds over it, through MemOwner), and only its finalizer
// unmaps: a view can never outlive the memory it reads.
type mapping struct{ b []byte }

// newMem returns a zeroed image of words words and its owner. If the
// kernel refuses the mapping, the image is made on the Go heap, as
// other builds do, and has no owner.
func newMem(words int64) ([]int64, *mapping) {
	b, err := syscall.Mmap(-1, 0, int(words*heap.WordBytes), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]int64, words), nil
	}
	mp := &mapping{b}
	runtime.SetFinalizer(mp, func(mp *mapping) {
		// A failed unmap leaves the range mapped; a finalizer has no
		// one to report that to.
		_ = syscall.Munmap(mp.b)
	})
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), words), mp
}

// release returns the image's pages to the kernel. The range stays
// mapped and reads as zero, so a stale view cannot fault.
func (mp *mapping) release() {
	if mp != nil {
		// On failure the pages go back when the finalizer unmaps them.
		_ = syscall.Madvise(mp.b, syscall.MADV_DONTNEED)
	}
}
