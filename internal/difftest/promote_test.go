package difftest

import (
	"strings"
	"testing"

	"repro/internal/gctab"
)

// Every promoted kernel replays divergence-free through the harness
// over the PR 5–9 dimension slice: output vs the unoptimized big-heap
// reference, collection counts and final heap images within each
// collector group (trace width, dispatcher, and collection mode must
// all be invisible), strict gcverify, and cache transparency.
func TestPromotedKernels(t *testing.T) {
	if n := len(Kernels()); n != 3 {
		t.Fatalf("%d promoted kernels, want 3 (one per construct)", n)
	}
	if n := len(KernelCells()); n != 17 {
		t.Fatalf("kernel matrix has %d cells, want 17", n)
	}
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			r := Execute(0, k.Source, Config{
				Schemes: []gctab.Scheme{DefaultKernelScheme},
				Cells:   KernelCells(),
			})
			if r.Cells != len(KernelCells()) {
				t.Fatalf("ran %d cells, want %d", r.Cells, len(KernelCells()))
			}
			for _, f := range r.Findings {
				t.Errorf("kernel %s: %s", k.Name, f)
			}
		})
	}
}

// The kernels must actually collect in every cell — an adversarial
// heap-shape benchmark that never moves its objects pins nothing.
// GcCollect() calls inside every kernel guarantee it structurally;
// this guards against the construct being optimized away.
func TestPromotedKernelsCollect(t *testing.T) {
	for _, k := range Kernels() {
		if !strings.Contains(k.Source, "GcCollect()") {
			t.Errorf("kernel %s has no forced collection", k.Name)
		}
		if !strings.Contains(k.Source, "SUBARRAY") && !strings.Contains(k.Source, "WITH ") {
			t.Errorf("kernel %s has no derived-pointer construct", k.Name)
		}
	}
}
