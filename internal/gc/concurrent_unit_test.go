package gc

// White-box tests for the concurrent cycle's building blocks: the SATB
// hook, black allocation, and the bounded mark increment. The
// end-to-end behavior (hostile mutators, superblock-dispatch stores, soak)
// lives in concurrent_test.go; these pin the hook semantics directly.

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/types"
)

// pairDesc is a two-word record: payload word 0 an integer, payload
// word 1 a pointer.
func concTestHeap(t *testing.T) *heap.Heap {
	t.Helper()
	descs := &types.DescTable{Descs: []*types.Desc{
		{ID: 0, Kind: types.DescRecord, Name: "Pair", DataWords: 2, PtrOffsets: []int64{1}},
	}}
	mem := make([]int64, 256)
	return heap.New(mem, 32, 224, descs)
}

// allocPair allocates one Pair{n, next} and returns its address.
func allocPair(t *testing.T, h *heap.Heap, n, next int64) int64 {
	t.Helper()
	addr, ok := h.TryAlloc(0, 0)
	if !ok {
		t.Fatal("test heap exhausted")
	}
	h.Mem[addr+1] = n
	h.Mem[addr+2] = next
	return addr
}

// armed returns a collector with an active (hand-armed) cycle over h.
func armed(h *heap.Heap) *Collector {
	c := &Collector{Heap: h}
	c.marks.Reset(h.FromLo, h.Limit)
	c.cyc = &concCycle{}
	return c
}

func TestSATBRecordClaimsOnce(t *testing.T) {
	h := concTestHeap(t)
	a := allocPair(t, h, 1, 0)
	c := armed(h)

	c.satbRecord(a)
	if !c.marks.Marked(a) {
		t.Fatalf("overwritten value %d not claimed by the SATB hook", a)
	}
	if c.SATBLogged != 1 || len(c.cyc.satb) != 1 || c.marks.Len() != 1 {
		t.Fatalf("first log: SATBLogged=%d satb=%d marked=%d, want 1/1/1",
			c.SATBLogged, len(c.cyc.satb), c.marks.Len())
	}
	// Claim-on-log: relogging the same value must not grow the buffer —
	// that is what bounds it by the object count, not the store count.
	c.satbRecord(a)
	if c.SATBLogged != 1 || len(c.cyc.satb) != 1 {
		t.Fatalf("relog grew the buffer: SATBLogged=%d satb=%d, want 1/1",
			c.SATBLogged, len(c.cyc.satb))
	}
}

func TestSATBRecordIgnoresNonHeapValues(t *testing.T) {
	h := concTestHeap(t)
	c := armed(h)
	for _, v := range []int64{0, 1, h.FromLo - 1, h.Alloc, h.Limit + 10} {
		c.satbRecord(v)
	}
	if c.SATBLogged != 0 || len(c.cyc.satb) != 0 {
		t.Fatalf("non-heap values logged: SATBLogged=%d satb=%d", c.SATBLogged, len(c.cyc.satb))
	}
}

func TestSATBRecordOffOutsideCycle(t *testing.T) {
	h := concTestHeap(t)
	a := allocPair(t, h, 1, 0)
	c := &Collector{Heap: h}
	c.marks.Reset(h.FromLo, h.Limit)
	// No cycle armed: the hook must be inert (the machine also nils
	// m.SATB at FinishCycle; this guards the window either side).
	c.satbRecord(a)
	if c.SATBLogged != 0 || c.marks.Marked(a) {
		t.Fatalf("SATB hook recorded outside a cycle (logged=%d marked=%v)",
			c.SATBLogged, c.marks.Marked(a))
	}
}

func TestBlackAllocMarksWithoutGraying(t *testing.T) {
	h := concTestHeap(t)
	c := armed(h)
	a := allocPair(t, h, 1, 0)
	c.blackAlloc(a)
	if !c.marks.Marked(a) {
		t.Fatalf("black allocation %d not claimed", a)
	}
	if len(c.cyc.gray) != 0 || len(c.cyc.satb) != 0 {
		t.Fatalf("black allocation grayed: gray=%d satb=%d", len(c.cyc.gray), len(c.cyc.satb))
	}
	if c.marks.Len() != 1 {
		t.Fatalf("black allocation not recorded for copy: marked=%d", c.marks.Len())
	}
}

func TestMarkStepBoundedAndFoldsSATB(t *testing.T) {
	h := concTestHeap(t)
	// A chain c3 -> c2 -> c1 plus two standalone cells logged via SATB.
	c1 := allocPair(t, h, 1, 0)
	c2 := allocPair(t, h, 2, c1)
	c3 := allocPair(t, h, 3, c2)
	s1 := allocPair(t, h, 4, 0)
	s2 := allocPair(t, h, 5, 0)

	c := armed(h)
	c.MarkBudget = 1
	// Seed the chain head as the initial pause would.
	c.marks.Claim(c3)
	c.cyc.gray = append(c.cyc.gray, c3)
	// Mutator overwrites two references mid-mark.
	c.satbRecord(s1)
	c.satbRecord(s2)

	steps := 0
	for {
		done, err := c.MarkStep(nil)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
		if steps > 20 {
			t.Fatal("mark never terminated")
		}
	}
	// Budget 1 scans one object per increment: the SATB fold plus the
	// chain need strictly more than one step.
	if steps < 3 {
		t.Fatalf("budget 1 finished in %d steps; increments are not bounded", steps)
	}
	for _, a := range []int64{c1, c2, c3, s1, s2} {
		if !c.marks.Marked(a) {
			t.Fatalf("object %d unmarked after drain", a)
		}
	}
	if c.marks.Len() != 5 {
		t.Fatalf("mark set holds %d objects, want 5", c.marks.Len())
	}
}
