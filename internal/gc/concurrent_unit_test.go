package gc

// White-box tests for the concurrent cycle's building blocks: the SATB
// hook, black allocation, and the bounded mark increment. They drive
// Cycle itself, the one engine both precise collectors embed, so they
// pin the hook semantics for gc and gengc at once. The end-to-end
// behavior (hostile mutators, superblock-dispatch stores, soak) lives in
// concurrent_test.go and gengc's concurrent tests.

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

// armed returns a cycle hand-armed over h, as Start leaves it when no
// root references anything.
func armed(h *heap.Heap) *Cycle {
	sp := &CopySpace{Mem: h.Mem, InFrom: h.Contains, PtrOffsets: h.PointerOffsets, Marks: new(heap.MarkSet)}
	sp.Marks.Reset(h.FromLo, h.Limit)
	return &Cycle{sp: sp, probes: &Probes{}}
}

func TestSATBRecordClaimsOnce(t *testing.T) {
	h := concTestHeap(t)
	a := allocPair(t, h, 1, 0)
	c := armed(h)
	marks := c.sp.Marks

	c.satbRecord(a)
	if !marks.Marked(a) {
		t.Fatalf("overwritten value %d not claimed by the SATB hook", a)
	}
	if c.SATBLogged != 1 || len(c.satb) != 1 || marks.Len() != 1 {
		t.Fatalf("first log: SATBLogged=%d satb=%d marked=%d, want 1/1/1",
			c.SATBLogged, len(c.satb), marks.Len())
	}
	// Claim-on-log: relogging the same value must not grow the buffer —
	// that is what bounds it by the object count, not the store count.
	c.satbRecord(a)
	if c.SATBLogged != 1 || len(c.satb) != 1 {
		t.Fatalf("relog grew the buffer: SATBLogged=%d satb=%d, want 1/1",
			c.SATBLogged, len(c.satb))
	}
}

func TestSATBRecordIgnoresNonHeapValues(t *testing.T) {
	h := concTestHeap(t)
	c := armed(h)
	for _, v := range []int64{0, 1, h.FromLo - 1, h.Alloc, h.Limit + 10} {
		c.satbRecord(v)
	}
	if c.SATBLogged != 0 || len(c.satb) != 0 {
		t.Fatalf("non-heap values logged: SATBLogged=%d satb=%d", c.SATBLogged, len(c.satb))
	}
}

func TestSATBRecordOffOutsideCycle(t *testing.T) {
	h := concTestHeap(t)
	a := allocPair(t, h, 1, 0)
	c := armed(h)
	marks := c.sp.Marks
	c.sp = nil
	// No cycle armed: both hooks must be inert (the machine also nils
	// m.SATB and m.AllocMark at FinishCycle; this guards the window
	// either side).
	c.satbRecord(a)
	c.blackAlloc(a)
	if c.SATBLogged != 0 || marks.Marked(a) {
		t.Fatalf("hooks recorded outside a cycle (logged=%d marked=%v)",
			c.SATBLogged, marks.Marked(a))
	}
}

func TestBlackAllocMarksWithoutGraying(t *testing.T) {
	h := concTestHeap(t)
	c := armed(h)
	a := allocPair(t, h, 1, 0)
	c.blackAlloc(a)
	if !c.sp.Marks.Marked(a) {
		t.Fatalf("black allocation %d not claimed", a)
	}
	if len(c.gray) != 0 || len(c.satb) != 0 {
		t.Fatalf("black allocation grayed: gray=%d satb=%d", len(c.gray), len(c.satb))
	}
	if c.sp.Marks.Len() != 1 {
		t.Fatalf("black allocation not recorded for copy: marked=%d", c.sp.Marks.Len())
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
	marks := c.sp.Marks
	c.MarkBudget = 1
	// Seed the chain head as the initial pause would.
	marks.Claim(c3)
	c.gray = append(c.gray, c3)
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
		if !marks.Marked(a) {
			t.Fatalf("object %d unmarked after drain", a)
		}
	}
	if marks.Len() != 5 {
		t.Fatalf("mark set holds %d objects, want 5", marks.Len())
	}
}
