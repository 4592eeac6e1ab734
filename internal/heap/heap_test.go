package heap

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/types"
)

func testHeap(t *testing.T, words int64) (*Heap, *types.DescTable) {
	t.Helper()
	mem := make([]int64, 64+words)
	dt := types.NewDescTable()
	return New(mem, 64, 64+words, dt), dt
}

// evacuate copies the object at addr to the copy space at to the way
// the collector's copy phase does (payload moved, forwarding word
// -(to+1) in the old header), credits the survivor, and returns the
// next free copy-space address.
func evacuate(h *Heap, addr, to int64) int64 {
	size := h.Descs.SizeAt(h.Mem, addr)
	copy(h.Mem[to:to+size], h.Mem[addr:addr+size])
	h.Mem[addr] = -(to + 1)
	h.AddCopied(1)
	return to + size
}

func TestAllocLayout(t *testing.T) {
	h, dt := testHeap(t, 256)
	recID := dt.Intern(types.NewRecord([]types.Field{
		{Name: "a", Type: types.IntType},
		{Name: "p", Type: types.NewRef(types.IntType)},
	}))
	arrID := dt.Intern(types.NewOpenArray(types.IntType))

	r, ok := h.TryAlloc(recID, 0)
	if !ok {
		t.Fatal("alloc failed")
	}
	if h.Mem[r] != int64(recID) {
		t.Errorf("header %d", h.Mem[r])
	}
	if s := h.Descs.SizeAt(h.Mem, r); s != 3 {
		t.Errorf("record size %d, want 3", s)
	}

	a, ok := h.TryAlloc(arrID, 5)
	if !ok {
		t.Fatal("array alloc failed")
	}
	if h.Mem[a+1] != 5 {
		t.Errorf("length word %d", h.Mem[a+1])
	}
	if s := h.Descs.SizeAt(h.Mem, a); s != 7 {
		t.Errorf("array size %d, want 7", s)
	}
	if a != r+3 {
		t.Errorf("bump allocation not contiguous: %d then %d", r, a)
	}
	if !h.Contains(r) || !h.Contains(a) || h.Contains(a+100) {
		t.Error("Contains wrong")
	}
	if err := h.Check(); err != nil {
		t.Errorf("heap check: %v", err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	h, dt := testHeap(t, 64) // semispaces of 32 words
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))
	n := 0
	for {
		if _, ok := h.TryAlloc(recID, 0); !ok {
			break
		}
		n++
	}
	if n != 16 { // 32 words / 2 words per object
		t.Errorf("allocated %d objects, want 16", n)
	}
	if _, ok := h.TryAlloc(recID, 0); ok {
		t.Error("allocation succeeded after exhaustion")
	}
}

func TestNegativeArrayLength(t *testing.T) {
	h, dt := testHeap(t, 64)
	arrID := dt.Intern(types.NewOpenArray(types.IntType))
	if _, ok := h.TryAlloc(arrID, -1); ok {
		t.Error("negative length accepted")
	}
}

func TestCopyAndForward(t *testing.T) {
	h, dt := testHeap(t, 128)
	recID := dt.Intern(types.NewRecord([]types.Field{
		{Name: "a", Type: types.IntType},
		{Name: "b", Type: types.IntType},
	}))
	r, _ := h.TryAlloc(recID, 0)
	h.Mem[r+1] = 42
	h.Mem[r+2] = 43

	na := h.BeginCollection()
	if h.Mem[r] < 0 {
		t.Fatal("object forwarded before copy")
	}
	next := evacuate(h, r, na)
	if next != na+3 {
		t.Errorf("copy ended at %d, want %d", next, na+3)
	}
	if h.Mem[na+1] != 42 || h.Mem[na+2] != 43 {
		t.Error("payload not copied")
	}
	if f := -h.Mem[r] - 1; f != na {
		t.Errorf("forwarding %d, want %d", f, na)
	}
	h.FinishCollection(next)
	if h.Collections != 1 || h.LiveObjects != 1 {
		t.Errorf("collections %d, live objects %d, want 1 and 1", h.Collections, h.LiveObjects)
	}
	// The new allocation space starts after the copied data, zeroed.
	a2, ok := h.TryAlloc(recID, 0)
	if !ok || a2 != next {
		t.Errorf("post-flip allocation at %d, want %d", a2, next)
	}
	if h.Mem[a2+1] != 0 || h.Mem[a2+2] != 0 {
		t.Error("post-flip memory not zeroed")
	}
}

func TestPointerOffsetsHelpers(t *testing.T) {
	h, dt := testHeap(t, 256)
	listID := dt.Intern(types.NewRecord([]types.Field{
		{Name: "head", Type: types.IntType},
		{Name: "tail", Type: types.NewRef(types.IntType)},
	}))
	arrID := dt.Intern(types.NewOpenArray(types.NewRef(types.IntType)))

	r, _ := h.TryAlloc(listID, 0)
	offs := dt.PointerOffsets(h.Mem, r, nil)
	if len(offs) != 1 || offs[0] != 2 {
		t.Errorf("record pointer offsets %v, want [2]", offs)
	}
	a, _ := h.TryAlloc(arrID, 3)
	offs = dt.PointerOffsets(h.Mem, a, nil)
	if len(offs) != 3 || offs[0] != 2 || offs[2] != 4 {
		t.Errorf("array pointer offsets %v, want [2 3 4]", offs)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	h, dt := testHeap(t, 128)
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))
	r, _ := h.TryAlloc(recID, 0)
	h.Mem[r] = 999 // bogus descriptor
	if err := h.Check(); err == nil {
		t.Error("corrupted header not detected")
	}
}

// TestCumulativeCounters checks the incrementally maintained counters
// that telemetry snapshots read, so observers never need a heap walk.
func TestCumulativeCounters(t *testing.T) {
	h, dt := testHeap(t, 256)
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))

	var addrs []int64
	for i := 0; i < 5; i++ {
		a, ok := h.TryAlloc(recID, 0)
		if !ok {
			t.Fatal("alloc failed")
		}
		addrs = append(addrs, a)
	}
	if h.AllocatedObjects != 5 || h.LiveObjects != 5 {
		t.Errorf("allocated/live objects = %d/%d, want 5/5", h.AllocatedObjects, h.LiveObjects)
	}
	if h.AllocatedWords != 10 {
		t.Errorf("allocated words = %d, want 10 (5 × [header+field])", h.AllocatedWords)
	}
	if h.AllocatedBytes() != 10*WordBytes {
		t.Errorf("AllocatedBytes = %d, want %d", h.AllocatedBytes(), 10*WordBytes)
	}
	if h.LiveBytes() != 10*WordBytes {
		t.Errorf("LiveBytes = %d, want %d", h.LiveBytes(), 10*WordBytes)
	}

	// Collect with only two survivors: the live view shrinks, the
	// cumulative view does not.
	to := h.BeginCollection()
	next := to
	for _, a := range addrs[:2] {
		next = evacuate(h, a, next)
	}
	h.FinishCollection(next)
	if h.Collections != 1 {
		t.Errorf("collections = %d, want 1", h.Collections)
	}
	if h.LiveObjects != 2 {
		t.Errorf("live objects after gc = %d, want 2", h.LiveObjects)
	}
	if h.AllocatedObjects != 5 || h.AllocatedWords != 10 {
		t.Errorf("cumulative counters changed across gc: %d objects, %d words",
			h.AllocatedObjects, h.AllocatedWords)
	}
	if h.LiveBytes() != 4*WordBytes {
		t.Errorf("LiveBytes after gc = %d, want %d", h.LiveBytes(), 4*WordBytes)
	}

	// A second cycle resets the survivor count, not the totals.
	if _, ok := h.TryAlloc(recID, 0); !ok {
		t.Fatal("post-gc alloc failed")
	}
	if h.LiveObjects != 3 || h.AllocatedObjects != 6 {
		t.Errorf("after post-gc alloc: live %d total %d, want 3/6", h.LiveObjects, h.AllocatedObjects)
	}
}

// TestQuotaCapsAllocation: a quota below the semispace size caps the
// usable space, QuotaBlocked distinguishes quota failures from true
// exhaustion, and the cap survives a semispace flip.
func TestQuotaCapsAllocation(t *testing.T) {
	mem := make([]int64, 64+256)
	dt := types.NewDescTable()
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))
	h := NewQuota(mem, 64, 64+256, dt, 16) // semi = 128, quota = 16

	if h.Quota() != 16 {
		t.Fatalf("quota %d, want 16", h.Quota())
	}
	if h.Limit != h.FromLo+16 {
		t.Fatalf("limit %d, want %d", h.Limit, h.FromLo+16)
	}
	// Each record is 2 words (header + field): 8 fit, the 9th does not.
	for i := 0; i < 8; i++ {
		if _, ok := h.TryAlloc(recID, 0); !ok {
			t.Fatalf("alloc %d failed inside quota", i)
		}
	}
	if _, ok := h.TryAlloc(recID, 0); ok {
		t.Fatal("allocation beyond quota succeeded")
	}
	if !h.QuotaBlocked(recID, 0) {
		t.Error("QuotaBlocked false for a quota-capped failure")
	}
	// An object too big even for the full semispace is not a quota
	// failure.
	arrID := dt.Intern(types.NewOpenArray(types.IntType))
	if h.QuotaBlocked(arrID, 1000) {
		t.Error("QuotaBlocked true for an allocation no semispace could hold")
	}
	// The cap survives FinishCollection's semispace flip.
	h.FinishCollection(h.BeginCollection())
	if h.Limit != h.FromLo+16 {
		t.Errorf("post-flip limit %d, want %d", h.Limit, h.FromLo+16)
	}
}

// TestQuotaUncappedNeverBlocked: without a quota, QuotaBlocked is
// always false — exhaustion is real out-of-memory.
func TestQuotaUncappedNeverBlocked(t *testing.T) {
	h, dt := testHeap(t, 64)
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))
	for {
		if _, ok := h.TryAlloc(recID, 0); !ok {
			break
		}
	}
	if h.QuotaBlocked(recID, 0) {
		t.Error("QuotaBlocked true on an uncapped heap")
	}
}

// TestQuotaSiblingIsolation is the multi-tenant regression: one heap
// exhausting its quota must leave a sibling heap (its own memory, its
// own quota) completely untouched.
func TestQuotaSiblingIsolation(t *testing.T) {
	dt := types.NewDescTable()
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))
	newTenant := func() *Heap {
		return NewQuota(make([]int64, 64+256), 64, 64+256, dt, 16)
	}
	a, b := newTenant(), newTenant()

	// Fill b with a recognizable pattern first.
	addr, ok := b.TryAlloc(recID, 0)
	if !ok {
		t.Fatal("sibling alloc failed")
	}
	b.Mem[addr+1] = 0x5eed
	snapshot := append([]int64(nil), b.Mem...)

	// Exhaust a past its quota.
	for {
		if _, ok := a.TryAlloc(recID, 0); !ok {
			break
		}
	}
	if !a.QuotaBlocked(recID, 0) {
		t.Fatal("tenant a's failure not attributed to its quota")
	}

	// b's memory and accounting are untouched, and it can still allocate.
	for i, w := range b.Mem {
		if w != snapshot[i] {
			t.Fatalf("sibling word %d changed: %d -> %d", i, snapshot[i], w)
		}
	}
	if b.LiveObjects != 1 || b.Mem[addr+1] != 0x5eed {
		t.Fatal("sibling accounting or payload damaged")
	}
	if _, ok := b.TryAlloc(recID, 0); !ok {
		t.Error("sibling can no longer allocate")
	}
}

// TestMarkSetOrderedIteration pins the property the copy plan rests on:
// reading the bitmap back yields exactly the claimed addresses, each
// once, ascending — whichever claim flavour set the bit — including in
// the last, partial bitmap word and after a Reset to a smaller span
// that leaves stale capacity behind.
func TestMarkSetOrderedIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewMarkSet(0, 0)
	for _, span := range [][2]int64{{100, 100 + 64*9 + 5}, {40, 40 + 64 + 3}, {7, 7 + 1}, {7, 7}} {
		lo, hi := span[0], span[1]
		s.Reset(lo, hi)
		if s.Len() != 0 || len(s.AppendTo(nil)) != 0 {
			t.Fatalf("[%d,%d): Reset left %d addresses claimed", lo, hi, s.Len())
		}
		var want []int64
		claim := func(a int64, serial bool) {
			first := !slices.Contains(want, a)
			got := false
			if serial {
				got = s.ClaimSerial(a)
			} else {
				got = s.Claim(a)
			}
			if got != first {
				t.Fatalf("[%d,%d): claim of %d (serial=%v) returned %v, want %v", lo, hi, a, serial, got, first)
			}
			if first {
				want = append(want, a)
			}
		}
		if hi > lo {
			claim(hi-1, true) // the last address of the last partial word
			claim(lo, false)
			for i := 0; i < int(hi-lo); i++ {
				claim(lo+rng.Int63n(hi-lo), i%2 == 0)
			}
		}
		slices.Sort(want)
		if got := s.AppendTo(nil); !slices.Equal(got, want) {
			t.Fatalf("[%d,%d): AppendTo = %v, want the sorted claims %v", lo, hi, got, want)
		}
		if s.Len() != len(want) {
			t.Fatalf("[%d,%d): Len = %d, want %d", lo, hi, s.Len(), len(want))
		}
		for _, a := range want {
			if !s.Marked(a) {
				t.Fatalf("[%d,%d): %d claimed but not Marked", lo, hi, a)
			}
		}
		if pre := s.AppendTo([]int64{-1}); len(pre) != len(want)+1 || pre[0] != -1 {
			t.Fatalf("[%d,%d): AppendTo clobbered its prefix: %v", lo, hi, pre)
		}
	}
}

// TestMarkSetConcurrentClaim: racing workers claim overlapping addresses
// and exactly one wins each; the set read back is the union.
func TestMarkSetConcurrentClaim(t *testing.T) {
	const lo, n, workers = 64, 5000, 4
	s := NewMarkSet(lo, lo+n)
	wins := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := int64(lo); a < lo+n; a++ {
				if a%3 != 0 && s.Claim(a) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total, want := 0, 0
	for _, k := range wins {
		total += k
	}
	for a := lo; a < lo+n; a++ {
		if a%3 != 0 {
			want++
		}
	}
	got := s.AppendTo(nil)
	if total != want || s.Len() != want || len(got) != want {
		t.Fatalf("%d claims won, Len %d, %d read back, want %d each", total, s.Len(), len(got), want)
	}
	if !slices.IsSorted(got) {
		t.Fatal("AppendTo not ascending")
	}
}

// flipWorld drives a heap through mutator phases and collections the way
// a collector would, writing a nonzero payload into everything it
// allocates so that a word the flip failed to clear cannot hide.
type flipWorld struct {
	t     *testing.T
	h     *Heap
	recID int
	live  []int64
}

func newFlipWorld(t *testing.T, words, quota int64) *flipWorld {
	t.Helper()
	mem := make([]int64, 64+words)
	dt := types.NewDescTable()
	recID := dt.Intern(types.NewRecord([]types.Field{
		{Name: "a", Type: types.IntType},
		{Name: "b", Type: types.IntType},
	}))
	return &flipWorld{t: t, h: NewQuota(mem, 64, 64+words, dt, quota), recID: recID}
}

// run allocates up to n records (fewer if the space fills) and reports
// how many it got.
func (w *flipWorld) run(n int) int {
	for i := 0; i < n; i++ {
		a, ok := w.h.TryAlloc(w.recID, 0)
		if !ok {
			return i
		}
		w.h.Mem[a+1], w.h.Mem[a+2] = -7, int64(len(w.live))+1
		w.live = append(w.live, a)
	}
	return n
}

// collect keeps the first keep live records, flips, and checks both the
// heap's own invariants and the stronger one they stand for: every word
// of the new allocation space past the survivors is zero, quota or not.
func (w *flipWorld) collect(keep int) {
	w.t.Helper()
	h := w.h
	if keep > len(w.live) {
		keep = len(w.live)
	}
	next := h.BeginCollection()
	for i, a := range w.live[:keep] {
		w.live[i], next = next, evacuate(h, a, next)
	}
	w.live = w.live[:keep]
	h.FinishCollection(next)
	if err := h.Check(); err != nil {
		w.t.Fatalf("after collection %d: %v", h.Collections, err)
	}
	for i := h.Alloc; i < h.FromLo+h.semi; i++ {
		if h.Mem[i] != 0 {
			w.t.Fatalf("after collection %d: word %d of the free space holds %d (alloc %d, limit %d)",
				h.Collections, i, h.Mem[i], h.Alloc, h.Limit)
		}
	}
	for i, a := range w.live {
		if h.Mem[a+1] != -7 || h.Mem[a+2] != int64(i)+1 {
			w.t.Fatalf("after collection %d: survivor %d at %d holds (%d, %d)", h.Collections, i, a, h.Mem[a+1], h.Mem[a+2])
		}
	}
}

// TestFlipClearsWhatWasDirtied covers the dirty-extent flip: the space
// a collection flips to is cleared exactly as far as the mutator wrote
// when it last allocated there, whatever the lengths of the phases on
// either side.
func TestFlipClearsWhatWasDirtied(t *testing.T) {
	t.Run("short run after a full one", func(t *testing.T) {
		w := newFlipWorld(t, 600, 0)
		if got := w.run(1000); got != 100 {
			t.Fatalf("filled the 300-word semispace with %d records, want 100", got)
		}
		w.collect(3) // space A dirty to its end; now allocating in B
		w.run(2)
		w.collect(4) // back to A: everything past 4 survivors is stale
		w.run(2)
		w.collect(1) // back to B: it was dirtied for only 5 records
	})
	t.Run("full run after a short one", func(t *testing.T) {
		w := newFlipWorld(t, 600, 0)
		w.run(2)
		w.collect(2)
		if got := w.run(1000); got != 98 {
			t.Fatalf("filled the rest of the semispace with %d records, want 98", got)
		}
		w.collect(50) // to A, dirtied for 2 records: the survivors overrun its mark
		w.run(1000)
		w.collect(0) // to B, dirty to its end, nothing survives
		if w.h.Alloc != w.h.FromLo {
			t.Fatalf("alloc %d after an empty collection, want %d", w.h.Alloc, w.h.FromLo)
		}
	})
	t.Run("quota below the semispace end", func(t *testing.T) {
		w := newFlipWorld(t, 600, 30)
		for round := 0; round < 6; round++ {
			if got := w.run(1000); len(w.live) != 10 {
				t.Fatalf("round %d: %d live records after allocating %d, want the quota's 10", round, len(w.live), got)
			}
			w.collect(round % 4)
		}
		if w.h.Limit != w.h.FromLo+30 {
			t.Fatalf("limit %d, want %d", w.h.Limit, w.h.FromLo+30)
		}
	})
	t.Run("alternating long and short phases", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		w := newFlipWorld(t, 2000, 0)
		for round := 0; round < 200; round++ {
			n := 1 + rng.Intn(4)
			if round%3 == 0 {
				n = 50 + rng.Intn(400)
			}
			w.run(n)
			w.collect(rng.Intn(len(w.live) + 1))
		}
	})
}

// TestCheckRejectsDirtyFreeSpace: Check must see a stray word anywhere
// in [Alloc, Limit) — the allocators hand that memory out as zeroed.
func TestCheckRejectsDirtyFreeSpace(t *testing.T) {
	w := newFlipWorld(t, 600, 0)
	w.run(5)
	w.collect(2)
	for _, at := range []int64{w.h.Alloc, w.h.Alloc + 17, w.h.Limit - 1} {
		w.h.Mem[at] = 1
		if err := w.h.Check(); err == nil {
			t.Errorf("Check accepted a nonzero word at %d (alloc %d, limit %d)", at, w.h.Alloc, w.h.Limit)
		}
		w.h.Mem[at] ^= 1
	}
	if err := w.h.Check(); err != nil {
		t.Fatalf("Check after restoring the words: %v", err)
	}
}
