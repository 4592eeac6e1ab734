package vmachine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/types"
)

// scriptAlloc fails its first `failures` TryAlloc calls, then bumps.
// It lets the collect-and-retry state machine be driven one transition
// at a time without a real heap.
type scriptAlloc struct {
	failures int
	next     int64
	quota    bool // QuotaBlocked answer when also used as a QuotaChecker
}

func (a *scriptAlloc) TryAlloc(descID int, n int64) (int64, bool) {
	if a.failures > 0 {
		a.failures--
		return 0, false
	}
	addr := a.next
	a.next += 8
	return addr, true
}

// quotaAlloc is scriptAlloc plus the QuotaChecker answer.
type quotaAlloc struct{ scriptAlloc }

func (a *quotaAlloc) QuotaBlocked(descID int, n int64) bool { return a.quota }

// newAllocMachine builds a machine whose program is a single NEWREC,
// with `threads` spawned and the given allocator attached.
func newAllocMachine(t *testing.T, alloc Allocator, threads int) (*Machine, []*Thread) {
	t.Helper()
	prog := buildProgram(t, []Instr{{Op: OpNewRec, Rd: 3}, {Op: OpRet}}, 0, 8)
	m := New(prog, Config{HeapWords: 1024, StackWords: 1024, MaxThreads: threads})
	m.Alloc = alloc
	m.Collector = nopCollector{}
	var ts []*Thread
	for i := 0; i < threads; i++ {
		th, err := m.Spawn(0)
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, th)
	}
	return m, ts
}

// TestAllocateWithParkedSiblingCollectsDirectly is the regression test
// for the runnable-thread check: it used to filter only Done threads, so a
// parked (Blocked) sibling counted as runnable and a failing
// allocation would start a rendezvous with a thread that can never
// reach a gc-point — waking the sibling as a side effect. With the
// fix, a thread whose only sibling is parked is effectively alone: it
// collects directly, the sibling stays parked, and no rendezvous is
// requested.
func TestAllocateWithParkedSiblingCollectsDirectly(t *testing.T) {
	alloc := &scriptAlloc{failures: 1, next: 512}
	m, ts := newAllocMachine(t, alloc, 2)
	main, sibling := ts[0], ts[1]
	sibling.Blocked = true
	m.Cur = main

	if err := m.allocate(main, 3, 0, 0); err != nil {
		t.Fatalf("allocate: %v", err)
	}
	if m.GCRequested {
		t.Error("allocation requested a rendezvous with no runnable sibling")
	}
	if main.Blocked {
		t.Error("allocating thread parked instead of collecting directly")
	}
	if !sibling.Blocked {
		t.Error("parked sibling was disturbed")
	}
	if m.GCCount != 1 {
		t.Errorf("GCCount = %d, want 1 direct collection", m.GCCount)
	}
	if main.Regs[3] == 0 {
		t.Error("allocation did not complete after the direct collection")
	}
}

// TestRunnableExcludesParked pins the documented contract directly:
// neither a finished nor a parked thread counts as runnable.
func TestRunnableExcludesParked(t *testing.T) {
	m, ts := newAllocMachine(t, &scriptAlloc{next: 512}, 3)
	ts[0].Done = true
	ts[1].Blocked = true
	if m.othersRunnable(ts[2]) {
		t.Error("a done and a parked sibling counted as runnable")
	}
	if !m.othersRunnable(ts[0]) || !m.othersRunnable(ts[1]) {
		t.Error("the live unparked thread did not count as runnable")
	}
}

// TestSlowPathAllocationAllocs: an allocation that fails, collects, and
// retries on a single-threaded machine allocates nothing on the Go heap
// (deciding whether to rendezvous used to build a slice of runnable
// threads on every slow-path allocation).
func TestSlowPathAllocationAllocs(t *testing.T) {
	alloc := &scriptAlloc{next: 512}
	m, ts := newAllocMachine(t, alloc, 1)
	main := ts[0]
	m.Cur = main
	pc := main.PC
	allocs := testing.AllocsPerRun(100, func() {
		alloc.failures, alloc.next, main.PC = 1, 512, pc
		if err := m.allocate(main, 3, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if m.GCCount == 0 || main.PC != pc+1 {
		t.Fatalf("slow path did not collect and complete (GCCount %d)", m.GCCount)
	}
	if allocs != 0 {
		t.Errorf("slow-path allocation made %v Go allocations, want 0", allocs)
	}
}

// TestAllocRetryAfterRendezvous drives the allocRetried state machine
// through its success path: fail → request rendezvous (PC unchanged,
// thread parked, allocRetried set) → collection → retry succeeds
// (register written, PC advanced, allocRetried cleared).
func TestAllocRetryAfterRendezvous(t *testing.T) {
	alloc := &scriptAlloc{failures: 1, next: 512}
	m, ts := newAllocMachine(t, alloc, 2)
	main := ts[0]
	m.Cur = main
	pc := main.PC

	if err := m.allocate(main, 3, 0, 0); err != nil {
		t.Fatalf("first allocate: %v", err)
	}
	if !m.GCRequested || m.Requester != main {
		t.Fatal("failed allocation with a runnable sibling must request a rendezvous")
	}
	if !main.Blocked || !main.allocRetried {
		t.Fatal("requester must park with allocRetried set")
	}
	if main.PC != pc {
		t.Fatal("PC must not advance on the rendezvous path (the NEW re-executes)")
	}

	// Complete the rendezvous the way run() does.
	m.Cur = m.Requester
	if err := m.Collector.Collect(m); err != nil {
		t.Fatal(err)
	}
	m.GCCount++
	m.GCRequested = false
	main.Blocked = false
	m.Requester = nil

	if err := m.allocate(main, 3, 0, 0); err != nil {
		t.Fatalf("retry allocate: %v", err)
	}
	if main.Regs[3] == 0 || main.PC != pc+1 {
		t.Error("retry must complete the allocation and advance PC")
	}
	if main.allocRetried {
		t.Error("allocRetried must clear on success")
	}
}

// TestAllocRetryDoubleFailure covers the terminal transitions: a
// retry that fails again is a trap — quota when the allocator blames
// its quota, out-of-memory otherwise — and never a second collection.
func TestAllocRetryDoubleFailure(t *testing.T) {
	t.Run("out-of-memory", func(t *testing.T) {
		alloc := &scriptAlloc{failures: 99, next: 512}
		m, ts := newAllocMachine(t, alloc, 1)
		m.Cur = ts[0]
		err := m.allocate(ts[0], 3, 0, 0)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != TrapOutOfMemory {
			t.Fatalf("got %v, want TrapOutOfMemory", err)
		}
		if m.GCCount != 1 {
			t.Errorf("GCCount = %d; a failed retry must not collect again", m.GCCount)
		}
	})
	t.Run("quota", func(t *testing.T) {
		alloc := &quotaAlloc{scriptAlloc{failures: 99, next: 512, quota: true}}
		m, ts := newAllocMachine(t, alloc, 1)
		m.Cur = ts[0]
		err := m.allocate(ts[0], 3, 0, 0)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != TrapQuotaExceeded {
			t.Fatalf("got %v, want TrapQuotaExceeded", err)
		}
	})
	t.Run("rendezvous-then-failure", func(t *testing.T) {
		alloc := &scriptAlloc{failures: 99, next: 512}
		m, ts := newAllocMachine(t, alloc, 2)
		main := ts[0]
		m.Cur = main
		if err := m.allocate(main, 3, 0, 0); err != nil {
			t.Fatalf("first allocate: %v", err)
		}
		m.Cur = m.Requester
		if err := m.Collector.Collect(m); err != nil {
			t.Fatal(err)
		}
		m.GCCount++
		m.GCRequested = false
		main.Blocked = false
		m.Requester = nil
		err := m.allocate(main, 3, 0, 0)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != TrapOutOfMemory {
			t.Fatalf("retry got %v, want TrapOutOfMemory", err)
		}
		if main.allocRetried {
			t.Error("allocRetried must clear on the failure path")
		}
	})
}

// putTextMachine builds the TestPutTextAndChars fixture — a hand-laid
// text object — with the length word overridden, so corrupt headers
// can be fed straight to PUTTEXT.
func putTextMachine(t *testing.T, length int64) *Machine {
	t.Helper()
	prog := buildProgram(t, []Instr{
		{Op: OpMovI, Rd: 3, Imm: 0}, // patched to the object address
		{Op: OpPutText, Ra: 3},
		{Op: OpRet},
	}, 0, 8)
	dt := types.NewDescTable()
	descID := dt.Intern(types.NewOpenArray(types.CharType))
	prog.Descs = dt
	m := New(prog, Config{HeapWords: 256, StackWords: 256, MaxThreads: 1})
	m.Alloc = &fixedAlloc{next: m.HeapLo}
	m.Collector = nopCollector{}
	addr := m.HeapLo
	m.Mem[addr] = int64(descID)
	m.Mem[addr+1] = length
	m.Mem[addr+2] = 'h'
	m.Mem[addr+3] = 'i'
	m.Prog.Code[2].Imm = addr
	if _, err := m.Spawn(0); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPutTextCorruptLength is the regression test for the putText
// length bug: a negative length word used to panic make([]byte, n) and
// a huge one ballooned host memory before the reads failed. Both are
// now range traps raised before any allocation.
func TestPutTextCorruptLength(t *testing.T) {
	for _, length := range []int64{-5, 1 << 40, int64(1) << 62} {
		m := putTextMachine(t, length)
		err := m.Run(1000)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != TrapRangeError {
			t.Errorf("length %d: got %v, want TrapRangeError", length, err)
		}
	}
}

// failWriter errors on every write.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("sink closed") }

// TestPutTextWriteError: a failing output sink used to be silently
// discarded; it must surface as a run error.
func TestPutTextWriteError(t *testing.T) {
	m := putTextMachine(t, 2)
	m.Out = failWriter{}
	err := m.Run(1000)
	if err == nil || !strings.Contains(err.Error(), "PutText write") {
		t.Fatalf("got %v, want a surfaced PutText write error", err)
	}
}
