package gcserve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vmachine"
)

// nilSrc runs a loop, then dereferences NIL.
const nilSrc = `
MODULE Nil;
TYPE Cell = REF RECORD v: INTEGER; END;
VAR p: Cell; i, s: INTEGER;
BEGIN
  FOR i := 1 TO 2000 DO p := NEW(Cell); s := s + i; END;
  p := NIL;
  PutInt(p.v);
END Nil.
`

// residentMachines returns the machines of the tenants resident now.
func residentMachines(s *Server) []*vmachine.Machine {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ms []*vmachine.Machine
	for _, t := range s.pool {
		ms = append(ms, t.m)
	}
	return ms
}

// waitResident waits until n tenants are resident and returns their
// machines.
func waitResident(t *testing.T, s *Server, n int) []*vmachine.Machine {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if ms := residentMachines(s); len(ms) >= n {
			return ms
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d tenants resident", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// heldImages counts the machines of ms that still hold their memory
// image: those nothing has closed.
func heldImages(ms []*vmachine.Machine) int {
	n := 0
	for _, m := range ms {
		if m.Mem != nil {
			n++
		}
	}
	return n
}

// TestTenantLifecycleReleasesImages: every way a tenant leaves the
// server closes its machine, so no departed tenant keeps pages until
// the garbage collector finds it — a closed session, a session retired
// by a trap, a one-shot run retired by completion, and one-shot runs
// cut short by Server.Close while they execute.
func TestTenantLifecycleReleasesImages(t *testing.T) {
	s := New(Config{HeapWords: 1024, Workers: 2, Fuel: 97})
	defer s.Close()
	mustRegister(t, s, "work", sumSrc(2000), DefaultOptions())
	mustRegister(t, s, "nil", nilSrc, DefaultOptions())
	mustRegister(t, s, "long", sumSrc(200_000), DefaultOptions())

	t.Run("CloseSession", func(t *testing.T) {
		id, err := s.OpenSession("work")
		if err != nil {
			t.Fatal(err)
		}
		if res, err := s.Resume(id, 500); err != nil || res.Done {
			t.Fatalf("resume: %+v, %v; want a parked session", res, err)
		}
		ms := residentMachines(s)
		if err := s.CloseSession(id); err != nil {
			t.Fatal(err)
		}
		if n := heldImages(ms); n != 0 {
			t.Errorf("%d images held after CloseSession", n)
		}
	})

	t.Run("retire after trap", func(t *testing.T) {
		id, err := s.OpenSession("nil")
		if err != nil {
			t.Fatal(err)
		}
		ms := residentMachines(s)
		res, err := s.Resume(id, 0)
		if err != nil || res.Trap != vmachine.TrapNilDeref.String() {
			t.Fatalf("resume: %+v, %v; want a nil-dereference trap", res, err)
		}
		if n := heldImages(ms); n != 0 {
			t.Errorf("%d images held after the trapped session retired", n)
		}
	})

	t.Run("retire after completion", func(t *testing.T) {
		done := make(chan RunResult, 1)
		go func() {
			res, _ := s.RunProgram("long")
			done <- res
		}()
		ms := waitResident(t, s, 1)
		if res := <-done; res.Output != sumWant(200_000) {
			t.Fatalf("output %q, want %q", res.Output, sumWant(200_000))
		}
		if n := heldImages(ms); n != 0 {
			t.Errorf("%d images held after the run retired", n)
		}
	})

	t.Run("Server.Close while running", func(t *testing.T) {
		const runs = 6
		var wg sync.WaitGroup
		var cut atomic.Int32
		for i := 0; i < runs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.RunProgram("long")
				if err != nil {
					t.Error(err)
				}
				if res.Trap == ErrShutdown.Error() {
					cut.Add(1)
				}
			}()
		}
		ms := waitResident(t, s, runs)
		s.Close()
		wg.Wait()
		if cut.Load() == 0 {
			t.Fatal("Server.Close cut no run short")
		}
		if n := heldImages(ms); n != 0 {
			t.Errorf("%d of %d images held after Server.Close", n, runs)
		}
	})
}
