package gcserve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vmachine"
)

// TestTenantRunsFused pins what a tenant machine is: untraced, on the
// shared dispatch table with its superblock runs, and — sliced by the
// scheduler — indistinguishable from the same program driven by a plain
// RunFuel loop at the same fuel, or not sliced at all.
func TestTenantRunsFused(t *testing.T) {
	const fuel = 97
	for _, generational := range []bool{false, true} {
		name := "full"
		if generational {
			name = "generational"
		}
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, Config{HeapWords: 1024, Workers: 1, Fuel: fuel, Generational: generational})
			mustRegister(t, s, "work", sumSrc(800), DefaultOptions())
			p, err := s.lookup("work")
			if err != nil {
				t.Fatal(err)
			}
			ten, err := s.newTenant(p, "probe", false)
			if err != nil {
				t.Fatal(err)
			}
			if ten.m.Tel != nil {
				t.Error("tenant machine carries a tracer: it would count every run's opcodes")
			}
			if !ten.m.ThreadedDispatch() || ten.m.Fused == 0 {
				t.Errorf("tenant machine threaded=%v multi-instruction runs=%d, want the superblock table",
					ten.m.ThreadedDispatch(), ten.m.Fused)
			}

			res, err := s.RunProgram("work")
			if err != nil || !res.Done || res.Trap != "" {
				t.Fatalf("run: %+v, %v", res, err)
			}

			// The same instantiation a tenant gets, driven by hand.
			direct := func(run func(m *vmachine.Machine) (slices int64)) (string, *vmachine.Machine, int64) {
				var out strings.Builder
				cfg := vmachine.Config{
					HeapWords: s.cfg.HeapWords, StackWords: s.cfg.StackWords, MaxThreads: 1, Out: &out,
				}
				var m *vmachine.Machine
				if generational {
					m, _, err = p.c.NewGenerationalMachineWithDecoder(cfg, p.dec)
				} else {
					m, _, err = p.c.NewMachineWithDecoder(cfg, p.dec)
				}
				if err != nil {
					t.Fatal(err)
				}
				slices := run(m)
				return out.String(), m, slices
			}
			slicedOut, sliced, slices := direct(func(m *vmachine.Machine) (n int64) {
				for done := false; !done; n++ {
					if done, err = m.RunFuel(fuel); err != nil {
						t.Fatal(err)
					}
				}
				return n
			})
			wholeOut, whole, _ := direct(func(m *vmachine.Machine) int64 {
				if err := m.Run(0); err != nil {
					t.Fatal(err)
				}
				return 1
			})

			if res.Collections == 0 || res.Slices < 2 {
				t.Fatalf("run took %d collections in %d slices: too small to compare anything", res.Collections, res.Slices)
			}
			for _, ref := range []struct {
				name string
				out  string
				m    *vmachine.Machine
			}{{"RunFuel loop", slicedOut, sliced}, {"unsliced Run", wholeOut, whole}} {
				if res.Output != ref.out || res.Steps != ref.m.Steps || res.Collections != ref.m.GCCount {
					t.Errorf("tenant (%q, %d steps, %d collections) != %s (%q, %d steps, %d collections)",
						res.Output, res.Steps, res.Collections, ref.name, ref.out, ref.m.Steps, ref.m.GCCount)
				}
			}
			if res.Slices != slices {
				t.Errorf("tenant ran in %d slices, the RunFuel loop in %d", res.Slices, slices)
			}
		})
	}
}

// TestSliceAllocs pins the O(1) slice boundary: a steady-state 500-step
// resume costs a small constant number of allocations end to end, and
// none of them inside Server.slice — a snapshot, a map or a quantile
// scan coming back to the slice path fails here.
func TestSliceAllocs(t *testing.T) {
	const grant = 500
	s := newTestServer(t, Config{HeapWords: 1024, Workers: 1, Generational: true})
	// Output comes only at the end, far past what the test executes, so
	// no request copies a growing output string.
	mustRegister(t, s, "work", sumSrc(1_000_000), DefaultOptions())
	id, err := s.OpenSession("work")
	if err != nil {
		t.Fatal(err)
	}
	resume := func() {
		if res, err := s.Resume(id, grant); err != nil || res.Done || res.Trap != "" {
			t.Fatalf("resume: %+v, %v", res, err)
		}
	}
	for i := 0; i < 50; i++ {
		resume() // grow the collector's arenas
	}
	if perResume := testing.AllocsPerRun(200, resume); perResume > 2 {
		t.Errorf("%.1f allocations per steady-state resume, want at most 2", perResume)
	}

	// The worker's half alone, on a tenant the scheduler never sees.
	p, err := s.lookup("work")
	if err != nil {
		t.Fatal(err)
	}
	ten, err := s.newTenant(p, "probe", true)
	if err != nil {
		t.Fatal(err)
	}
	slice := func() {
		ten.grant = grant
		s.slice(ten)
		if r := <-ten.waiter; r.Done || r.Err != nil {
			t.Fatalf("slice: %+v", r)
		}
	}
	for i := 0; i < 50; i++ {
		slice()
	}
	before := ten.m.GCCount
	if perSlice := testing.AllocsPerRun(200, slice); perSlice != 0 {
		t.Errorf("%.1f allocations per Server.slice, want 0", perSlice)
	}
	if ten.m.GCCount == before {
		t.Error("no collection ran inside the measured slices: the pause observation went unmeasured")
	}
	if row := ten.snapStat("idle"); row.Pauses.Count != ten.m.GCCount || row.Minor+row.Major != ten.m.GCCount {
		t.Errorf("row %+v after %d collections", row, ten.m.GCCount)
	}
}

// TestResumeAfterCloseFails races Close against in-flight resumes: every
// resume must return — with a result, or with ErrShutdown — and once
// Close has returned a resume fails with ErrShutdown instead of parking
// its tenant in a queue nobody reads.
func TestResumeAfterCloseFails(t *testing.T) {
	iterations := 1000
	if testing.Short() {
		iterations = 100
	}
	const clients = 3
	src := sumSrc(1_000_000)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < iterations; i++ {
			s := New(Config{HeapWords: 1024, Workers: 2, MaxTenants: clients + 1})
			if err := s.Register("work", src, DefaultOptions()); err != nil {
				t.Error(err)
				return
			}
			var wg sync.WaitGroup
			ids := make([]string, clients)
			for k := range ids {
				id, err := s.OpenSession("work")
				if err != nil {
					t.Error(err)
					return
				}
				ids[k] = id
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						res, err := s.Resume(id, 200)
						if errors.Is(err, ErrShutdown) || res.Trap == ErrShutdown.Error() {
							return
						}
						if err != nil || res.Done || res.Trap != "" {
							t.Errorf("iteration %d: resume: %+v, %v", i, res, err)
							return
						}
					}
				}()
			}
			s.Close()
			for _, id := range ids {
				if _, err := s.Resume(id, 200); !errors.Is(err, ErrShutdown) {
					t.Errorf("iteration %d: resume after Close: %v, want ErrShutdown", i, err)
				}
			}
			if _, err := s.RunProgram("work"); !errors.Is(err, ErrShutdown) {
				t.Errorf("iteration %d: run after Close: %v, want ErrShutdown", i, err)
			}
			wg.Wait()
		}
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("a resume racing Close never returned")
	}
}
