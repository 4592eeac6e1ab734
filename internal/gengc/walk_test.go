package gengc_test

import (
	"io"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gengc"
	"repro/internal/vmachine"
)

// deepGen builds a generational machine that will force a collection at
// the bottom of a depth-frame stack, with probe standing in for its
// collector; concurrent turns on concurrent majors.
func deepGen(t *testing.T, depth int, concurrent bool, probe func(*gengc.Collector) vmachine.Collector) *vmachine.Machine {
	t.Helper()
	opts := driver.NewOptions()
	opts.Generational = true
	opts.ConcurrentMark = concurrent
	opts.TraceWorkers = 1
	c, err := driver.Compile("deepwalk.m3", bench.DeepWalkSource(depth, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 1 << 14
	cfg.Out = io.Discard
	m, col, err := c.NewGenerationalMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Collector = probe(col)
	return m
}

// collectorFunc adapts a function to vmachine.Collector.
type collectorFunc func(m *vmachine.Machine) error

func (f collectorFunc) Collect(m *vmachine.Machine) error { return f(m) }

// TestCorruptFrameChain: the generational collector walks through the
// same code as the full one, so a saved FP that points back down the
// stack must end its collection with the same clean error, not a hang.
func TestCorruptFrameChain(t *testing.T) {
	m := deepGen(t, 8, false, func(col *gengc.Collector) vmachine.Collector {
		return collectorFunc(func(m *vmachine.Machine) error {
			var walk gc.Walk
			if err := walk.Machine(m, col.Dec); err != nil {
				t.Fatalf("walk of the intact stack: %v", err)
			}
			frames := walk.Threads[0].Frames
			m.Mem[frames[4].FP] = frames[2].FP
			return col.Collect(m)
		})
	})
	err := m.Run(0)
	if err == nil {
		t.Fatal("run finished on a corrupt frame chain")
	}
	for _, want := range []string{"corrupt frame chain", "thread 0", "pc "} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestMinorAllocs pins the allocation-free minor collection at serial
// width: under a 120-frame stack, once the collector's arenas have
// grown, a minor walks every frame and promotes without a single Go
// allocation.
func TestMinorAllocs(t *testing.T) {
	const depth = 120
	var allocs float64
	var minors int64
	var col *gengc.Collector
	done := false
	m := deepGen(t, depth, false, func(c *gengc.Collector) vmachine.Collector {
		col = c
		return collectorFunc(func(m *vmachine.Machine) error {
			if done {
				return c.Collect(m)
			}
			done = true
			var first error
			collect := func() {
				if err := c.Collect(m); err != nil && first == nil {
					first = err
				}
			}
			for i := 0; i < 3; i++ {
				collect()
			}
			before := c.Minor
			allocs = testing.AllocsPerRun(50, collect)
			minors = c.Minor - before
			return first
		})
	})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("the forced collection never ran")
	}
	if minors != 51 || col.Major != 0 {
		t.Fatalf("measured %d minors (and %d majors in the run), want 51 minors and no major", minors, col.Major)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per steady-state minor, want 0", allocs)
	}
}

// TestMajorAllocs pins the allocation-free stop-the-world major at
// serial width: under a 120-frame stack, once the collector's arenas
// have grown, a major escalation walks every frame, marks both
// generations, copies into the other old semispace and flips without a
// single Go allocation.
func TestMajorAllocs(t *testing.T) {
	const depth = 120
	var allocs float64
	var majors, minors int64
	done := false
	m := deepGen(t, depth, false, func(c *gengc.Collector) vmachine.Collector {
		return collectorFunc(func(m *vmachine.Machine) error {
			if done {
				return c.Collect(m)
			}
			done = true
			var first error
			collect := func() {
				c.Heap.ForceMajor()
				if err := c.Collect(m); err != nil && first == nil {
					first = err
				}
			}
			for i := 0; i < 3; i++ {
				collect()
			}
			majorBefore, minorBefore := c.Major, c.Minor
			allocs = testing.AllocsPerRun(50, collect)
			majors, minors = c.Major-majorBefore, c.Minor-minorBefore
			return first
		})
	})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("the forced collection never ran")
	}
	if majors != 51 || minors != 0 {
		t.Fatalf("measured %d majors and %d minors, want 51 majors and no minor", majors, minors)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per steady-state major, want 0", allocs)
	}
}

// TestConcurrentMajorAllocs pins the allocation-free concurrent major at
// serial width: under a 120-frame stack, once the collector's arenas
// have grown, a whole cycle — StartCycle, every MarkStep, FinishCycle —
// walks, marks, copies and flips without a single Go allocation.
func TestConcurrentMajorAllocs(t *testing.T) {
	const depth = 120
	var allocs float64
	var cycles, frames int64
	done := false
	m := deepGen(t, depth, true, func(c *gengc.Collector) vmachine.Collector {
		return collectorFunc(func(m *vmachine.Machine) error {
			if done {
				return c.Collect(m)
			}
			done = true
			var first error
			keep := func(err error) {
				if err != nil && first == nil {
					first = err
				}
			}
			cycle := func() {
				keep(c.StartCycle(m))
				for {
					finished, err := c.MarkStep(m)
					keep(err)
					if finished || err != nil {
						break
					}
				}
				keep(c.FinishCycle(m))
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			before, framesBefore := c.Cycles, c.FramesTraced
			allocs = testing.AllocsPerRun(50, cycle)
			cycles, frames = c.Cycles-before, c.FramesTraced-framesBefore
			return first
		})
	})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("the forced collection never ran")
	}
	if cycles != 51 {
		t.Fatalf("measured %d concurrent majors, want 51", cycles)
	}
	// Two walks a cycle: the initial pause and the final one.
	if frames < 2*depth*cycles {
		t.Fatalf("%d cycles walked %d frames, want at least %d", cycles, frames, 2*depth*cycles)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per steady-state concurrent major, want 0", allocs)
	}
}
