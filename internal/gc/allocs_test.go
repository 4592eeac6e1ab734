package gc_test

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/vmachine"
)

// allocsProbe waits for the forced collection at the bottom of
// DeepWalk's stack and measures the real collector there: a few warm-up
// collections grow its arenas, then every further one must run without
// a single Go allocation.
type allocsProbe struct {
	real   *gc.Collector
	allocs float64
	frames int64
	live   int // threads live at the measured collections
	err    error
	done   bool
}

func (p *allocsProbe) Collect(m *vmachine.Machine) error {
	if p.done {
		return p.real.Collect(m)
	}
	p.done = true
	for _, t := range m.Threads {
		if !t.Done {
			p.live++
		}
	}
	collect := func() {
		if err := p.real.Collect(m); err != nil && p.err == nil {
			p.err = err
		}
	}
	for i := 0; i < 3; i++ {
		collect()
	}
	before := p.real.FramesTraced
	p.allocs = allocsPerRun(50, collect)
	p.frames = (p.real.FramesTraced - before) / 51 // allocsPerRun warms up once itself
	return p.err
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): the
// default pool widths follow GOMAXPROCS, so pinning it to one would hide
// any per-pause pool a collection starts on a multi-core host. Like
// AllocsPerRun it warms up once and rounds the average down.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64((ms.Mallocs - before) / uint64(runs))
}

// TestCollectAllocs pins the allocation-free collection: under a
// 120-frame stack, a steady-state Collect — stop-the-world, and the
// concurrent cycle run inline — walks every frame, marks, copies and
// flips without allocating; and so does a rendezvous collection that
// walks four live threads' stacks at the default trace width.
func TestCollectAllocs(t *testing.T) {
	const depth = 120
	cases := []struct {
		name       string
		src        string
		concurrent bool
		spawn      []string
		minFrames  int64
	}{
		{"stw", bench.DeepWalkSource(depth, 2), false, nil, depth},
		{"concurrent inline", bench.DeepWalkSource(depth, 2), true, nil, depth},
		{"four threads", parallelSrc, false, []string{"W1", "W2", "W3"}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := driver.NewOptions()
			opts.ConcurrentMark = tc.concurrent
			opts.Multithreaded = tc.spawn != nil
			c, err := driver.Compile("allocs.m3", tc.src, opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := vmachine.DefaultConfig()
			cfg.HeapWords = 1 << 14
			if tc.spawn != nil {
				cfg = vmachine.Config{HeapWords: 1024, StackWords: 4096, MaxThreads: 8, Quantum: 53}
			}
			cfg.Out = io.Discard
			m, col, err := c.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range tc.spawn {
				if _, err := m.Spawn(c.Prog.FindProc(name)); err != nil {
					t.Fatal(err)
				}
			}
			p := &allocsProbe{real: col}
			m.Collector = p
			if err := m.Run(100_000_000); err != nil {
				t.Fatal(err)
			}
			if !p.done {
				t.Fatal("the forced collection never ran")
			}
			if p.frames < tc.minFrames {
				t.Fatalf("each collection walked %d frames, want at least %d", p.frames, tc.minFrames)
			}
			if want := 1 + len(tc.spawn); p.live != want {
				t.Fatalf("%d threads live at the measured collections, want %d", p.live, want)
			}
			if tc.concurrent && col.Cycles == 0 {
				t.Fatal("no concurrent cycle completed: the split path was not measured")
			}
			if p.allocs != 0 {
				t.Errorf("%.1f allocations per steady-state collection, want 0", p.allocs)
			}
		})
	}
}
