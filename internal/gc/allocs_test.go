package gc_test

import (
	"io"
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
	err    error
	done   bool
}

func (p *allocsProbe) Collect(m *vmachine.Machine) error {
	if p.done {
		return p.real.Collect(m)
	}
	p.done = true
	collect := func() {
		if err := p.real.Collect(m); err != nil && p.err == nil {
			p.err = err
		}
	}
	for i := 0; i < 3; i++ {
		collect()
	}
	before := p.real.FramesTraced
	p.allocs = testing.AllocsPerRun(50, collect)
	p.frames = (p.real.FramesTraced - before) / 51 // AllocsPerRun warms up once itself
	return p.err
}

// TestCollectAllocs pins the allocation-free collection: under a
// 120-frame stack, a steady-state Collect — stop-the-world, and the
// concurrent cycle run inline — walks every frame, marks, copies and
// flips without allocating.
func TestCollectAllocs(t *testing.T) {
	const depth = 120
	for _, concurrent := range []bool{false, true} {
		name := "stw"
		if concurrent {
			name = "concurrent inline"
		}
		t.Run(name, func(t *testing.T) {
			opts := driver.NewOptions()
			opts.ConcurrentMark = concurrent
			c, err := driver.Compile("deepwalk.m3", bench.DeepWalkSource(depth, 2), opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := vmachine.DefaultConfig()
			cfg.HeapWords = 1 << 14
			cfg.Out = io.Discard
			m, col, err := c.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := &allocsProbe{real: col}
			m.Collector = p
			if err := m.Run(0); err != nil {
				t.Fatal(err)
			}
			if !p.done {
				t.Fatal("the forced collection never ran")
			}
			if p.frames < depth {
				t.Fatalf("each collection walked %d frames, want at least %d", p.frames, depth)
			}
			if concurrent && col.Cycles == 0 {
				t.Fatal("no concurrent cycle completed: the split path was not measured")
			}
			if p.allocs != 0 {
				t.Errorf("%.1f allocations per steady-state collection, want 0", p.allocs)
			}
		})
	}
}
