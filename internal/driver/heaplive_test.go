package driver_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gctab"
	"repro/internal/vmachine"
)

// TestHeapLiveChurn compiles the churn program with the heap-liveness
// pass off and on and runs both under the precise collector on one
// heap budget. The outputs must agree, and the pass must pay for
// itself end to end: it rewrites allocation sites into reuses that the
// machine executes (Machine.Reuses), drops dead entries from the gc
// tables, and the collections copy fewer words.
func TestHeapLiveChurn(t *testing.T) {
	src, err := os.ReadFile("testdata/heaplive_churn.m3")
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		out                     string
		reuseSites, deadEntries int
		collections, copied     int64
		reuses                  int64
	}
	run := func(heapLive bool) result {
		t.Helper()
		c, err := driver.Compile("heaplive.m3", string(src), driver.Options{
			Optimize: true, GCSupport: true, Scheme: gctab.DeltaPP,
			DecodeCache: true, HeapLive: heapLive, Verify: true,
		})
		if err != nil {
			t.Fatalf("heaplive=%v: %v", heapLive, err)
		}
		var r result
		for _, in := range c.Prog.Code {
			if in.Op == vmachine.OpReuse {
				r.reuseSites++
			}
		}
		for _, pr := range c.Tables.Procs {
			for _, pt := range pr.Points {
				r.deadEntries += len(pt.DeadByAnalysis)
			}
		}
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = 1 << 14
		var out strings.Builder
		cfg.Out = &out
		m, col, err := c.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			t.Fatalf("heaplive=%v: %v", heapLive, err)
		}
		r.out, r.collections, r.copied, r.reuses = out.String(), col.Collections, col.WordsCopied, m.Reuses
		return r
	}
	off, on := run(false), run(true)
	if off.collections == 0 {
		t.Fatal("baseline never collected; heap too large for the workload")
	}
	if on.out != off.out {
		t.Fatalf("off/on outputs diverge: %q vs %q", off.out, on.out)
	}
	if on.reuseSites == 0 {
		t.Error("optimized compile rewrote no allocation sites")
	}
	if on.deadEntries == 0 {
		t.Error("optimized compile shrank no gc-table entries")
	}
	if on.reuses == 0 {
		t.Error("optimized run executed no reuses")
	}
	if on.copied >= off.copied {
		t.Errorf("copied words did not drop: %d -> %d", off.copied, on.copied)
	}
}
