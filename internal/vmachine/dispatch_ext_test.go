package vmachine_test

// External-package sweep: generated programs (internal/progen) are
// compiled once and executed under both dispatchers through the real
// driver stack — semispace heap, decode cache, GC tables — asserting
// bitwise agreement on every observable. This is the handler/switch
// agreement test the in-package lockstep test cannot express, because
// the driver depends on vmachine.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gctab"
	"repro/internal/progen"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

type sweepRun struct {
	out      string
	steps    int64
	gcs      int64
	heapHash uint64
	opCounts []vmachine.OpCount // empty for an untraced run
}

// untraced is runSweepCell's sample value for a machine with no tracer;
// 0 attaches one with PC sampling off, n > 0 samples every n steps.
const untraced = -1

func runSweepCell(t *testing.T, c *driver.Compiled, threaded bool, sample int64) sweepRun {
	t.Helper()
	// Rebuild rather than mutate: Compiled carries the shared-decoder
	// sync.Once, and the two modes must not share decoder state.
	cc := &driver.Compiled{Opts: c.Opts, IR: c.IR, Prog: c.Prog, Tables: c.Tables, Encoded: c.Encoded}
	cc.Opts.ThreadedDispatch = threaded
	cfg := vmachine.Config{HeapWords: 1 << 14, StackWords: 1 << 14, MaxThreads: 1}
	var sb strings.Builder
	cfg.Out = &sb
	if sample != untraced {
		cfg.Tel, cfg.PCSampleEvery = telemetry.New(telemetry.Config{RingSize: 64}), sample
	}
	m, _, err := cc.NewMachine(cfg)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	if err := m.Run(20_000_000); err != nil {
		t.Fatalf("threaded=%v run: %v", threaded, err)
	}
	return sweepRun{
		out:      sb.String(),
		steps:    m.Steps,
		gcs:      m.GCCount,
		heapHash: hashHeap(m),
		opCounts: m.OpCounts(),
	}
}

func hashHeap(m *vmachine.Machine) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range m.Mem[m.HeapLo:m.HeapHi] {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(w >> s))
			h *= 1099511628211
		}
	}
	return h
}

// TestDispatchGeneratedProgramSweep compares the dispatchers untraced,
// then with a tracer attached — sampling off, where the threaded table
// keeps its fusions and counts both opcodes of a pair, and on, where it
// single-steps — adding the per-opcode counts to the observables.
func TestDispatchGeneratedProgramSweep(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		src := progen.Program(seed)
		c, err := driver.Compile("sweep.m3", src, driver.Options{
			Optimize: true, GCSupport: true, HeapLive: true,
			Scheme: gctab.DeltaPP, DecodeCache: true,
		})
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		for _, sample := range []int64{untraced, 0, 7} {
			sw := runSweepCell(t, c, false, sample)
			th := runSweepCell(t, c, true, sample)
			if sw.out != th.out {
				t.Errorf("seed %d sample %d: output diverged:\n  switch   %q\n  threaded %q", seed, sample, sw.out, th.out)
			}
			if sw.steps != th.steps {
				t.Errorf("seed %d sample %d: steps %d vs %d", seed, sample, sw.steps, th.steps)
			}
			if sw.gcs != th.gcs {
				t.Errorf("seed %d sample %d: collections %d vs %d", seed, sample, sw.gcs, th.gcs)
			}
			if sw.heapHash != th.heapHash {
				t.Errorf("seed %d sample %d: final heap hash %#x vs %#x", seed, sample, sw.heapHash, th.heapHash)
			}
			if !reflect.DeepEqual(sw.opCounts, th.opCounts) {
				t.Errorf("seed %d sample %d: op counts diverged:\n  switch   %v\n  threaded %v", seed, sample, sw.opCounts, th.opCounts)
			}
			if (sample == untraced) != (len(th.opCounts) == 0) {
				t.Errorf("seed %d sample %d: %d opcodes counted", seed, sample, len(th.opCounts))
			}
		}
	}
}
