package vmachine_test

// External-package sweep: generated programs (internal/progen) are
// compiled once and executed under both dispatchers through the real
// driver stack — semispace heap, decode cache, GC tables — asserting
// bitwise agreement on every observable. This is the handler/switch
// agreement test the in-package lockstep test cannot express, because
// the driver depends on vmachine.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
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
// keeps its superblock runs and counts their opcodes, and on, where it
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

// BenchmarkTaklSteps runs the benchmark suite's mutator.takl program
// (TaklLoopSource(10), default options and heap) and reports the
// interpreter's cost per executed instruction, instantiation excluded.
func BenchmarkTaklSteps(b *testing.B) {
	c, err := driver.Compile("takl.m3", bench.TaklLoopSource(10), driver.NewOptions())
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	var run time.Duration
	for i := 0; i < b.N; i++ {
		m, _, err := c.NewMachine(vmachine.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		run += time.Since(start)
		steps += m.Steps
	}
	b.ReportMetric(float64(run.Nanoseconds())/float64(steps), "ns/step")
}

// TestSuperblockShape checks the run table over the four paper sources
// and a progen corpus, compiled with gc-polls in loops: no run's
// interior holds a gc-point or a control transfer, only a run's last
// instruction may be CALL, BT, BF, JMP, RET, HALT or TRAP, a run is the
// suffix of the run one instruction earlier whenever that one falls
// through into it, and every run is as long as the rule allows.
func TestSuperblockShape(t *testing.T) {
	srcs := map[string]string{}
	for _, name := range bench.Names() {
		srcs[name] = bench.Sources()[name]
	}
	for seed := int64(1); seed <= 16; seed++ {
		srcs[fmt.Sprintf("progen-%d", seed)] = progen.Program(seed)
	}
	ends := map[vmachine.Op]bool{
		vmachine.OpCall: true, vmachine.OpBT: true, vmachine.OpBF: true, vmachine.OpJmp: true,
		vmachine.OpRet: true, vmachine.OpHalt: true, vmachine.OpTrap: true,
	}
	longest := 0
	for name, src := range srcs {
		opts := driver.NewOptions()
		opts.Multithreaded = true
		c, err := driver.Compile(name+".m3", src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		code := c.Prog.Code
		runs := vmachine.RunLengths(vmachine.NewDispatchTable(c.Prog))
		for i, n := range runs {
			longest = max(longest, n)
			if n < 1 || i+n > len(code) {
				t.Fatalf("%s: run at %d has length %d of %d instructions", name, i, n, len(code))
			}
			for j := i; j < i+n-1; j++ {
				if in := &code[j]; in.IsGCPoint() || ends[in.Op] {
					t.Errorf("%s: run at %d holds %s at %d before its end", name, i, in.Op, j)
				}
			}
			last := &code[i+n-1]
			if n > 1 && last.IsPollPoint() {
				t.Errorf("%s: run at %d ends in poll point %s", name, i, last.Op)
			}
			continues := !code[i].IsGCPoint() && !ends[code[i].Op]
			if i+1 < len(code) && continues && !code[i+1].IsPollPoint() {
				if n != runs[i+1]+1 {
					t.Errorf("%s: run at %d has length %d, the one after it %d", name, i, n, runs[i+1])
				}
			} else if n != 1 {
				t.Errorf("%s: run at %d has length %d, want 1", name, i, n)
			}
		}
	}
	if longest < 6 {
		t.Errorf("longest run is %d instructions", longest)
	}
}
