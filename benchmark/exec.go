package main

import (
	"embed"
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// expected holds each program's output as worked out by hand from its
// closed form — never taken from a run of the compiler under test.
//
//go:embed expected/*.out
var expected embed.FS

func expectedOutput(name string) string {
	data, err := expected.ReadFile("expected/" + name + ".out")
	if err != nil {
		panic(err) // the file set is fixed at build time
	}
	return string(data)
}

// execSpec is one program-execution workload: an operation is
// Compiled.NewMachine + Machine.Run(0) to completion.
type execSpec struct {
	name  string
	src   func(quick bool) string
	opts  func() driver.Options
	cfg   vmachine.Config
	spawn []string // procedures started as extra green threads
}

// The parameters below are part of the benchmark's contract: changing one
// starts a new trajectory. Heap sizes are words, two semispaces.
var execSpecs = []execSpec{
	{
		name: "mutator.takl",
		src:  func(bool) string { return bench.TaklLoopSource(10) },
		opts: driver.NewOptions,
		cfg:  vmachine.DefaultConfig(), // 2^20 words: takl's ~90 live words never fill it
	},
	{
		name: "gc.destroy",
		// The node count (4^8−1)/3 does not depend on the iterations, so
		// the smoke size prints the same answer.
		src: func(quick bool) string {
			if quick {
				return bench.DestroySource(4, 7, 60, 3, 0)
			}
			return bench.DestroySource(4, 7, 1200, 3, 0)
		},
		opts: driver.NewOptions,
		// ~109k live words in a 120k-word semispace: 85 collections a run.
		cfg: vmachine.Config{HeapWords: 240_000, StackWords: 1 << 16, MaxThreads: 8, Quantum: 1000},
	},
	{
		name: "gc.deepstack",
		src:  func(bool) string { return bench.DeepWalkSource(220, 500) },
		opts: driver.NewOptions,
		// Room for 220 frames; a heap small enough that clearing mark
		// state does not hide the walk.
		cfg: vmachine.Config{HeapWords: 1 << 16, StackWords: 220*32 + 4096, MaxThreads: 8, Quantum: 1000},
	},
	{
		name: "gc.concurrent",
		// The printed sum depends on the ballast only, not on the loops.
		src: func(quick bool) string {
			if quick {
				return bench.ChurnBallastSource(4000, 300)
			}
			return bench.ChurnBallastSource(4000, 3600)
		},
		opts: func() driver.Options {
			o := driver.NewOptions()
			o.Multithreaded, o.ConcurrentMark, o.TraceWorkers = true, true, 1
			return o
		},
		cfg:   vmachine.Config{HeapWords: 1 << 16, StackWords: 4096, MaxThreads: 8, Quantum: 53},
		spawn: []string{"W1", "W2", "W3"},
	},
}

// gcProbe stands between the machine and its collector and times every
// interval all mutators are parked for it: a stop-the-world collection, a
// concurrent cycle's initial and final pause, a synchronous fallback.
// Embedding keeps the ConcurrentCollector and CycleTrigger views the
// scheduler asks for.
type gcProbe struct {
	*gc.Collector
	stops  []float64 // ns
	bursts int       // mark steps that scanned something
	syncs  int       // synchronous collections a concurrent run fell back to

	tr         *tracer // traced run only
	parent, op int
}

func (p *gcProbe) timed(name string, call func() error) error {
	t0 := time.Now()
	s := p.tr.begin(name, p.parent, p.op)
	err := call()
	p.tr.end(s)
	p.stops = append(p.stops, float64(time.Since(t0)))
	return err
}

func (p *gcProbe) Collect(m *vmachine.Machine) error {
	if p.Collector.Concurrent {
		p.syncs++
	}
	return p.timed("gc.collect", func() error { return p.Collector.Collect(m) })
}

func (p *gcProbe) StartCycle(m *vmachine.Machine) error {
	return p.timed("gc.start_cycle", func() error { return p.Collector.StartCycle(m) })
}

func (p *gcProbe) FinishCycle(m *vmachine.Machine) error {
	return p.timed("gc.finish_cycle", func() error { return p.Collector.FinishCycle(m) })
}

// MarkStep is not a stop in the sense of the stall metrics. The scheduler
// calls it between passes about a million times a run, and nearly every call
// folds in a few barrier-logged cells and returns in ~70 ns: pooled with the
// rendezvous pauses they would make every percentile a statement about the
// empty step (and two clock reads around each would cost more than the
// calls). Their total is the collector's own ConcMarkTime, which the traced
// run books to the gc layer as one span per operation; here they are counted.
func (p *gcProbe) MarkStep(m *vmachine.Machine) (bool, error) {
	before := p.Collector.ConcMarkTime
	done, err := p.Collector.MarkStep(m)
	if p.Collector.ConcMarkTime != before {
		p.bursts++
	}
	return done, err
}

// execRunner is a compiled execSpec plus what its warm-up run established.
type execRunner struct {
	env
	spec  *execSpec
	c     *driver.Compiled
	prog  *compiledProgram
	want  string
	steps int64 // every repetition must execute exactly these
	gcs   int64 // … and collect exactly this often
	chk   checker
}

func setupExec(spec *execSpec) func(env) (runner, error) {
	return func(e env) (runner, error) {
		r := &execRunner{env: e, spec: spec, want: expectedOutput(spec.name)}
		var err error
		if r.c, r.prog, err = compileChecked(&r.chk, spec.name+".m3", spec.src(e.quick), spec.opts()); err != nil {
			return nil, err
		}
		// The warm-up repetition fixes the exact counts; its output is
		// checked against the hand-written expectation like any other.
		rep, err := r.execute(nil, 0, nil)
		if err != nil {
			return nil, err
		}
		r.steps, r.gcs = rep.steps, rep.gcs
		r.chk.op(mismatch(spec.name+" output", rep.out, r.want))
		return r, nil
	}
}

func (r *execRunner) sizes() (int, int)     { return r.prog.table, r.prog.code }
func (r *execRunner) setupChecks() *checker { return &r.chk }
func (r *execRunner) close()                {}

// repetition is one program execution.
type repetition struct {
	ns         float64
	out        string
	steps, gcs int64
	probe      *gcProbe
	allocBytes int64 // mthree heap bytes allocated
	goBytes    uint64
}

var goAllocs = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func goAllocBytes() uint64 {
	metrics.Read(goAllocs)
	return goAllocs[0].Value.Uint64()
}

// execute runs the program once. tr and tel are nil on untraced runs; tel
// goes to the collector and its table decoder only, where it costs a few
// counter updates per collection — on cfg.Tel it would also count every
// opcode, and the traced run would time a slower interpreter.
func (r *execRunner) execute(tr *tracer, op int, tel *telemetry.Tracer) (*repetition, error) {
	var out strings.Builder
	cfg := r.spec.cfg
	cfg.Out = &out
	rep := &repetition{}
	if tr != nil {
		rep.goBytes = goAllocBytes()
	}
	t0 := time.Now()
	root := tr.begin("exec.op", -1, op)
	s := tr.begin("driver.instantiate", root, op)
	m, col, err := r.c.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if tel != nil {
		col.SetTracer(tel)
	}
	rep.probe = &gcProbe{Collector: col, tr: tr, op: op}
	m.Collector = rep.probe
	for _, name := range r.spec.spawn {
		if _, err := m.Spawn(r.c.Prog.FindProc(name)); err != nil {
			return nil, fmt.Errorf("spawn %s: %w", name, err)
		}
	}
	tr.end(s)
	if tr != nil {
		rep.goBytes = goAllocBytes() - rep.goBytes
	}
	rep.probe.parent = tr.begin("vmachine.run", root, op)
	err = m.Run(0)
	if burst := int64(col.ConcMarkTime); tr != nil && burst > 0 {
		now := tr.now()
		tr.add("gc.mark_steps", now-burst, now, rep.probe.parent, op) // Σ of the run's bursts
	}
	tr.end(rep.probe.parent)
	tr.end(root)
	rep.ns = float64(time.Since(t0))
	if err != nil {
		return nil, err
	}
	rep.out, rep.steps, rep.gcs, rep.allocBytes = out.String(), m.Steps, m.GCCount, col.Heap.AllocatedBytes()
	return rep, nil
}

func (r *execRunner) run(d time.Duration, traced bool) *measurement {
	m := &measurement{}
	var tr *tracer
	var tel *telemetry.Tracer
	if traced {
		tr = newTracer(time.Now())
		tel = telemetry.New(telemetry.Config{})
	}
	var opNs, plainNs, stops []float64
	var sum collectorSums
	host := newHostClock()
	deadline := time.Now().Add(d)
	for op := 0; op < 2 || time.Now().Before(deadline); op++ {
		// A traced run traces every other execution (see measurement).
		plain := !traced || op%2 == 0
		quiesce()
		var rep *repetition
		var err error
		if plain {
			rep, err = r.execute(nil, op, nil)
		} else {
			rep, err = r.execute(tr, op, tel)
		}
		host.mark()
		if err != nil {
			m.chk.op(err)
			continue
		}
		if !m.chk.op(mismatch("output", rep.out, r.want), mismatch("steps", rep.steps, r.steps),
			mismatch("collections", rep.gcs, r.gcs)) {
			continue
		}
		if plain && traced {
			plainNs = append(plainNs, host.scale(rep.ns))
			continue
		}
		opNs = append(opNs, host.scale(rep.ns))
		for _, ns := range rep.probe.stops {
			stops = append(stops, host.scale(ns))
		}
		if traced {
			sum.add(rep)
			m.e2eNs += int64(rep.ns)
		}
	}
	m.hostFactor = median(host.seen)
	m.ops = len(opNs)
	if m.ops == 0 {
		return m
	}
	m.opMs = median(opNs) / 1e6
	m.opsPerS = 1e3 / m.opMs
	if len(stops) == 0 {
		stops = opNs // the collector never stopped the program: the run is the wait
	}
	m.stallQuantiles(stops, r.tailPct)
	if traced {
		m.plainOpMs = median(plainNs) / 1e6
		m.traceDone(tr)
		m.layers = map[string]float64{}
		sum.layers(m, tel.Snapshot(), r.c.Encoded.Scheme)
	}
	return m
}

// collectorSums adds up, over the traced repetitions, the counts the layers
// export themselves.
type collectorSums struct {
	steps, allocBytes, collections, frames, words, objects, steals int64
	cycles, satb, bursts, syncs                                    int64
	goBytes                                                        uint64
	walk, mark, assign, copy, fixup, concMark, total               time.Duration
}

func (s *collectorSums) add(rep *repetition) {
	c := rep.probe.Collector
	s.steps += rep.steps
	s.allocBytes += rep.allocBytes
	s.goBytes += rep.goBytes
	s.collections += rep.gcs
	s.frames += c.FramesTraced
	s.words += c.WordsCopied
	s.objects += c.ObjectsCopied
	s.steals += c.Steals
	s.cycles += c.Cycles
	s.satb += c.SATBLogged
	s.bursts += int64(rep.probe.bursts)
	s.syncs += int64(rep.probe.syncs)
	s.walk += c.StackTraceTime
	s.mark += c.MarkTime
	s.assign += c.AssignTime
	s.copy += c.CopyTime
	s.fixup += c.FixupTime
	s.concMark += c.ConcMarkTime
	s.total += c.TotalTime
}

// layers turns the sums and the spans into per-operation layer metrics.
func (s *collectorSums) layers(m *measurement, snap telemetry.Snapshot, scheme gctab.Scheme) {
	n := float64(m.ops)
	rows := m.rows
	var gcSelf int64
	for _, row := range rows {
		if layerOf(row.Name) == "gc" {
			gcSelf += row.SelfNs
		}
	}
	vmSelf := selfOf(rows, "vmachine.run")
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / n }
	l := m.layers
	l["driver_instantiate_us"] = float64(selfOf(rows, "driver.instantiate")) / 1e3 / n
	l["driver_alloc_bytes"] = float64(s.goBytes) / n
	l["vm_self_ms"] = float64(vmSelf) / 1e6 / n
	l["vm_steps"] = float64(s.steps) / n
	if vmSelf > 0 {
		l["vm_msteps_per_s"] = float64(s.steps) / 1e6 / (float64(vmSelf) / 1e9)
	}
	l["vm_alloc_bytes"] = float64(s.allocBytes) / n
	l["gc_self_ms"] = float64(gcSelf) / 1e6 / n
	l["gc_share_pct"] = 100 * float64(gcSelf) / float64(m.e2eNs)
	l["gc_collections"] = float64(s.collections) / n
	l["gc_walk_ms"], l["gc_mark_ms"], l["gc_assign_ms"] = ms(s.walk), ms(s.mark), ms(s.assign)
	l["gc_copy_ms"], l["gc_fixup_ms"], l["gc_conc_mark_ms"] = ms(s.copy), ms(s.fixup), ms(s.concMark)
	if s.total > 0 {
		l["gc_walk_pct"] = 100 * float64(s.walk) / float64(s.total)
	}
	l["gc_frames"] = float64(s.frames) / n
	l["gc_words_copied"] = float64(s.words) / n
	l["gc_objects_copied"] = float64(s.objects) / n
	l["gc_steals"] = float64(s.steals) / n
	l["gc_decode_bytes"] = float64(snap.Counter(scheme.DecodeBytesCounter())) / n
	l["gc_cache_hits"] = float64(snap.Counter(scheme.CacheHitsCounter())) / n
	l["gc_cycles"] = float64(s.cycles) / n
	l["gc_satb_logged"] = float64(s.satb) / n
	l["gc_mark_bursts"] = float64(s.bursts) / n
	l["gc_sync_fallbacks"] = float64(s.syncs) / n
}
