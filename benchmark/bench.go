package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists what a user of the stack feels. Every workload reports
// every one of them (the driver's contract), so each is defined by the role
// it plays in a workload; README.md maps them to the per-workload names
// (compile_ms, run_ms, pause_p99_us, latency_p99_us, req_per_s, …).
//
// The bounds are two to three times the widest spread (quartile distance
// over median, ten seeds, two sets) any workload showed on the sandbox this
// was written on, capped at the driver's 0.25: op_ms 10 %, ops_per_s 10 %,
// stall_p50_us 10 %, stall_tail_us 17 %, peak_rss_mb 12 %, setup_s 18 %. The
// two sets' medians differed by at most 10 % (2 % on op_ms).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"stall_p50_us", "us", "lower", 0.20},
	{"stall_tail_us", "us", "lower", 0.25},
	{"table_pct_code", "%", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run, named
// <module>_<what>. A layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	// compiler passes: self time per corpus pass, and the size of what each leaves behind
	{"parser_ms", "ms", "lower", 0},
	{"sem_ms", "ms", "lower", 0},
	{"irgen_ms", "ms", "lower", 0},
	{"opt_ms", "ms", "lower", 0},
	{"codegen_ms", "ms", "lower", 0},
	{"gctab_encode_ms", "ms", "lower", 0},
	{"src_bytes", "bytes", "lower", 0},
	{"ir_instrs_irgen", "count", "lower", 0},
	{"ir_instrs_opt", "count", "lower", 0},
	{"code_bytes", "bytes", "lower", 0},
	{"gc_points", "count", "lower", 0},
	{"table_bytes", "bytes", "lower", 0},
	// driver: instantiating one machine from a Compiled
	{"driver_instantiate_us", "us", "lower", 0},
	{"driver_alloc_bytes", "bytes", "lower", 0},
	// vmachine: the Run span minus its collector child spans, per operation
	{"vm_self_ms", "ms", "lower", 0},
	{"vm_steps", "count", "lower", 0},
	{"vm_msteps_per_s", "1/s", "higher", 0},
	{"vm_alloc_bytes", "bytes", "lower", 0},
	// gc: every collector stop, per operation; phase split from the collector's own clocks
	{"gc_self_ms", "ms", "lower", 0},
	{"gc_share_pct", "%", "lower", 0},
	{"gc_collections", "count", "lower", 0},
	{"gc_walk_ms", "ms", "lower", 0},
	{"gc_mark_ms", "ms", "lower", 0},
	{"gc_assign_ms", "ms", "lower", 0},
	{"gc_copy_ms", "ms", "lower", 0},
	{"gc_fixup_ms", "ms", "lower", 0},
	{"gc_walk_pct", "%", "lower", 0},
	{"gc_frames", "count", "lower", 0},
	{"gc_words_copied", "count", "lower", 0},
	{"gc_objects_copied", "count", "lower", 0},
	{"gc_steals", "count", "higher", 0},
	{"gc_decode_bytes", "bytes", "lower", 0},
	{"gc_cache_hits", "count", "higher", 0},
	// gc, concurrent cycle
	{"gc_cycles", "count", "lower", 0},
	{"gc_satb_logged", "count", "lower", 0},
	{"gc_mark_bursts", "count", "lower", 0},
	{"gc_sync_fallbacks", "count", "lower", 0},
	{"gc_conc_mark_ms", "ms", "lower", 0},
	// gengc, from the server's per-tenant statz rows
	{"gengc_minors", "count", "lower", 0},
	{"gengc_majors", "count", "lower", 0},
	{"gengc_pause_p99_us", "us", "lower", 0},
	// gcserve
	{"serve_requests", "count", "higher", 0},
	{"serve_worker_us", "us", "lower", 0},
	{"serve_direct_us", "us", "lower", 0},
	{"serve_overhead_us", "us", "lower", 0},
	{"serve_overhead_pct", "%", "lower", 0},
	{"serve_queue_wait_us", "us", "lower", 0},
	{"serve_slices", "count", "lower", 0},
	{"serve_refused", "count", "lower", 0},
	{"serve_traps", "count", "lower", 0},
	// telemetry, the budget's closure, and the host's speed (see host.go):
	// layer times are raw; an end-to-end time × host_factor is raw too
	{"trace_overhead_pct", "%", "lower", 0},
	{"layers_sum_pct", "%", "higher", 0},
	{"host_factor", "ratio", "lower", 0},
}

// Seeds recorded with the benchmark: --seed defaults to defaultSeed and
// --corpus-seed to defaultCorpusSeed; a gain claimed on the default corpus
// must also hold on the corpus of holdoutCorpusSeed.
const (
	defaultSeed       = 1
	defaultCorpusSeed = 1
	holdoutCorpusSeed = 1_000_003
)

// env is what a workload's set-up may depend on.
type env struct {
	seed       int64   // --seed: what the driver varies from run to run
	corpusSeed int64   // --corpus-seed: which generated programs compile.corpus holds
	quick      bool    // smoke-test sizes: same programs and outputs, less work
	tailPct    float64 // the workload's tailPct
}

// workload is one named set of inputs. tailPct is the percentile its
// stall_tail_us reports: the highest that keeps ten samples beyond it at
// the recorded run length.
type workload struct {
	name    string
	why     string
	tailPct float64
	setup   func(env) (runner, error)
}

// runner is a set-up workload, ready to be measured.
type runner interface {
	// run performs operations for about d and measures them. With traced
	// set it also records spans at the layer boundaries and layer counts.
	run(d time.Duration, traced bool) *measurement
	// sizes are Σ encoded gc-table bytes and Σ code bytes over the
	// workload's programs.
	sizes() (tableBytes, codeBytes int)
	// setupChecks are the operations set-up attempted and failed.
	setupChecks() *checker
	close()
}

// measurement is what one run yields.
type measurement struct {
	opMs        float64 // median wall time of one operation
	opsPerS     float64 // operations completed per second
	stallP50Us  float64
	stallTailUs float64
	ops         int // operations timed
	stalls      int // stall samples behind the quantiles (the smallest window's, when windowed)
	chk         checker

	hostFactor float64 // median slowdown against the reference host (see host.go)

	// Traced runs only. A traced run alternates plain and traced operations
	// (windows, when windowed), so both see the same host; the fields above
	// describe the traced half and plainOpMs the other.
	plainOpMs float64
	layers    map[string]float64
	spans     []span
	rows      []layerStat // layerTable(spans), set by traceDone
	e2eNs     int64       // Σ traced operations' wall time: what the layers' self times must add up to
}

// traceDone closes a traced run: the recorders' spans joined and tabulated.
func (m *measurement) traceDone(ts ...*tracer) {
	m.spans = mergeTracers(ts...)
	m.rows = layerTable(m.spans)
}

// stallQuantiles fills the stall metrics from pooled samples; a workload
// whose user waits for nothing finer than the operation passes its
// operation times.
func (m *measurement) stallQuantiles(ns []float64, pct float64) {
	if len(ns) == 0 {
		return
	}
	s := sortedCopy(ns)
	m.stalls = len(s)
	m.stallP50Us = quantile(s, 0.5) / 1e3
	m.stallTailUs = quantile(s, pct/100) / 1e3
}

// options of one invocation.
type options struct {
	seed       int64
	corpusSeed int64
	seconds    float64
	traced     bool
	quick      bool
	outDir     string    // where the traced run writes its trace file
	report     io.Writer // human-readable tables
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// runWorkload sets w up (several times, for a median set-up time), measures
// it, and returns the driver's result.
func runWorkload(w *workload, o options) (*result, error) {
	// One mutator goroutine plus at most one helper everywhere, so a
	// 2-core and a 64-core host run the same schedule.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	// Set up three times, and a cheap set-up (50 ms for one small program)
	// until a second and a half is spent or fifteen are done: the median of
	// three such times moved by a quarter from run to run. The smoke test
	// sets up once.
	var r runner
	var setups []float64
	host := newHostClock()
	for spent := 0.0; len(setups) == 0 || (!o.quick && (len(setups) < 3 || (spent < 1.5 && len(setups) < 15))); {
		if r != nil {
			r.close()
		}
		quiesce()
		t0 := time.Now()
		var err error
		if r, err = w.setup(env{seed: o.seed, corpusSeed: o.corpusSeed, quick: o.quick, tailPct: w.tailPct}); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		s := time.Since(t0).Seconds()
		host.mark()
		spent += s
		setups = append(setups, host.scale(s))
	}
	defer r.close()

	d := time.Duration(o.seconds * float64(time.Second))
	chk := *r.setupChecks()
	tableBytes, codeBytes := r.sizes()
	var m *measurement
	res := &result{Metrics: map[string]metric{}}
	if o.traced {
		m = r.run(d, true)
		if m.layers == nil {
			return nil, fmt.Errorf("%s: the traced run completed no operation: %v", w.name, m.chk.msgs)
		}
		m.layers["host_factor"] = m.hostFactor
		if m.plainOpMs > 0 {
			m.layers["trace_overhead_pct"] = 100 * (m.opMs - m.plainOpMs) / m.plainOpMs
		}
		var self int64
		for _, row := range m.rows {
			self += row.SelfNs
		}
		if m.e2eNs > 0 {
			m.layers["layers_sum_pct"] = 100 * float64(self) / float64(m.e2eNs)
		}
		path := filepath.Join(o.outDir, "trace-"+w.name+".json")
		if err := writeChromeTrace(path, m.spans); err != nil {
			return nil, fmt.Errorf("%s: trace: %w", w.name, err)
		}
		printLayers(o.report, w, m, path)
		for _, def := range perLayer {
			res.Metrics[def.Name] = metric{m.layers[def.Name], def.Unit}
		}
		for name := range m.layers {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("%s: layer metric %q is not declared in perLayer", w.name, name)
			}
		}
	} else {
		m = r.run(d, false)
		values := map[string]float64{
			"setup_s":        median(setups),
			"op_ms":          m.opMs,
			"ops_per_s":      m.opsPerS,
			"stall_p50_us":   m.stallP50Us,
			"stall_tail_us":  m.stallTailUs,
			"table_pct_code": 100 * float64(tableBytes) / float64(codeBytes),
			"peak_rss_mb":    peakRSSMB(),
		}
		for _, def := range endToEnd {
			res.Metrics[def.Name] = metric{values[def.Name], def.Unit}
		}
		printEndToEnd(o.report, w, m, res, len(setups))
	}
	chk.merge(&m.chk)
	res.Attempted, res.Failed, res.Correct = chk.attempted, chk.failed, chk.failed == 0
	for _, msg := range chk.msgs {
		fmt.Fprintf(o.report, "FAILED %s: %s\n", w.name, msg)
	}
	return res, nil
}

func printEndToEnd(out io.Writer, w *workload, m *measurement, res *result, setups int) {
	fmt.Fprintf(out, "\n%s — %s\n", w.name, w.why)
	fmt.Fprintf(out, "  times are on the reference host (host.go); this host ran %.4f times slower, so raw op_ms was %.4f\n",
		m.hostFactor, res.Metrics["op_ms"].Value*m.hostFactor)
	samples := map[string]int{
		"setup_s": setups, "op_ms": m.ops, "ops_per_s": m.ops,
		"stall_p50_us": m.stalls, "stall_tail_us": m.stalls, "table_pct_code": 1, "peak_rss_mb": 1,
	}
	fmt.Fprintf(out, "  %-16s %14s %-5s %9s  %s\n", "metric", "value", "unit", "samples", "may worsen by")
	for _, def := range endToEnd {
		note := ""
		if def.Name == "stall_tail_us" {
			note = fmt.Sprintf("  (p%g, %d samples beyond it)", w.tailPct, beyond(m.stalls, w.tailPct))
			if !tailOK(m.stalls, w.tailPct) {
				note += " TOO FEW: run longer"
			}
		}
		fmt.Fprintf(out, "  %-16s %14.4f %-5s %9d  %.2f%s\n",
			def.Name, res.Metrics[def.Name].Value, def.Unit, samples[def.Name], def.Bound, note)
	}
}

// layerOf maps a span name to its module: "gc.mark_step" → "gc".
func layerOf(span string) string {
	name, _, _ := strings.Cut(span, ".")
	return name
}

func printLayers(out io.Writer, w *workload, m *measurement, tracePath string) {
	rows := m.rows
	fmt.Fprintf(out, "\n%s — layer budget of the traced run (%d operations, end-to-end %.3f ms each)\n",
		w.name, m.ops, float64(m.e2eNs)/1e6/float64(max(m.ops, 1)))
	fmt.Fprintf(out, "  %-24s %9s %12s %12s %8s\n", "span", "count", "busy ms", "self ms", "share")
	for _, row := range rows {
		fmt.Fprintf(out, "  %-24s %9d %12.3f %12.3f %7.2f%%\n", row.Name, row.Count,
			float64(row.BusyNs)/1e6, float64(row.SelfNs)/1e6, 100*float64(row.SelfNs)/float64(max(m.e2eNs, 1)))
	}
	byLayer := map[string]int64{}
	for _, row := range rows {
		byLayer[layerOf(row.Name)] += row.SelfNs
	}
	names := make([]string, 0, len(byLayer))
	for name := range byLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  by module:")
	for _, name := range names {
		fmt.Fprintf(out, " %s %.1f%%", name, 100*float64(byLayer[name])/float64(max(m.e2eNs, 1)))
	}
	fmt.Fprintf(out, "\n  layer metrics (non-zero):\n")
	for _, def := range perLayer {
		if v := m.layers[def.Name]; v != 0 {
			fmt.Fprintf(out, "    %-22s %16.4f %s\n", def.Name, v, def.Unit)
		}
	}
	fmt.Fprintf(out, "  trace: %s (%d of %d spans)\n", tracePath, min(len(m.spans), maxTraceEvents), len(m.spans))
}
