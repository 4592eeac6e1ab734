package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/gcserve"
)

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  float64
		want int
	}{
		{1000, 99, 10}, {999, 99, 9}, {100, 90, 10}, {99, 90, 9}, {200, 95, 10}, {0, 99, 0}, {5, 50, 2},
	} {
		if got := beyond(c.n, c.pct); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.pct, got, c.want)
		}
		if got := tailOK(c.n, c.pct); got != (c.want >= 10) {
			t.Errorf("tailOK(%d, p%g) = %v", c.n, c.pct, got)
		}
	}
	// The p99 of 1..1000 is the 990th value: exactly ten lie beyond it.
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if got := quantile(vs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{5, 1, 3, 2, 4}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestWindowMedians(t *testing.T) {
	steady := func(n int, ns float64) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = ns
		}
		return vs
	}
	// Three steady windows and one hit by a stall: fewer, slower requests.
	ws := []window{
		{steady(1000, 10), 1, 1}, {steady(1200, 10), 1, 1}, {steady(300, 500), 1, 1}, {steady(1100, 10), 1, 1},
	}
	rate, p50, tail, smallest := windowMedians(ws, 99)
	if rate != 1000 || p50 != 10 || tail != 10 || smallest != 300 {
		t.Errorf("windowMedians = rate %v p50 %v tail %v smallest %d; want 1000, 10, 10, 300: the stalled window must not move the medians", rate, p50, tail, smallest)
	}
	// An empty window counts towards smallest but not towards the medians.
	if _, p50, _, smallest := windowMedians([]window{{steady(10, 7), 1, 1}, {nil, 1, 1}}, 99); p50 != 7 || smallest != 0 {
		t.Errorf("with an empty window: p50 %v smallest %d; want 7, 0", p50, smallest)
	}
	// A half-second window's rate is per second.
	if rate, _, _, _ := windowMedians([]window{{steady(50, 1), 0.5, 1}}, 99); rate != 100 {
		t.Errorf("rate of 50 requests in half a second = %v, want 100", rate)
	}
	// A host running 1.25× slower than the reference: times shrink, the rate grows.
	if rate, p50, _, _ := windowMedians([]window{{steady(800, 10), 1, 1.25}}, 99); rate != 1000 || p50 != 8 {
		t.Errorf("on a 1.25× slower host: rate %v p50 %v; want 1000, 8", rate, p50)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100] ─ run [10,90] ─ gc [20,40], gc [50,60]; a second recorder's
	// lone span is re-based on merge.
	a := &tracer{spans: []span{
		{Name: "op", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "run", StartNs: 10, EndNs: 90, Parent: 0},
		{Name: "gc.collect", StartNs: 20, EndNs: 40, Parent: 1},
		{Name: "gc.collect", StartNs: 50, EndNs: 60, Parent: 1},
	}}
	b := &tracer{spans: []span{
		{Name: "op", StartNs: 0, EndNs: 50, Parent: -1},
		{Name: "run", StartNs: 5, EndNs: 45, Parent: 0},
	}}
	spans := mergeTracers(a, nil, b)
	if got := spans[5].Parent; got != 4 {
		t.Fatalf("merged parent = %d, want 4", got)
	}
	want := map[string]layerStat{
		"op":         {Name: "op", Count: 2, BusyNs: 150, SelfNs: 30},
		"run":        {Name: "run", Count: 2, BusyNs: 120, SelfNs: 90},
		"gc.collect": {Name: "gc.collect", Count: 2, BusyNs: 30, SelfNs: 30},
	}
	var self int64
	for _, row := range layerTable(spans) {
		if row != want[row.Name] {
			t.Errorf("layer %s = %+v, want %+v", row.Name, row, want[row.Name])
		}
		self += row.SelfNs
	}
	if self != 150 {
		t.Errorf("self times sum to %d, want the roots' 150", self)
	}
	if layerOf("gc.collect") != "gc" || layerOf("run") != "run" {
		t.Error("layerOf must cut at the first dot")
	}
	// A nil tracer records nothing and does not panic.
	var none *tracer
	none.end(none.begin("x", -1, 0))
	none.add("x", 0, 1, -1, 0)
}

func TestFailureAccounting(t *testing.T) {
	var c checker
	if !c.op() || !c.op(nil, nil) {
		t.Error("an operation without problems must pass")
	}
	if c.op(nil, errors.New("output"), errors.New("steps")) {
		t.Error("an operation with problems must fail")
	}
	if c.attempted != 3 || c.failed != 1 || len(c.msgs) != 2 {
		t.Errorf("attempted %d failed %d msgs %d; want 3, 1, 2: two misses of one operation fail it once", c.attempted, c.failed, len(c.msgs))
	}
	var d checker
	d.op(errors.New("refused"))
	c.merge(&d)
	if c.attempted != 4 || c.failed != 2 {
		t.Errorf("after merge: attempted %d failed %d; want 4, 2", c.attempted, c.failed)
	}
	if mismatch("steps", 3, 3) != nil || mismatch("steps", 3, 4) == nil {
		t.Error("mismatch must report exactly the unequal pairs")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v; Python gives 3.5 24.0 160.0", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4)
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v; Python gives 1.0 2.0 3.0", q1, q2, q3)
	}
}

func TestAAVerdict(t *testing.T) {
	op := metricDef{Name: "op_ms", Bound: 0.10}
	if _, ok := aaVerdict(op, sideSamples{a: []float64{100, 101, 99}, b: []float64{108, 109, 107}}); !ok {
		t.Error("8 % apart with a 10 % bound must pass")
	}
	if _, ok := aaVerdict(op, sideSamples{a: []float64{100, 101, 99}, b: []float64{88, 89, 87}}); ok {
		t.Error("12 % apart with a 10 % bound must fail, in either direction")
	}
	exact := metricDef{Name: "table_pct_code", Bound: 0.02}
	if _, ok := aaVerdict(exact, sideSamples{a: []float64{9.86, 9.86}, b: []float64{9.86, 9.86}}); !ok {
		t.Error("an exact metric that repeats must pass")
	}
	if _, ok := aaVerdict(exact, sideSamples{a: []float64{9.86, 9.86}, b: []float64{9.87, 9.87}}); ok {
		t.Error("an exact metric must fail on any difference")
	}
}

// The expected outputs are hand-written; this recomputes each from its
// closed form, with nothing of the compiler under test in the loop.
func TestExpectedOutputs(t *testing.T) {
	var tak func(x, y, z int) int // Takeuchi on list lengths: Mas returns z's list
	tak = func(x, y, z int) int {
		if y >= x {
			return z
		}
		return tak(tak(x-1, y, z), tak(y-1, z, x), tak(z-1, x, y))
	}
	kept := func(n int) int { k := n / 5; return 5 * k * (k + 1) / 2 } // Churn keeps the multiples of five
	for name, want := range map[string]string{
		"mutator.takl":  fmt.Sprintf("%d\n", tak(14, 10, 5)),
		"gc.destroy":    fmt.Sprintf("%d\n", (int(math.Pow(4, 8))-1)/3), // complete 4-ary tree of depth 7
		"gc.deepstack":  bench.DeepWalkWant(220, 500),
		"gc.concurrent": fmt.Sprintf("%d\n", 4000*4001/2+kept(200)+kept(170)+kept(140)),
		"serve.session": gcserve.SessionWorkloadWant(sessionRequests, sessionCacheEvery, sessionPerReq),
	} {
		if got := expectedOutput(name); got != want {
			t.Errorf("expected/%s.out holds %q, the closed form gives %q", name, got, want)
		}
	}
}

// BENCHMARK.json repeats what the tables here define; the driver reads the
// file and the benchmark prints from the tables, so they must not drift.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, def)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != def.Bound) {
				t.Errorf("%s %s: bound differs from the table's %v", kind, def.Name, def.Bound)
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd, true)
	same("per_layer", manifest.PerLayer, perLayer, false)
}

// Every workload at its smoke size, untraced and traced: a workload that
// stops compiling, diverges from its expected output, or reports a metric
// the manifest does not know fails tier 1 in a few seconds.
func TestWorkloadsQuick(t *testing.T) {
	start := time.Now()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			o := options{seed: defaultSeed, corpusSeed: defaultCorpusSeed, seconds: 0.1, traced: traced, quick: true, outDir: t.TempDir(), report: io.Discard}
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d operations failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				v, ok := res.Metrics[def.Name]
				if !ok || v.Unit != def.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s (traced %v): metric %s = %+v (present %v)", w.name, traced, def.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, def.Name, v.Value)
				}
			}
			if traced {
				if sum := res.Metrics["layers_sum_pct"].Value; sum < 95 || sum > 105 {
					t.Errorf("%s: layer self times sum to %.1f %% of the end-to-end figure, want within 5 %%", w.name, sum)
				}
			}
		}
	}
	t.Logf("all workloads, untraced and traced, in %v", time.Since(start).Round(time.Millisecond))
}
