package main

import (
	"fmt"
	"io"
	"math"
)

// exactMetrics depend on the inputs alone, so two runs with one seed must
// agree to the last digit, whatever their bound towards a parent commit.
var exactMetrics = map[string]bool{"table_pct_code": true}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), which
// is what the driver judges a metric's spread by. It needs two samples.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sideSamples is one metric's values on the two sides of an A/A check.
type sideSamples struct{ a, b []float64 }

// aaVerdict compares the two sides' medians (the ones selfCheck prints)
// against the metric's bound.
func aaVerdict(def metricDef, s sideSamples) (diff float64, ok bool) {
	_, ma, _ := quartiles(s.a)
	_, mb, _ := quartiles(s.b)
	if ma == mb {
		return 0, true
	}
	diff = math.Abs(mb-ma) / math.Abs(ma)
	return diff, !exactMetrics[def.Name] && diff <= def.Bound
}

// selfCheck runs every workload runs times on each of two sides of the same
// build, alternating which side and which end of the list goes first, and
// fails if a metric's medians differ by more than its own bound: a benchmark
// that cannot tell a build from itself cannot tell it from its parent.
func selfCheck(o options, runs int) error {
	runs = max(runs, 2)
	samples := map[string]map[string]*sideSamples{}
	for r := 0; r < runs; r++ {
		for i := range workloads {
			w := &workloads[i]
			if r%2 == 1 {
				w = &workloads[len(workloads)-1-i]
			}
			if samples[w.name] == nil {
				samples[w.name] = map[string]*sideSamples{}
			}
			for side := 0; side < 2; side++ {
				res, err := runChild(w, options{seed: o.seed, corpusSeed: o.corpusSeed, seconds: o.seconds, quick: o.quick, report: io.Discard})
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
				}
				for name, v := range res.Metrics {
					s := samples[w.name][name]
					if s == nil {
						s = &sideSamples{}
						samples[w.name][name] = s
					}
					if (side+r)%2 == 0 {
						s.a = append(s.a, v.Value)
					} else {
						s.b = append(s.b, v.Value)
					}
				}
			}
			fmt.Fprintf(o.report, "round %d/%d: %s\n", r+1, runs, w.name)
		}
	}
	bad := 0
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(o.report, "\n%s\n  %-16s %-5s %36s %36s %8s %6s\n", w.name, "metric", "unit",
			"A: q1 / median / q3", "B: q1 / median / q3", "differ", "bound")
		for _, def := range endToEnd {
			s := samples[w.name][def.Name]
			diff, ok := aaVerdict(def, *s)
			a1, a2, a3 := quartiles(s.a)
			b1, b2, b3 := quartiles(s.b)
			verdict := ""
			if !ok {
				verdict = "  FAIL"
				bad++
			}
			fmt.Fprintf(o.report, "  %-16s %-5s %36s %36s %7.2f%% %5.0f%%%s\n", def.Name, def.Unit,
				fmt.Sprintf("%.4g / %.4g / %.4g", a1, a2, a3), fmt.Sprintf("%.4g / %.4g / %.4g", b1, b2, b3),
				100*diff, 100*def.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d metric × workload pairs differ between two sets of one build by more than their bound", bad)
	}
	fmt.Fprintln(o.report, "\nself-check passed: every metric × workload agrees with itself within its bound")
	return nil
}
