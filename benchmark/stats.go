package main

import (
	"fmt"
	"math"
	"sort"
)

// rank is the nearest-rank position (1-based) of the q-quantile among n
// samples: the smallest k with k/n ≥ q. The epsilon keeps 0.99×1000 at 990.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the nearest-rank
// rule: the smallest sample with at least a share q of the samples at or
// below it (see rank). sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	return sorted[rank(len(sorted), q)-1]
}

// sortedCopy returns vs in ascending order, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median returns the 0.5-quantile of vs, or 0 for no samples.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return quantile(sortedCopy(vs), 0.5)
}

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the figure is one host stall away from being the maximum.
const minBeyond = 10

// beyond is the number of samples above the pct-th percentile's rank in a
// set of n.
func beyond(n int, pct float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, pct/100)
}

// tailOK reports whether n samples support percentile pct under the
// ten-samples-beyond rule.
func tailOK(n int, pct float64) bool { return beyond(n, pct) >= minBeyond }

// window is one stretch of closed-loop traffic: the raw wall time of each
// request completed in it, how long it lasted, and how much slower than the
// reference the host ran meanwhile (see host.go; 1 leaves times raw).
type window struct {
	latNs   []float64
	seconds float64
	factor  float64
}

// windowMedians returns the median across windows of each window's request
// rate, p50 and pct-th percentile, all divided by the window's host factor,
// and the size of the smallest window. It is how the closed-loop workloads
// report throughput and latency: a host stall lands in one window and the
// median across windows sheds it.
func windowMedians(ws []window, pct float64) (rate, p50, tail float64, smallest int) {
	var rates, p50s, tails []float64
	smallest = -1
	for _, w := range ws {
		if smallest < 0 || len(w.latNs) < smallest {
			smallest = len(w.latNs)
		}
		if len(w.latNs) == 0 {
			continue
		}
		s := sortedCopy(w.latNs)
		rates = append(rates, float64(len(s))/w.seconds*w.factor)
		p50s = append(p50s, quantile(s, 0.5)/w.factor)
		tails = append(tails, quantile(s, pct/100)/w.factor)
	}
	return median(rates), median(p50s), median(tails), max(smallest, 0)
}

// checker counts operations attempted and failed. An operation fails once,
// however many of its checks miss.
type checker struct {
	attempted, failed int64
	msgs              []string
}

// op records one attempted operation; any non-nil problem fails it.
func (c *checker) op(problems ...error) bool {
	c.attempted++
	ok := true
	for _, err := range problems {
		if err == nil {
			continue
		}
		if ok {
			c.failed++
			ok = false
		}
		if len(c.msgs) < 8 {
			c.msgs = append(c.msgs, err.Error())
		}
	}
	return ok
}

func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.msgs = append(c.msgs, o.msgs...)
}

// mismatch returns an error when got differs from want.
func mismatch[T comparable](what string, got, want T) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("%s: got %v, want %v", what, got, want)
}
