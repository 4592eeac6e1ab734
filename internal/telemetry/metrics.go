package telemetry

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; a nil *Counter is a no-op, so probes can hold unresolved
// handles without guarding every Add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric (heap occupancy, remset size).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last stored value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per power of two: bucket i counts observed
// values v with bits.Len64(v) == i, i.e. 0, 1, 2–3, 4–7, … — coarse,
// fixed-size, and allocation-free on the observe path.
const histBuckets = 65

// Histogram records a distribution of non-negative int64 values
// (durations in ns, sizes in bytes) in power-of-two buckets. The zero
// value is usable: a gcserve tenant holds two by value and no tracer.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// HistSnap is a histogram's state at snapshot time. The quantiles are
// upper bounds of the containing power-of-two bucket.
type HistSnap struct {
	Count int64
	Sum   int64
	Max   int64
	P50   int64
	P99   int64
}

// Mean returns the arithmetic mean of observed values.
func (s HistSnap) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Snapshot reads the histogram and computes its quantiles, at the
// reader's cost. Concurrent Observes may race ahead of the copy.
func (h *Histogram) Snapshot() HistSnap {
	s := HistSnap{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	s.P50 = h.quantile(s.Count, 0.50)
	s.P99 = h.quantile(s.Count, 0.99)
	return s
}

// quantile returns the upper bound of the bucket where the cumulative
// count reaches q·total.
func (h *Histogram) quantile(total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	need := int64(q*float64(total) + 0.5)
	if need < 1 {
		need = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= need {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return h.max.Load()
}

// Counter returns (registering on first use) the named counter. The
// returned handle is stable: probes resolve it once at wiring time and
// Add through the pointer on the hot path.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.ctrs[name]
	if !ok {
		c = &Counter{}
		t.ctrs[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (t *Tracer) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.gauges[name]
	if !ok {
		g = &Gauge{}
		t.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram.
func (t *Tracer) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hists[name]
	if !ok {
		h = &Histogram{}
		t.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistSnap
	// Emitted and Dropped describe the event ring: total events ever
	// emitted and how many were overwritten before being read.
	Emitted int64
	Dropped int64
}

// Counter returns a counter's value from the snapshot (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's value from the snapshot (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Names returns the snapshot's metric names, sorted, for stable
// printing.
func (s Snapshot) Names() (counters, gauges, hists []string) {
	for n := range s.Counters {
		counters = append(counters, n)
	}
	for n := range s.Gauges {
		gauges = append(gauges, n)
	}
	for n := range s.Histograms {
		hists = append(hists, n)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return
}

// Snapshot copies every registered metric. Concurrent emitters may race
// ahead of the copy; each individual value is read atomically.
func (t *Tracer) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnap{},
	}
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for n, c := range t.ctrs {
		s.Counters[n] = c.Value()
	}
	for n, g := range t.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range t.hists {
		s.Histograms[n] = h.Snapshot()
	}
	s.Emitted = t.Emitted()
	s.Dropped = t.Dropped()
	return s
}
