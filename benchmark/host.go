package main

import (
	"runtime/debug"
	"time"
)

// Host-speed normalisation.
//
// The sandboxes this benchmark runs in change speed under it, in two ways
// that were both measured. For stretches of seconds to minutes the clock
// itself moves: a serial multiply-add chain in registers went between 0.98
// and 1.34 ns per step, and every workload's time moved with it (over 150 s,
// per-10-s medians of takl's run time ranged over 28 %, of the chain's over
// 25 %, of their ratio over 2 %). At other times the chain holds still (4 %)
// while a neighbour loads the memory system: a chain of dependent loads over
// 4 MB went from 65 to 101 ns per load and takl's run time from 39 to 54 ms;
// dividing takl's time by an even blend of the two chains cut its range from
// 32 % to 14 % and its quartile spread from 15 % to 6 %. Raw ten-second
// medians differed by 5–15 % from run to run and by up to 50 % between two
// sets of runs minutes apart — wider than any bound a regression gate can
// use.
//
// So every timed operation is bracketed by a few milliseconds of both
// chains, and its time is divided by how much slower than the reference they
// ran, averaged over the two brackets. A reported "ms" is a millisecond on a
// host that runs the chains at refStepNs and refLoadNs — this sandbox on a
// quiet minute, so quiet figures are close to raw wall time. Neither chain
// runs any code of the repository. The traced run reports the measured
// host_factor, from which raw times follow; layer metrics stay raw.
const (
	refStepNs = 1.25 // per multiply-add step
	refLoadNs = 70.0 // per dependent load

	spinSteps  = 500_000 // ~0.6 ms a burst
	chaseLoads = 12_000  // ~0.9 ms a burst
	bursts     = 3
)

var (
	spinSink uint64
	// chase is a single cycle through 2^20 slots (a full-period LCG step,
	// so the next slot is not predictable by a prefetcher): 4 MB, beyond
	// the caches a tenant of a shared host can count on.
	chase = func() []uint32 {
		t := make([]uint32, 1<<20)
		for i := range t {
			t[i] = uint32((i*1664525 + 1013904223) % len(t))
		}
		return t
	}()
)

// fastest runs f a few times and returns its best time per unit, so that a
// preemption inside one burst does not read as a slow host.
func fastest(units int, f func()) float64 {
	best := 0.0
	for b := 0; b < bursts; b++ {
		t0 := time.Now()
		f()
		if ns := float64(time.Since(t0)) / float64(units); b == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// hostFactor measures how much slower than the reference the host runs right
// now: the mean of the two chains' slowdowns.
func hostFactor() float64 {
	step := fastest(spinSteps, func() {
		x := spinSink | 1
		for i := 0; i < spinSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink = x
	})
	load := fastest(chaseLoads, func() {
		j := uint32(spinSink) % uint32(len(chase))
		for i := 0; i < chaseLoads; i++ {
			j = chase[j]
		}
		spinSink += uint64(j)
	})
	return (step/refStepNs + load/refLoadNs) / 2
}

// hostClock turns raw durations into reference-host durations. Call mark
// between operations; scale divides by the mean factor of the last two marks.
type hostClock struct {
	prev, cur float64
	seen      []float64
}

func newHostClock() *hostClock {
	c := &hostClock{}
	c.mark()
	return c
}

func (c *hostClock) mark() {
	c.prev, c.cur = c.cur, hostFactor()
	c.seen = append(c.seen, c.cur)
}

// factor is how much slower than the reference the host ran between the
// last two marks.
func (c *hostClock) factor() float64 { return (c.prev + c.cur) / 2 }

// scale converts a raw duration measured between the last two marks.
func (c *hostClock) scale(ns float64) float64 { return ns / c.factor() }

// quiesce runs before every timed operation: a full Go collection, and the
// freed pages handed back to the OS. Without the hand-back, whether a new
// machine image lands on the pages of the last one is the allocator's luck,
// and peak_rss_mb read 21 MB or 32 MB for the same work.
func quiesce() { debug.FreeOSMemory() }
