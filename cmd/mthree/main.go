// Command mthree compiles and runs an mthree module on the virtual
// machine under a chosen garbage collector.
//
// Usage:
//
//	mthree [flags] file.m3|file.mxo
//
// Flags:
//
//	-O                  enable the optimizer
//	-heap N             heap words (default 1M)
//	-stack N            stack words per thread (default 64K)
//	-collector precise|conservative|generational|none
//	-stress             collect at every allocation gc-point
//	-gcstats            print collector statistics on exit
//	-scheme S           table scheme: full-plain, full-packing,
//	                    delta-plain, delta-previous, delta-packing, delta-pp
//	-trace-workers N    trace-copy worker pool width for the precise
//	                    collectors (0 = one per CPU, 1 = serial); the
//	                    heap image is bitwise identical at any width
//	-concmark           mostly-concurrent marking for the precise
//	                    collectors: SATB-barriered stores, incremental
//	                    mark, short final pause; outputs and heap
//	                    images stay identical to stop-the-world
//	-verify             statically verify the gc tables before running
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/driver"
	"repro/internal/gctab"
	"repro/internal/vmachine"
)

var schemes = map[string]gctab.Scheme{
	"full-plain":     gctab.FullPlain,
	"full-packing":   gctab.FullPacking,
	"delta-plain":    gctab.DeltaPlain,
	"delta-previous": gctab.DeltaPrev,
	"delta-packing":  gctab.DeltaPacking,
	"delta-pp":       gctab.DeltaPP,
}

func main() {
	optimize := flag.Bool("O", false, "enable the optimizer")
	heapWords := flag.Int64("heap", 1<<20, "heap words")
	stackWords := flag.Int64("stack", 1<<16, "stack words per thread")
	collector := flag.String("collector", "precise", "precise, conservative, generational, or none")
	stress := flag.Bool("stress", false, "collect at every allocation gc-point")
	gcstats := flag.Bool("gcstats", false, "print collector statistics")
	schemeName := flag.String("scheme", "delta-pp", "gc table encoding scheme")
	traceWorkers := flag.Int("trace-workers", 0, "trace-copy workers (0 = one per CPU, 1 = serial)")
	concMark := flag.Bool("concmark", false, "mostly-concurrent marking (SATB barrier + bounded final pause)")
	heapLive := flag.Bool("heaplive", true, "compile-time GC: cell reuse and root-set shrinking")
	verify := flag.Bool("verify", false, "statically verify the gc tables before running")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mthree [flags] file.m3")
		os.Exit(2)
	}
	scheme, ok := schemes[*schemeName]
	if !ok {
		fatal(fmt.Errorf("unknown scheme %q", *schemeName))
	}
	var c *driver.Compiled
	if strings.HasSuffix(flag.Arg(0), ".mxo") {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		c, err = driver.LoadObject(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if *verify {
			if err := c.Verify(); err != nil {
				fatal(err)
			}
		}
	} else {
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		opts := driver.Options{Optimize: *optimize, GCSupport: true, Scheme: scheme,
			HeapLive:       *heapLive,
			Generational:   *collector == "generational",
			ConcurrentMark: *concMark, Verify: *verify}
		c, err = driver.Compile(flag.Arg(0), string(src), opts)
		if err != nil {
			fatal(err)
		}
	}
	// After both paths (compile and .mxo load) so loaded objects honor
	// the flag too; NewMachine reads it when wiring the collector.
	c.Opts.TraceWorkers = *traceWorkers
	if *concMark {
		// A loaded object records whether barriered stores are in its
		// code stream; without them the SATB hook never fires and
		// concurrent marking would be unsound.
		if !c.Opts.Generational && !c.Opts.ConcurrentMark {
			fatal(fmt.Errorf("-concmark: %s was compiled without store checks", flag.Arg(0)))
		}
		c.Opts.ConcurrentMark = true
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = *heapWords
	cfg.StackWords = *stackWords
	cfg.Out = os.Stdout
	cfg.StressGC = *stress

	switch *collector {
	case "precise":
		m, col, err := c.NewMachine(cfg)
		if err != nil {
			fatal(err)
		}
		runErr := m.Run(0)
		if *gcstats {
			fmt.Fprintf(os.Stderr, "gc: %d collections, %d frames traced, %d words copied, trace %v, total %v\n",
				col.Collections, col.FramesTraced, col.WordsCopied, col.StackTraceTime, col.TotalTime)
			fmt.Fprintf(os.Stderr, "gc: phases mark %v, assign %v, copy %v, fixup %v (%d chunks shared)\n",
				col.MarkTime, col.AssignTime, col.CopyTime, col.FixupTime, col.Steals)
		}
		if runErr != nil {
			fatal(runErr)
		}
	case "generational":
		m, col, err := c.NewGenerationalMachine(cfg)
		if err != nil {
			fatal(err)
		}
		runErr := m.Run(0)
		if *gcstats {
			fmt.Fprintf(os.Stderr, "gc: %d minor + %d major collections, %d words promoted, %d barrier checks (%d recorded), total %v\n",
				col.Minor, col.Major, col.PromotedWords, col.BarrierChecks, col.BarrierHits, col.TotalTime)
		}
		if runErr != nil {
			fatal(runErr)
		}
	case "conservative":
		m, h, err := c.NewConservativeMachine(cfg)
		if err != nil {
			fatal(err)
		}
		runErr := m.Run(0)
		if *gcstats {
			fmt.Fprintf(os.Stderr, "gc: %d collections (mark-sweep), %d live words, total %v\n",
				h.Collections, h.LiveWords(), h.TotalTime)
		}
		if runErr != nil {
			fatal(runErr)
		}
	case "none":
		// Huge heap, collections are fatal.
		m, _, err := c.NewMachine(cfg)
		if err != nil {
			fatal(err)
		}
		if err := m.Run(0); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown collector %q", *collector))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mthree:", err)
	os.Exit(1)
}
