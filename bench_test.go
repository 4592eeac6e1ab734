package mthree

// Benchmarks regenerating the paper's evaluation (one per table/figure,
// plus the ablations DESIGN.md calls out):
//
//	BenchmarkTable1Stats        — Table 1 statistics computation
//	BenchmarkTable2Encode/*     — Table 2 encodings; reports bytes and %-of-code
//	BenchmarkDecodeLookup/*     — §6.1/§6.3 table decode cost, δ-main vs full-info
//	BenchmarkStackTrace         — §6.3 stack tracing per collection / per frame
//	BenchmarkFullCollection     — full compacting collection on destroy
//	BenchmarkCollector/*        — precise vs conservative on the same workload
//	BenchmarkCompile/*          — end-to-end compiler speed per benchmark
//	BenchmarkGCPointElision/*   — §5.3 refinement: tables with/without call elision
//	BenchmarkInterpreter        — VM throughput baseline (takl)

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/vmachine"
)

func compileBench(b *testing.B, name string, opts driver.Options) *driver.Compiled {
	b.Helper()
	src, ok := bench.Sources()[name]
	if !ok {
		b.Fatalf("unknown benchmark %q", name)
	}
	c, err := driver.Compile(name+".m3", src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func optDefault() driver.Options { return driver.NewOptions() }

// BenchmarkTable1Stats measures Table 1 statistics extraction across
// all four benchmarks and reports the aggregate counts.
func BenchmarkTable1Stats(b *testing.B) {
	var rows []bench.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	var ngc, nptrs int
	for _, r := range rows {
		ngc += r.NGC
		nptrs += r.NPTRS
	}
	b.ReportMetric(float64(ngc), "gc-points")
	b.ReportMetric(float64(nptrs), "pointers")
}

// BenchmarkTable2Encode measures encoding under each Table 2 scheme and
// reports table bytes and percentage of code size (typereg-opt, the
// paper's first row).
func BenchmarkTable2Encode(b *testing.B) {
	c := compileBench(b, "typereg", optDefault())
	for _, s := range []gctab.Scheme{
		gctab.FullPlain, gctab.FullPacking, gctab.DeltaPlain,
		gctab.DeltaPrev, gctab.DeltaPacking, gctab.DeltaPP,
	} {
		b.Run(s.String(), func(b *testing.B) {
			var e *gctab.Encoded
			for i := 0; i < b.N; i++ {
				e = gctab.Encode(c.Tables, s)
			}
			b.ReportMetric(float64(e.Size()), "table-bytes")
			b.ReportMetric(100*float64(e.Size())/float64(c.Prog.CodeSize()), "%code")
		})
	}
}

// BenchmarkDecodeLookup measures per-gc-point decode cost per scheme
// (the δ-main decode overhead §6.1 argues is small), through Decode —
// the error-reporting hot path the collectors use (Lookup collapses
// stream damage into ok=false, so it only answers membership probes).
// The cached sub-benchmarks show what memoization leaves: the
// last-procedure check and one load from the dense pc index.
func BenchmarkDecodeLookup(b *testing.B) {
	c := compileBench(b, "typereg", optDefault())
	var pcs []int
	for _, p := range c.Tables.Procs {
		for _, pt := range p.Points {
			pcs = append(pcs, pt.PC)
		}
	}
	run := func(name string, dec gctab.TableDecoder) {
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc := pcs[i%len(pcs)]
				v, err := dec.Decode(pc)
				if err != nil {
					b.Fatal(err)
				}
				if v == nil {
					b.Fatalf("pc %d is not a gc-point", pc)
				}
			}
		})
	}
	for _, s := range []gctab.Scheme{
		gctab.FullPlain, gctab.FullPacking, gctab.DeltaPlain,
		gctab.DeltaPrev, gctab.DeltaPacking, gctab.DeltaPP,
	} {
		e := gctab.Encode(c.Tables, s)
		run(s.String(), gctab.NewDecoder(e))
		run(s.String()+"-cached", gctab.NewCachedDecoder(e))
	}
}

// BenchmarkStackTrace reproduces §6.3: destroy with forced deep-stack
// collections, collection mode = stack trace only. Reports µs per
// collection and ns per frame (the paper's 470µs and 27µs), and the Go
// allocations of the whole run: the walk itself adds none once its
// arena has grown, only the plain decoder's per-visit decode does.
func BenchmarkStackTrace(b *testing.B) {
	b.ReportAllocs()
	src := bench.DestroySource(4, 7, 30, 3, 400)
	c, err := driver.Compile("destroy.m3", src, optDefault())
	if err != nil {
		b.Fatal(err)
	}
	var collections, frames int64
	var traceNS float64
	for i := 0; i < b.N; i++ {
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = 1 << 22
		cfg.Out = io.Discard
		m, col, err := c.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		col.Mode = gc.ModeTraceOnly
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		collections = col.Collections
		frames = col.FramesTraced
		traceNS = float64(col.StackTraceTime.Nanoseconds())
	}
	if collections > 0 {
		b.ReportMetric(traceNS/1000/float64(collections), "µs/collection")
		b.ReportMetric(traceNS/float64(frames), "ns/frame")
		b.ReportMetric(float64(frames)/float64(collections), "frames/collection")
	}
}

// BenchmarkFullCollection measures complete compacting collections on
// the destroy workload.
func BenchmarkFullCollection(b *testing.B) {
	src := bench.DestroySource(4, 7, 30, 3, 400)
	c, err := driver.Compile("destroy.m3", src, optDefault())
	if err != nil {
		b.Fatal(err)
	}
	var collections int64
	var totalNS, copied float64
	for i := 0; i < b.N; i++ {
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = 1 << 22
		cfg.Out = io.Discard
		m, col, err := c.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		collections = col.Collections
		totalNS = float64(col.TotalTime.Nanoseconds())
		copied = float64(col.WordsCopied)
	}
	if collections > 0 {
		b.ReportMetric(totalNS/1000/float64(collections), "µs/collection")
		b.ReportMetric(copied/float64(collections), "words-copied/collection")
	}
}

// BenchmarkCollector contrasts the two collectors end to end on the
// same allocation-heavy program with the same heap budget.
func BenchmarkCollector(b *testing.B) {
	c := compileBench(b, "FieldList", optDefault())
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 4096
	cfg.Out = io.Discard
	b.Run("precise-compacting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _, err := c.NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("conservative-marksweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _, err := c.NewConservativeMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompile measures front-to-back compilation (including table
// construction) for each benchmark program.
func BenchmarkCompile(b *testing.B) {
	for _, name := range bench.Names() {
		src := bench.Sources()[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := driver.Compile(name+".m3", src, optDefault()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGCPointElision quantifies the §5.3 refinement: gc-points at
// all calls versus eliding calls to statically non-allocating
// procedures.
func BenchmarkGCPointElision(b *testing.B) {
	for _, elide := range []bool{false, true} {
		name := "all-calls"
		if elide {
			name = "elide-nonallocating"
		}
		b.Run(name, func(b *testing.B) {
			opts := optDefault()
			opts.ElideNonAlloc = elide
			var c *driver.Compiled
			for i := 0; i < b.N; i++ {
				c = compileBench(b, "typereg", opts)
			}
			st := c.Tables.ComputeStats()
			e := gctab.Encode(c.Tables, gctab.DeltaPP)
			b.ReportMetric(float64(st.NGC), "gc-points")
			b.ReportMetric(float64(e.Size()), "table-bytes")
		})
	}
}

// BenchmarkGenerational contrasts the full copying collector with the
// generational extension on a young-garbage-heavy workload, reporting
// words copied per run (the quantity minor collections shrink).
func BenchmarkGenerational(b *testing.B) {
	// A long-lived list plus heavy young garbage: the full copier drags
	// the list through every collection; the generational collector
	// promotes it once and minor collections copy almost nothing.
	src := `
MODULE Churn;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR keep, junk: L; i, s: INTEGER;
BEGIN
  keep := NIL;
  FOR i := 1 TO 300 DO
    junk := NEW(L);
    junk.v := i;
    junk.next := keep;
    keep := junk;
  END;
  s := 0;
  FOR i := 1 TO 20000 DO
    junk := NEW(L);
    junk.v := i;
    s := s + junk.v;
    junk := NIL;
  END;
  WHILE keep # NIL DO s := s + keep.v; keep := keep.next; END;
  PutInt(s); PutLn();
END Churn.
`
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 8192
	cfg.Out = io.Discard

	b.Run("full-copying", func(b *testing.B) {
		c, err := driver.Compile("churn.m3", src, optDefault())
		if err != nil {
			b.Fatal(err)
		}
		var copied, gcs float64
		for i := 0; i < b.N; i++ {
			m, col, err := c.NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(0); err != nil {
				b.Fatal(err)
			}
			copied = float64(col.WordsCopied)
			gcs = float64(col.Collections)
		}
		b.ReportMetric(copied, "words-copied")
		b.ReportMetric(gcs, "collections")
	})
	b.Run("generational", func(b *testing.B) {
		opts := optDefault()
		opts.Generational = true
		c, err := driver.Compile("churn.m3", src, opts)
		if err != nil {
			b.Fatal(err)
		}
		var promoted, minors float64
		for i := 0; i < b.N; i++ {
			m, col, err := c.NewGenerationalMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(0); err != nil {
				b.Fatal(err)
			}
			promoted = float64(col.PromotedWords + col.MajorCopied)
			minors = float64(col.Minor)
		}
		b.ReportMetric(promoted, "words-copied")
		b.ReportMetric(minors, "collections")
	})
}

// BenchmarkInterpreter is the raw VM throughput baseline: takl with no
// collections.
func BenchmarkInterpreter(b *testing.B) {
	c := compileBench(b, "takl", optDefault())
	cfg := vmachine.DefaultConfig()
	cfg.Out = io.Discard
	var steps int64
	for i := 0; i < b.N; i++ {
		m, _, err := c.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		steps = m.Steps
	}
	b.ReportMetric(float64(steps), "vm-instructions")
}
