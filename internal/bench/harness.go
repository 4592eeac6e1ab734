package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// compile builds one benchmark variant.
func compile(name string, optimize, gcSupport bool) (*driver.Compiled, error) {
	src, ok := Sources()[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	return driver.Compile(name+".m3", src, driver.Options{
		Optimize:  optimize,
		GCSupport: gcSupport,
		Scheme:    gctab.DeltaPP,
	})
}

// Table1Row is one row of the paper's Table 1 ("Statistics of each of
// the benchmark programs").
type Table1Row struct {
	Program string
	Size    int // code bytes
	NGC     int // gc-points with non-empty tables
	NPTRS   int // total live pointers over all gc-points
	NDEL    int // delta tables emitted
	NREG    int // register pointer tables emitted
	NDER    int // derivations tables emitted
}

// Table1 regenerates Table 1: each benchmark, unoptimized and
// optimized.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range Names() {
		for _, optimize := range []bool{false, true} {
			c, err := compile(name, optimize, true)
			if err != nil {
				return nil, err
			}
			st := c.Tables.ComputeStats()
			label := name
			if optimize {
				label += "-opt"
			}
			rows = append(rows, Table1Row{
				Program: label,
				Size:    c.Prog.CodeSize(),
				NGC:     st.NGC, NPTRS: st.NPTRS,
				NDEL: st.NDEL, NREG: st.NREG, NDER: st.NDER,
			})
		}
	}
	return rows, nil
}

// Table2Row is one row of Table 2 ("Table sizes as a percentage of code
// size").
type Table2Row struct {
	Program      string
	FullPlain    float64
	FullPacking  float64
	DeltaPlain   float64
	DeltaPrev    float64
	DeltaPacking float64
	DeltaPP      float64
}

// Table2 regenerates Table 2: table size under each encoding scheme as
// a percentage of the program's code size.
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range Names() {
		for _, optimize := range []bool{false, true} {
			c, err := compile(name, optimize, true)
			if err != nil {
				return nil, err
			}
			pct := func(s gctab.Scheme) float64 {
				e := gctab.Encode(c.Tables, s)
				return 100 * float64(e.Size()) / float64(c.Prog.CodeSize())
			}
			label := name
			if optimize {
				label += "-opt"
			}
			rows = append(rows, Table2Row{
				Program:      label,
				FullPlain:    pct(gctab.FullPlain),
				FullPacking:  pct(gctab.FullPacking),
				DeltaPlain:   pct(gctab.DeltaPlain),
				DeltaPrev:    pct(gctab.DeltaPrev),
				DeltaPacking: pct(gctab.DeltaPacking),
				DeltaPP:      pct(gctab.DeltaPP),
			})
		}
	}
	return rows, nil
}

// Sec62Row quantifies the effect of gc support on generated code
// (§6.2): identical or larger code with the gc passes enabled.
type Sec62Row struct {
	Program       string
	Optimized     bool
	InstrsWith    int
	InstrsWithout int
	BytesWith     int
	BytesWithout  int
}

// Sec62 compiles every benchmark with and without gc support and
// reports the code differences.
func Sec62() ([]Sec62Row, error) {
	var rows []Sec62Row
	for _, name := range Names() {
		for _, optimize := range []bool{false, true} {
			with, err := compile(name, optimize, true)
			if err != nil {
				return nil, err
			}
			without, err := compile(name, optimize, false)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Sec62Row{
				Program:       name,
				Optimized:     optimize,
				InstrsWith:    len(with.Prog.Code),
				InstrsWithout: len(without.Prog.Code),
				BytesWith:     with.Prog.CodeSize(),
				BytesWithout:  without.Prog.CodeSize(),
			})
		}
	}
	return rows, nil
}

// Sec63Result reproduces the §6.3 stack-tracing timings on destroy:
// three runs with collection being (a) a full collection, (b) a stack
// trace only, (c) a null call; stack-trace cost per collection is the
// (b)−(c) difference, as in the paper.
type Sec63Result struct {
	Collections      int64
	FramesTraced     int64
	FullRunTime      time.Duration
	TraceOnlyRunTime time.Duration
	NullRunTime      time.Duration

	// Derived quantities (paper's numbers: 470µs/collection,
	// 27µs/frame, <6% of total gc time).
	StackTracePerCollection time.Duration
	StackTracePerFrame      time.Duration
	TotalGCTime             time.Duration
	GCTimePerCollection     time.Duration
	TraceShareOfGC          float64
}

// Sec63 runs the destroy benchmark with forced collections at fixed
// points under the three collection modes.
func Sec63(branch, depth, iters, replDepth, collectEvery int) (*Sec63Result, error) {
	src := DestroySource(branch, depth, iters, replDepth, collectEvery)
	c, err := driver.Compile("destroy.m3", src, driver.Options{
		Optimize: true, GCSupport: true, Scheme: gctab.DeltaPP,
	})
	if err != nil {
		return nil, err
	}
	res := &Sec63Result{}
	// Each mode runs with a telemetry tracer attached; the collection and
	// frame counts below come from its snapshot rather than the
	// collector's ad-hoc fields. ModeNull emits no events, so the tracer
	// does not perturb the timing baseline.
	runMode := func(mode gc.Mode) (time.Duration, *gc.Collector, telemetry.Snapshot, error) {
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = 1 << 22 // large: only the forced collections occur
		cfg.Out = io.Discard
		cfg.Tel = telemetry.New(telemetry.Config{})
		m, col, err := c.NewMachine(cfg)
		if err != nil {
			return 0, nil, telemetry.Snapshot{}, err
		}
		col.Mode = mode
		start := time.Now()
		if err := m.Run(0); err != nil {
			return 0, nil, telemetry.Snapshot{}, err
		}
		return time.Since(start), col, cfg.Tel.Snapshot(), nil
	}
	var colFull *gc.Collector
	var traceSnap telemetry.Snapshot
	if res.FullRunTime, colFull, _, err = runMode(gc.ModeFull); err != nil {
		return nil, err
	}
	if res.TraceOnlyRunTime, _, traceSnap, err = runMode(gc.ModeTraceOnly); err != nil {
		return nil, err
	}
	if res.NullRunTime, _, _, err = runMode(gc.ModeNull); err != nil {
		return nil, err
	}
	res.Collections = traceSnap.Counter(telemetry.CtrGCCollections)
	res.FramesTraced = traceSnap.Counter(telemetry.CtrGCFramesWalked)
	if res.Collections > 0 {
		diff := res.TraceOnlyRunTime - res.NullRunTime
		if diff < 0 {
			diff = 0
		}
		res.StackTracePerCollection = diff / time.Duration(res.Collections)
		if res.FramesTraced > 0 {
			res.StackTracePerFrame = diff / time.Duration(res.FramesTraced)
		}
		res.TotalGCTime = colFull.TotalTime
		res.GCTimePerCollection = colFull.TotalTime / time.Duration(colFull.Collections)
		if colFull.TotalTime > 0 {
			res.TraceShareOfGC = float64(diff) / float64(colFull.TotalTime)
		}
	}
	return res, nil
}

// FrameArraySource stresses the §5.2 compact-array refinement: a large
// stack-allocated pointer array produces one ground-table entry per
// element in the paper's implementation; the run encoding collapses it.
const FrameArraySource = `
MODULE FrameArr;
TYPE Node = REF RECORD v: INTEGER; END;
PROCEDURE Work(): INTEGER =
  VAR slots: ARRAY [0..31] OF Node;
  VAR i, s: INTEGER;
  BEGIN
    FOR i := 0 TO 31 DO
      slots[i] := NEW(Node);
      slots[i].v := i;
    END;
    s := 0;
    FOR i := 0 TO 31 DO
      s := s + slots[i].v;
    END;
    RETURN s;
  END Work;
BEGIN
  PutInt(Work()); PutLn();
END FrameArr.
`

// RefinementRow reports the §5.2 refinements' savings on top of the
// paper's best scheme (δ-main + Packing + Previous).
type RefinementRow struct {
	Program    string
	PP         int // bytes under delta-main+PP
	PPShort    int // + 1-byte pc distances
	PPRuns     int // + array-run ground entries
	PPBoth     int
	CodeBytes  int
	PointCount int
}

// Refinements measures the two §5.2 refinements over the benchmarks
// plus the frame-array stress program.
func Refinements() ([]RefinementRow, error) {
	srcs := Sources()
	srcs["framearray"] = FrameArraySource
	names := append(Names(), "framearray")
	var rows []RefinementRow
	for _, name := range names {
		c, err := driver.Compile(name+".m3", srcs[name], driver.Options{
			Optimize: true, GCSupport: true, Scheme: gctab.DeltaPP,
		})
		if err != nil {
			return nil, err
		}
		size := func(s gctab.Scheme) int { return gctab.Encode(c.Tables, s).Size() }
		points := 0
		for i := range c.Tables.Procs {
			points += len(c.Tables.Procs[i].Points)
		}
		rows = append(rows, RefinementRow{
			Program:    name,
			PP:         size(gctab.DeltaPP),
			PPShort:    size(gctab.Scheme{Packing: true, Previous: true, ShortDistances: true}),
			PPRuns:     size(gctab.Scheme{Packing: true, Previous: true, ArrayRuns: true}),
			PPBoth:     size(gctab.Scheme{Packing: true, Previous: true, ShortDistances: true, ArrayRuns: true}),
			CodeBytes:  c.Prog.CodeSize(),
			PointCount: points,
		})
	}
	return rows, nil
}

// CompareRow contrasts the precise compacting collector with the
// conservative mark-sweep baseline on one benchmark.
type CompareRow struct {
	Program                 string
	PreciseTime             time.Duration
	PreciseCollections      int64
	ConservativeTime        time.Duration
	ConservativeCollections int64
	// OutputsMatch reports the two collectors printed identical output;
	// the paperbench harness treats false as a divergence failure.
	OutputsMatch bool
}

// PreciseVsConservative runs each benchmark under both collectors with
// the same heap budget. destroy keeps a large tree live, so its budget
// is doubled; the others use heapWords directly.
func PreciseVsConservative(heapWords int64) ([]CompareRow, error) {
	var rows []CompareRow
	for _, name := range Names() {
		c, err := compile(name, true, true)
		if err != nil {
			return nil, err
		}
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = heapWords
		if name == "destroy" {
			cfg.HeapWords = heapWords * 8
		}
		var outP strings.Builder
		cfg.Out = &outP

		// Both runs report their collection counts through telemetry
		// snapshots (both collectors feed the same gc.collections
		// counter), not collector-specific fields.
		cfg.Tel = telemetry.New(telemetry.Config{})
		m1, _, err := c.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := m1.Run(0); err != nil {
			return nil, fmt.Errorf("%s precise: %w", name, err)
		}
		preciseTime := time.Since(t0)
		preciseSnap := cfg.Tel.Snapshot()

		// The conservative heap is one contiguous region (no
		// semispaces), so give it the same total budget.
		var outC strings.Builder
		cfg.Out = &outC
		cfg.Tel = telemetry.New(telemetry.Config{})
		m2, _, err := c.NewConservativeMachine(cfg)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := m2.Run(0); err != nil {
			return nil, fmt.Errorf("%s conservative: %w", name, err)
		}
		consSnap := cfg.Tel.Snapshot()
		rows = append(rows, CompareRow{
			Program:                 name,
			PreciseTime:             preciseTime,
			PreciseCollections:      preciseSnap.Counter(telemetry.CtrGCCollections),
			ConservativeTime:        time.Since(t1),
			ConservativeCollections: consSnap.Counter(telemetry.CtrGCCollections),
			OutputsMatch:            outP.String() == outC.String(),
		})
	}
	return rows, nil
}

// GenRow compares the full compacting collector against the
// generational extension on one workload.
type GenRow struct {
	Program string

	FullTime        time.Duration
	FullCollections int64
	FullCopiedWords int64

	GenTime       time.Duration
	GenMinor      int64
	GenMajor      int64
	GenPromoted   int64
	GenMajorWords int64
	BarrierChecks int64
	BarrierHits   int64
	// OutputsMatch reports the two collectors printed identical output;
	// the paperbench harness treats false as a divergence failure.
	OutputsMatch bool
}

// GenerationalComparison runs each benchmark under the full copying
// collector and the generational one with the same heap budget,
// reporting copied-word and collection-count differences (the paper's
// motivation for installing the scavenging toolkit collector).
func GenerationalComparison(heapWords int64) ([]GenRow, error) {
	var rows []GenRow
	for _, name := range Names() {
		hw := heapWords
		if name == "destroy" {
			hw *= 8 // destroy keeps a large tree live
		}
		row := GenRow{Program: name}

		full, err := compile(name, true, true)
		if err != nil {
			return nil, err
		}
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = hw
		var outF strings.Builder
		cfg.Out = &outF
		m1, col1, err := full.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := m1.Run(0); err != nil {
			return nil, fmt.Errorf("%s full: %w", name, err)
		}
		row.FullTime = time.Since(t0)
		row.FullCollections = col1.Collections
		row.FullCopiedWords = col1.WordsCopied

		src := Sources()[name]
		gopts := driver.Options{Optimize: true, GCSupport: true,
			Generational: true, Scheme: gctab.DeltaPP}
		gcc, err := driver.Compile(name+".m3", src, gopts)
		if err != nil {
			return nil, err
		}
		var outG strings.Builder
		cfg.Out = &outG
		m2, col2, err := gcc.NewGenerationalMachine(cfg)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := m2.Run(0); err != nil {
			return nil, fmt.Errorf("%s generational: %w", name, err)
		}
		row.GenTime = time.Since(t1)
		row.GenMinor = col2.Minor
		row.GenMajor = col2.Major
		row.GenPromoted = col2.PromotedWords
		row.GenMajorWords = col2.MajorCopied
		row.BarrierChecks = col2.BarrierChecks
		row.BarrierHits = col2.BarrierHits
		row.OutputsMatch = outF.String() == outG.String()
		rows = append(rows, row)
	}
	return rows, nil
}

// DecodeCost measures table decode time per gc-point lookup for a
// scheme (the δ-main vs full-info decoding overhead discussed in §6.1
// and §6.3).
func DecodeCost(name string, scheme gctab.Scheme, rounds int) (time.Duration, int, error) {
	c, err := compile(name, true, true)
	if err != nil {
		return 0, 0, err
	}
	enc := gctab.Encode(c.Tables, scheme)
	dec := gctab.NewDecoder(enc)
	var pcs []int
	for _, p := range c.Tables.Procs {
		for _, pt := range p.Points {
			pcs = append(pcs, pt.PC)
		}
	}
	if len(pcs) == 0 {
		return 0, 0, fmt.Errorf("bench: %s has no gc-points", name)
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, pc := range pcs {
			// Decode, not Lookup: a damaged stream must fail the
			// measurement, not read as "not a gc-point".
			v, err := dec.Decode(pc)
			if err != nil {
				return 0, 0, fmt.Errorf("bench: %w", err)
			}
			if v == nil {
				return 0, 0, fmt.Errorf("bench: pc %d is not a gc-point", pc)
			}
		}
	}
	total := time.Since(start)
	return total / time.Duration(rounds*len(pcs)), len(pcs), nil
}
