// Command paperbench regenerates every table and measurement from the
// paper's evaluation (§6):
//
//	-table1    Table 1: benchmark statistics (Size, NGC, NPTRS, NDEL, NREG, NDER)
//	-table2    Table 2: table sizes as a percentage of code size per scheme
//	-sec62     §6.2: effect of gc support on the generated code
//	-sec63     §6.3: stack tracing time on destroy
//	-compare   §7 context: precise compacting vs conservative mark-sweep
//	-decode    decode cost per gc-point per scheme (δ-main vs full-info)
//	-cache     decode-cache effect on takl: table bytes read per collection
//	-parallel  parallel trace-copy: pause phases at trace widths 1/2/4/8
//	-heaplive  compile-time GC: cell reuse + root shrinking, pass off vs on
//	-concurrent mostly-concurrent vs stop-the-world pause SLO at widths 1/2/4/8
//	-workloads BENCH_10 workload suite: server, deep stacks, adversarial kernels, ballast sweep
//	-all       everything
//
// -snapshot FILE writes the cached takl run's telemetry snapshot (cache
// hit rate, bytes read/saved) as JSON, for CI artifacts. -bench5 FILE
// writes the -parallel measurement (per-phase times per worker count,
// equivalence verdicts) as JSON, for the BENCH_5 CI artifact. -bench7
// FILE writes the -heaplive measurement (collections, copied words,
// pause deltas) as JSON, for the BENCH_7 CI artifact. -bench9 FILE
// writes the -concurrent measurement (pause p50/p99 per mode and trace
// width, SLO verdicts) as JSON, for the BENCH_9 CI artifact. -bench10
// FILE writes the -workloads measurement as JSON, for the BENCH_10 CI
// artifact; -quick shrinks the workload sizes for smoke runs.
//
// Every harness is divergence-fatal: if a measurement's equivalence
// checks fail (outputs, collection counts, or heap images differ where
// they must not), paperbench exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/gctab"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes each
// selected harness, and maps outcomes to exit codes — 0 success,
// 1 measurement failure (including divergence), 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	t1 := fs.Bool("table1", false, "regenerate Table 1")
	t2 := fs.Bool("table2", false, "regenerate Table 2")
	s62 := fs.Bool("sec62", false, "regenerate §6.2")
	s63 := fs.Bool("sec63", false, "regenerate §6.3")
	cmp := fs.Bool("compare", false, "precise vs conservative")
	dec := fs.Bool("decode", false, "table decode cost per scheme")
	ref := fs.Bool("refine", false, "§5.2 refinements: short pc distances, array runs")
	gen := fs.Bool("generational", false, "generational scavenging extension vs full copying")
	cache := fs.Bool("cache", false, "decode-cache effect on takl (table bytes read per collection)")
	par := fs.Bool("parallel", false, "parallel trace-copy pause phases at trace widths 1/2/4/8")
	hl := fs.Bool("heaplive", false, "compile-time GC: cell reuse + root shrinking, pass off vs on")
	conc := fs.Bool("concurrent", false, "mostly-concurrent vs stop-the-world pauses at trace widths 1/2/4/8")
	work := fs.Bool("workloads", false, "BENCH_10 workload suite: server sessions, deep stacks, adversarial kernels, ballast sweep")
	quick := fs.Bool("quick", false, "shrink -workloads sizes for smoke runs")
	snapshot := fs.String("snapshot", "", "write the cached takl run's telemetry snapshot (JSON) to this file")
	bench5 := fs.String("bench5", "", "write the parallel trace-copy measurement (JSON) to this file")
	bench7 := fs.String("bench7", "", "write the compile-time GC measurement (JSON) to this file")
	bench9 := fs.String("bench9", "", "write the concurrent pause measurement (JSON) to this file")
	bench10 := fs.String("bench10", "", "write the workload-suite measurement (JSON) to this file")
	all := fs.Bool("all", false, "run everything")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *all {
		*t1, *t2, *s62, *s63, *cmp, *dec, *ref, *gen, *cache, *par, *hl, *conc, *work = true, true, true, true, true, true, true, true, true, true, true, true, true
	}
	if *snapshot != "" {
		*cache = true
	}
	if *bench5 != "" {
		*par = true
	}
	if *bench7 != "" {
		*hl = true
	}
	if *bench9 != "" {
		*conc = true
	}
	if *bench10 != "" {
		*work = true
	}
	if !*t1 && !*t2 && !*s62 && !*s63 && !*cmp && !*dec && !*ref && !*gen && !*cache && !*par && !*hl && !*conc && !*work {
		fs.Usage()
		return 2
	}
	steps := []struct {
		on bool
		f  func() error
	}{
		{*t1, func() error { return table1(stdout) }},
		{*t2, func() error { return table2(stdout) }},
		{*s62, func() error { return sec62(stdout) }},
		{*s63, func() error { return sec63(stdout) }},
		{*cmp, func() error { return compare(stdout) }},
		{*dec, func() error { return decode(stdout) }},
		{*ref, func() error { return refine(stdout) }},
		{*gen, func() error { return generational(stdout) }},
		{*cache, func() error { return decodeCache(stdout, *snapshot) }},
		{*par, func() error { return parallelTrace(stdout, *bench5) }},
		{*hl, func() error { return heapLive(stdout, *bench7) }},
		{*conc, func() error { return concurrentPauses(stdout, *bench9) }},
		{*work, func() error { return workloads(stdout, *bench10, *quick) }},
	}
	for _, s := range steps {
		if !s.on {
			continue
		}
		if err := s.f(); err != nil {
			fmt.Fprintln(stderr, "paperbench:", err)
			return 1
		}
	}
	return 0
}

// writeJSON marshals v to path for a CI artifact.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func workloads(w io.Writer, bench10Path string, quick bool) error {
	fmt.Fprintln(w, "== BENCH_10 workload suite: server sessions, deep stacks, adversarial kernels, ballast sweep ==")
	fmt.Fprintln(w, "(every workload diffed bit-exactly against a serial reference; any")
	fmt.Fprintln(w, " divergence fails the run)")
	var cfg bench.Bench10Config
	if quick {
		cfg = bench.Bench10Config{
			ServerClients:    8,
			ServerDuration:   500 * time.Millisecond,
			StackDepth:       120,
			StackRounds:      3,
			StackHeapWords:   1 << 12,
			BallastHeapWords: 1 << 14,
			BallastIters:     120,
			BallastSlabs:     400,
			BallastSlabLen:   10,
		}
	}
	b, err := bench.RunBench10(cfg)
	if err != nil {
		return err
	}
	s := b.Server
	fmt.Fprintf(w, "server (generational, %d clients): %.0f req/s, %d runs, %d resumes, %d sessions\n",
		s.Config.Clients, s.ReqPerSec, s.Runs, s.Resumes, s.SessionsRan)
	fmt.Fprintf(w, "  outputs checked %d (match: %v), minor %d major %d, %d tenants measured\n",
		s.OutputsChecked, s.OutputsMatch, s.MinorTotal, s.MajorTotal, s.TenantsMeasured)
	fmt.Fprintf(w, "  per-tenant p50 spread [min p50 p99 max] ns: %v\n", s.PauseP50AcrossTenantsNs)
	fmt.Fprintf(w, "  per-tenant p99 spread [min p50 p99 max] ns: %v\n", s.PauseP99AcrossTenantsNs)
	st := b.Stack
	fmt.Fprintf(w, "stack (depth %d x %d rounds): %d collections, %d frames walked\n",
		st.Depth, st.Rounds, st.Collections, st.FramesWalked)
	fmt.Fprintf(w, "  decode bytes uncached/cached: %d/%d = %.1fx (hits %d, misses %d)\n",
		st.UncachedBytes, st.CachedBytes, st.BytesRatio, st.CacheHits, st.CacheMisses)
	for _, k := range b.Kernels {
		fmt.Fprintf(w, "kernel %-14s (%s): %d cells, %d findings, %v\n",
			k.Name, k.Construct, k.Cells, k.Findings, k.Time.Round(time.Millisecond))
	}
	bl := b.Ballast
	fmt.Fprintf(w, "ballast (heap %d words, %d slabs x %d, gomaxprocs %d):\n",
		bl.HeapWords, bl.Slabs, bl.SlabLen, bl.GoMaxProcs)
	fmt.Fprintf(w, "%-10s %7s %4s | %10s %10s %10s %10s | %7s %9s\n",
		"mode", "workers", "gcs", "mark", "assign", "copy", "fixup", "steals", "copied")
	for _, r := range bl.Rows {
		fmt.Fprintf(w, "%-10s %7d %4d | %10v %10v %10v %10v | %7d %8dw\n",
			r.Mode, r.Workers, r.Collections,
			r.Mark.Round(time.Microsecond), r.Assign.Round(time.Microsecond),
			r.Copy.Round(time.Microsecond), r.Fixup.Round(time.Microsecond),
			r.Steals, r.CopiedWords)
	}
	fmt.Fprintf(w, "  mark+copy speedup (stw 1w/8w): %.2fx\n", bl.MarkCopySpeedup)
	fmt.Fprintf(w, "divergence checks: %d failures\n", len(b.Divergence))
	if bench10Path != "" {
		if err := writeJSON(bench10Path, b); err != nil {
			return err
		}
		fmt.Fprintf(w, "BENCH_10 measurement written: %s\n", bench10Path)
	}
	if b.Diverged() {
		return fmt.Errorf("workload suite diverged: %v", b.Divergence)
	}
	fmt.Fprintln(w)
	return nil
}

func concurrentPauses(w io.Writer, bench9Path string) error {
	fmt.Fprintln(w, "== Mostly-concurrent marking: pause SLO vs stop-the-world (churn+ballast) ==")
	fmt.Fprintln(w, "(four mutator threads over a pinned ballast; the concurrent final pause")
	fmt.Fprintln(w, " drains the SATB buffer and runs assign/copy/fixup only, so its p99 must")
	fmt.Fprintln(w, " sit at or under half the stop-the-world pause at every trace width)")
	// 1<<16 words keeps enough headroom that concurrent cycles never
	// fall back to a synchronous collection (sync_collects stays 0);
	// 3600 worker loops then collect >100 times per run, enough samples
	// that a round's p99 is a real quantile, not its max. Five rounds
	// per cell: the verdict is the median per-round p99, and on a
	// single-core host an OS stall routinely poisons one round of a
	// cell — a median of five shrugs off two such rounds where a median
	// of three flips on the second.
	r, err := bench.ConcurrentPauseBenchmark(1<<16, 4000, 5, 3600)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gomaxprocs: %d, heap %d words, %d rounds per cell\n", r.GoMaxProcs, r.HeapWords, r.Rounds)
	fmt.Fprintf(w, "%-10s %7s %4s %6s | %10s %10s %10s | %10s %8s\n",
		"mode", "workers", "gcs", "cycles", "p50", "p99", "max", "concmark", "satb")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %7d %4d %6d | %10v %10v %10v | %10v %8d\n",
			row.Mode, row.Workers, row.Collections, row.Cycles,
			row.PauseP50.Round(time.Microsecond), row.PauseP99.Round(time.Microsecond),
			row.PauseMax.Round(time.Microsecond),
			row.ConcMark.Round(time.Microsecond), row.SATBLogged)
	}
	for _, v := range r.SLO {
		fmt.Fprintf(w, "width %d: concurrent p99 %v vs stw p99 %v = %.2fx (meets <=0.50: %v)\n",
			v.Workers, v.ConcP99.Round(time.Microsecond), v.StwP99.Round(time.Microsecond),
			v.Ratio, v.Meets)
	}
	fmt.Fprintf(w, "outputs identical:  %v\n", r.OutputsMatch)
	fmt.Fprintf(w, "all widths meet SLO: %v\n", r.AllMeetSLO)
	if bench9Path != "" {
		if err := writeJSON(bench9Path, r); err != nil {
			return err
		}
		fmt.Fprintf(w, "BENCH_9 measurement written: %s\n", bench9Path)
	}
	if !r.OutputsMatch {
		return fmt.Errorf("concurrent and stop-the-world runs diverged on output")
	}
	fmt.Fprintln(w)
	return nil
}

func heapLive(w io.Writer, bench7Path string) error {
	fmt.Fprintln(w, "== Compile-time GC: cell reuse + root shrinking (pass off vs on) ==")
	fmt.Fprintln(w, "(interprocedural heap liveness proves cells dead: same-shape NEWs")
	fmt.Fprintln(w, " reinitialize the dead cell in place, and dead frame slots drop out")
	fmt.Fprintln(w, " of the gc tables; outputs must be identical either way)")
	r, err := bench.HeapLiveBenchmark(1<<15, 4000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "heap %d words\n", r.HeapWords)
	fmt.Fprintf(w, "%9s %6s %5s %7s | %4s %10s %9s %8s %8s\n",
		"heaplive", "reuse", "dead", "tables", "gcs", "pause", "copied", "frames", "dynreuse")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%9v %6d %5d %6db | %4d %10v %8dw %8d %8d\n",
			row.HeapLive, row.ReuseSites, row.DeadEntries, row.TableBytes,
			row.Collections, row.Pause.Round(time.Microsecond),
			row.CopiedWords, row.FramesTraced, row.DynamicReuses)
	}
	fmt.Fprintf(w, "outputs identical:        %v\n", r.OutputsMatch)
	fmt.Fprintf(w, "copied words off/on:      %.1fx\n", r.CopiedWordsRatio)
	fmt.Fprintf(w, "pause time off/on:        %.2fx\n", r.PauseRatio)
	fmt.Fprintf(w, "collections saved:        %d\n", r.CollectionsSaved)
	if bench7Path != "" {
		if err := writeJSON(bench7Path, r); err != nil {
			return err
		}
		fmt.Fprintf(w, "BENCH_7 measurement written: %s\n", bench7Path)
	}
	if !r.OutputsMatch {
		return fmt.Errorf("compile-time GC changed program output")
	}
	fmt.Fprintln(w)
	return nil
}

func parallelTrace(w io.Writer, bench5Path string) error {
	fmt.Fprintln(w, "== Parallel trace-copy: pause phases per trace-worker count (takl+ballast) ==")
	fmt.Fprintln(w, "(canonical address assignment keeps the heap image bitwise identical at")
	fmt.Fprintln(w, " every width; speedup is bounded by GOMAXPROCS on the host)")
	r, err := bench.ParallelTraceComparison(1<<17, 2400)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gomaxprocs: %d, heap %d words\n", r.GoMaxProcs, r.HeapWords)
	fmt.Fprintf(w, "%7s %4s %10s | %10s %10s %10s %10s | %7s %9s\n",
		"workers", "gcs", "pause", "mark", "assign", "copy", "fixup", "steals", "copied")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%7d %4d %10v | %10v %10v %10v %10v | %7d %8dw\n",
			row.Workers, row.Collections, row.Pause.Round(time.Microsecond),
			row.Mark.Round(time.Microsecond), row.Assign.Round(time.Microsecond),
			row.Copy.Round(time.Microsecond), row.Fixup.Round(time.Microsecond),
			row.Steals, row.CopiedWords)
	}
	fmt.Fprintf(w, "outputs identical:          %v\n", r.OutputsMatch)
	fmt.Fprintf(w, "final heap images identical:%v\n", r.HeapsMatch)
	fmt.Fprintf(w, "mark+copy speedup (8w/1w):  %.2fx\n", r.MarkCopySpeedup)
	if bench5Path != "" {
		if err := writeJSON(bench5Path, r); err != nil {
			return err
		}
		fmt.Fprintf(w, "BENCH_5 measurement written: %s\n", bench5Path)
	}
	if !r.OutputsMatch || !r.HeapsMatch {
		return fmt.Errorf("trace widths diverged; parallel collection is not deterministic")
	}
	fmt.Fprintln(w)
	return nil
}

func decodeCache(w io.Writer, snapshotPath string) error {
	fmt.Fprintln(w, "== Decode cache: table bytes read per collection (takl) ==")
	fmt.Fprintln(w, "(the §6.3 cost model re-decodes every frame's tables each collection;")
	fmt.Fprintln(w, " the cache replays each procedure's segment at most once per run)")
	r, err := bench.DecodeCacheComparison("takl", 4096)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scheme:                     %v\n", r.Scheme)
	fmt.Fprintf(w, "collections:                %d uncached / %d cached\n", r.UncachedCollections, r.CachedCollections)
	fmt.Fprintf(w, "table bytes read, uncached: %d (%.1f per collection)\n", r.UncachedBytes, r.UncachedPerGC)
	fmt.Fprintf(w, "table bytes read, cached:   %d (%.1f per collection)\n", r.CachedBytes, r.CachedPerGC)
	fmt.Fprintf(w, "reduction:                  %.1fx\n", r.Reduction)
	hitRate := 0.0
	if r.CacheHits+r.CacheMisses > 0 {
		hitRate = 100 * float64(r.CacheHits) / float64(r.CacheHits+r.CacheMisses)
	}
	fmt.Fprintf(w, "cache hits/misses:          %d/%d (%.1f%% hit rate), %d bytes saved\n",
		r.CacheHits, r.CacheMisses, hitRate, r.BytesSaved)
	fmt.Fprintf(w, "outputs identical:          %v\n", r.OutputsMatch)
	if snapshotPath != "" {
		if err := writeJSON(snapshotPath, r.Snapshot); err != nil {
			return err
		}
		fmt.Fprintf(w, "telemetry snapshot written: %s\n", snapshotPath)
	}
	if !r.OutputsMatch {
		return fmt.Errorf("cached and uncached runs diverged")
	}
	fmt.Fprintln(w)
	return nil
}

func generational(w io.Writer) error {
	fmt.Fprintln(w, "== Generational scavenging (the toolkit collector the paper planned) ==")
	fmt.Fprintln(w, "(same tables, plus compiler-emitted store checks; minor collections")
	fmt.Fprintln(w, " promote survivors and scan only nursery roots + remembered slots)")
	rows, err := bench.GenerationalComparison(4096)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-11s | %9s %4s %9s | %9s %5s %5s %9s %7s %5s\n",
		"Program", "full", "gcs", "copied", "gen", "min", "maj", "promoted", "barrier", "out")
	diverged := false
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s | %9v %4d %8dw | %9v %5d %5d %8dw %7d %5v\n",
			r.Program, r.FullTime.Round(time.Microsecond), r.FullCollections, r.FullCopiedWords,
			r.GenTime.Round(time.Microsecond), r.GenMinor, r.GenMajor, r.GenPromoted, r.BarrierChecks,
			r.OutputsMatch)
		if !r.OutputsMatch {
			diverged = true
		}
	}
	if diverged {
		return fmt.Errorf("full and generational collectors diverged on output")
	}
	fmt.Fprintln(w)
	return nil
}

func refine(w io.Writer) error {
	fmt.Fprintln(w, "== §5.2 refinements: 1-byte pc distances and array-run ground entries ==")
	fmt.Fprintln(w, "(the paper projected 1 byte saved per gc-point from link-time distances,")
	fmt.Fprintln(w, " and described but did not implement compact array descriptions)")
	rows, err := bench.Refinements()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %7s %9s %9s %9s %9s\n", "Program", "points", "PP", "+shortpc", "+runs", "+both")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7d %8db %8db %8db %8db\n",
			r.Program, r.PointCount, r.PP, r.PPShort, r.PPRuns, r.PPBoth)
	}
	fmt.Fprintln(w)
	return nil
}

func table1(w io.Writer) error {
	fmt.Fprintln(w, "== Table 1: statistics of each of the benchmark programs ==")
	fmt.Fprintln(w, "(paper shape: -opt variants have comparable NGC; most tables are empty")
	fmt.Fprintln(w, " or identical to the previous gc-point; derivations are rare)")
	rows, err := bench.Table1()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %7s %5s %6s %5s %5s %5s\n", "Program", "Size", "NGC", "NPTRS", "NDEL", "NREG", "NDER")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %7d %5d %6d %5d %5d %5d\n", r.Program, r.Size, r.NGC, r.NPTRS, r.NDEL, r.NREG, r.NDER)
	}
	fmt.Fprintln(w)
	return nil
}

func table2(w io.Writer) error {
	fmt.Fprintln(w, "== Table 2: table sizes as a percentage of code size ==")
	fmt.Fprintln(w, "(paper shape: δ-main plain ≈45% of code; Packing+Previous brings it to ≈16%;")
	fmt.Fprintln(w, " full-info+packing is close to, but generally above, δ-main+packing)")
	rows, err := bench.Table2()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s | %9s %9s | %9s %9s %9s %6s\n",
		"Program", "FullPlain", "FullPack", "Plain", "Previous", "Packing", "PP")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s | %8.1f%% %8.1f%% | %8.1f%% %8.1f%% %8.1f%% %5.1f%%\n",
			r.Program, r.FullPlain, r.FullPacking, r.DeltaPlain, r.DeltaPrev, r.DeltaPacking, r.DeltaPP)
	}
	fmt.Fprintln(w)
	return nil
}

func sec62(w io.Writer) error {
	fmt.Fprintln(w, "== §6.2: effect of gc support on the generated code ==")
	fmt.Fprintln(w, "(paper shape: no significant change; a few moves to preserve clobbered")
	fmt.Fprintln(w, " base values and indirect references, mostly in unoptimized code)")
	rows, err := bench.Sec62()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-6s %12s %12s %8s\n", "Program", "Opt", "instrs(gc)", "instrs(no)", "Δinstr")
	for _, r := range rows {
		opt := "plain"
		if r.Optimized {
			opt = "-opt"
		}
		fmt.Fprintf(w, "%-12s %-6s %12d %12d %8d\n", r.Program, opt, r.InstrsWith, r.InstrsWithout, r.InstrsWith-r.InstrsWithout)
	}
	fmt.Fprintln(w)
	return nil
}

func sec63(w io.Writer) error {
	fmt.Fprintln(w, "== §6.3: stack tracing time (destroy benchmark) ==")
	fmt.Fprintln(w, "(paper: 470µs stack-trace per collection, 27µs per frame, well under")
	fmt.Fprintln(w, " 6% of total gc time; absolute numbers differ — the ratio is the result)")
	res, err := bench.Sec63(4, 7, 60, 3, 400)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "collections:                 %d\n", res.Collections)
	fmt.Fprintf(w, "frames traced:               %d (%.1f per collection)\n",
		res.FramesTraced, float64(res.FramesTraced)/float64(max64(res.Collections, 1)))
	fmt.Fprintf(w, "run (full collection):       %v\n", res.FullRunTime)
	fmt.Fprintf(w, "run (stack trace only):      %v\n", res.TraceOnlyRunTime)
	fmt.Fprintf(w, "run (null collection):       %v\n", res.NullRunTime)
	fmt.Fprintf(w, "stack trace per collection:  %v   (paper: 470µs on a 3-5 MIPS VAX)\n", res.StackTracePerCollection)
	fmt.Fprintf(w, "stack trace per frame:       %v   (paper: 27µs)\n", res.StackTracePerFrame)
	fmt.Fprintf(w, "total gc time per collection:%v\n", res.GCTimePerCollection)
	fmt.Fprintf(w, "stack trace share of gc:     %.2f%%   (paper: 1.7%%–6%%)\n", 100*res.TraceShareOfGC)
	fmt.Fprintln(w)
	return nil
}

func compare(w io.Writer) error {
	fmt.Fprintln(w, "== Precise compacting vs conservative mark-sweep (same heap budget) ==")
	rows, err := bench.PreciseVsConservative(4096)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %14s %8s %16s %8s %5s\n", "Program", "precise", "gcs", "conservative", "gcs", "out")
	diverged := false
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14v %8d %16v %8d %5v\n",
			r.Program, r.PreciseTime, r.PreciseCollections, r.ConservativeTime, r.ConservativeCollections,
			r.OutputsMatch)
		if !r.OutputsMatch {
			diverged = true
		}
	}
	if diverged {
		return fmt.Errorf("precise and conservative collectors diverged on output")
	}
	fmt.Fprintln(w)
	return nil
}

func decode(w io.Writer) error {
	fmt.Fprintln(w, "== Table decode cost per gc-point lookup ==")
	fmt.Fprintln(w, "(§6.1: δ-main's extra decode overhead is small, so full-info has little")
	fmt.Fprintln(w, " practical benefit; packing increases decode work slightly)")
	for _, s := range []gctab.Scheme{
		gctab.FullPlain, gctab.FullPacking, gctab.DeltaPlain,
		gctab.DeltaPrev, gctab.DeltaPacking, gctab.DeltaPP,
	} {
		d, n, err := bench.DecodeCost("typereg", s, 2000)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-22s %10v per lookup over %d gc-points\n", s, d, n)
	}
	fmt.Fprintln(w)
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
