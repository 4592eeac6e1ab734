// Command paperbench regenerates the tables and measurements of the
// paper's evaluation (§6):
//
//	-table1       Table 1: benchmark statistics (Size, NGC, NPTRS, NDEL, NREG, NDER)
//	-table2       Table 2: table sizes as a percentage of code size per scheme
//	-sec62        §6.2: effect of gc support on the generated code
//	-sec63        §6.3: stack tracing time on destroy
//	-compare      §7 context: precise compacting vs conservative mark-sweep
//	-decode       decode cost per gc-point per scheme (δ-main vs full-info)
//	-refine       §5.2 refinements: 1-byte pc distances, array-run ground entries
//	-generational generational scavenging extension vs full copying
//	-all          everything
//
// -compare and -generational are divergence-fatal: if the two
// collectors print different output, paperbench exits non-zero. The
// repository's benchmark (benchmark/, BENCHMARK.json) tracks the
// collector and serving workloads.
package main

import (
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

// harness is one measurement, selected by the flag of its name.
type harness struct {
	name, usage string
	print       func(io.Writer) error
}

// harnesses lists the measurements in the order -all runs them.
var harnesses = []harness{
	{"table1", "regenerate Table 1", table1},
	{"table2", "regenerate Table 2", table2},
	{"sec62", "regenerate §6.2", sec62},
	{"sec63", "regenerate §6.3", sec63},
	{"compare", "precise vs conservative", compare},
	{"decode", "table decode cost per scheme", decode},
	{"refine", "§5.2 refinements: short pc distances, array runs", refine},
	{"generational", "generational scavenging extension vs full copying", generational},
}

// run is the testable entry point: it parses args, executes each
// selected harness, and maps outcomes to exit codes — 0 success,
// 1 measurement failure (including divergence), 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	selected := make([]*bool, len(harnesses))
	for i, h := range harnesses {
		selected[i] = fs.Bool(h.name, false, h.usage)
	}
	all := fs.Bool("all", false, "run everything")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []harness
	for i, h := range harnesses {
		if *all || *selected[i] {
			chosen = append(chosen, h)
		}
	}
	if len(chosen) == 0 {
		fs.Usage()
		return 2
	}
	for _, h := range chosen {
		if err := h.print(stdout); err != nil {
			fmt.Fprintln(stderr, "paperbench:", err)
			return 1
		}
	}
	return 0
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
