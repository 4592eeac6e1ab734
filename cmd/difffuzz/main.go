// Command difffuzz sweeps the randomized differential-testing harness
// over a range of seeds: each generated program is compiled once per
// encoding scheme and executed under every cell of the
// {gc, gengc, conservative} × {8 schemes} × {cache on/off} ×
// {trace workers 1/8} × {heaplive, dispatch, concurrent marking on/off}
// matrix, with program output, collection counts, final
// heap images, strict table verification, and decode-cache
// transparency all diffed. Any disagreement is reduced to a minimal
// reproducer and written to -out for triage (and, once fixed, for
// promotion into internal/difftest/testdata/regressions/).
//
// Usage:
//
//	difffuzz [-n N] [-seed S] [-corrupt OFF[:MASK]] [-out DIR] [-v]
//
// Without -corrupt the exit status is 0 only when every seed agrees
// everywhere. With -corrupt a single byte of every scheme's encoded
// tables is XORed per compile, and the exit status is 0 only when the
// harness detects the fault — the detector checking its own detectors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/difftest"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("difffuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 50, "number of seeds to sweep")
	seed := fs.Int64("seed", 1, "first seed")
	corrupt := fs.String("corrupt", "", "inject OFF[:MASK] byte fault into every encoded stream")
	out := fs.String("out", "difffuzz-findings", "directory for reduced reproducers")
	verbose := fs.Bool("v", false, "print per-seed progress")
	trials := fs.Int("reduce-trials", 400, "delta-debugging budget per finding")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *n <= 0 {
		fmt.Fprintln(stderr, "usage: difffuzz [-n N] [-seed S] [-corrupt OFF[:MASK]] [-out DIR]")
		return 2
	}

	var corr *difftest.Corruption
	if *corrupt != "" {
		c, err := parseCorruption(*corrupt)
		if err != nil {
			fmt.Fprintf(stderr, "difffuzz: %v\n", err)
			return 2
		}
		corr = c
	}

	tel := telemetry.New(telemetry.Config{})
	cfg := difftest.Config{Corrupt: corr, Tel: tel}

	var findings []difftest.Finding
	reduced := 0
	for s := *seed; s < *seed+int64(*n); s++ {
		r := difftest.RunSeed(s, cfg)
		if *verbose {
			fmt.Fprintf(stdout, "seed %d: %d cells, %d findings\n", s, r.Cells, len(r.Findings))
		}
		if r.OK() {
			continue
		}
		findings = append(findings, r.Findings...)
		for _, f := range r.Findings {
			fmt.Fprintf(stdout, "FINDING %s\n", f)
		}
		// Reduce and persist the first finding of the seed; the rest
		// replay from the same program anyway.
		f := r.Findings[0]
		red, nt := difftest.ReduceFinding(f, r.Program, cfg, *trials)
		base, err := difftest.WriteRegression(*out, f, red)
		if err != nil {
			fmt.Fprintf(stderr, "difffuzz: writing reproducer: %v\n", err)
			return 1
		}
		reduced++
		fmt.Fprintf(stdout, "  reduced %d -> %d bytes in %d trials; wrote %s.{m3,json}\n",
			len(r.Program), len(red), nt, base)
	}

	summarize(stdout, tel)
	if corr != nil {
		if len(findings) == 0 {
			fmt.Fprintf(stdout, "corruption off=%d mask=%#02x UNDETECTED across %d seeds\n",
				corr.Off, corr.Mask, *n)
			return 1
		}
		fmt.Fprintf(stdout, "corruption detected: %d findings (%d reduced) across %d seeds\n",
			len(findings), reduced, *n)
		return 0
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "%d findings across %d seeds (%d reproducers in %s)\n",
			len(findings), *n, reduced, *out)
		return 1
	}
	fmt.Fprintf(stdout, "%d seeds: full matrix agrees everywhere\n", *n)
	return 0
}

// parseCorruption reads "OFF" or "OFF:MASK" (mask defaults to 0xFF).
func parseCorruption(s string) (*difftest.Corruption, error) {
	offS, maskS, hasMask := strings.Cut(s, ":")
	off, err := strconv.Atoi(offS)
	if err != nil || off < 0 {
		return nil, fmt.Errorf("bad corruption offset %q", offS)
	}
	mask := int64(0xFF)
	if hasMask {
		mask, err = strconv.ParseInt(maskS, 0, 16)
		if err != nil || mask <= 0 || mask > 0xFF {
			return nil, fmt.Errorf("bad corruption mask %q", maskS)
		}
	}
	return &difftest.Corruption{Off: off, Mask: byte(mask)}, nil
}

func summarize(w io.Writer, tel *telemetry.Tracer) {
	snap := tel.Snapshot()
	counters, _, _ := snap.Names()
	var ours []string
	for _, name := range counters {
		if strings.HasPrefix(name, "difftest.") {
			ours = append(ours, name)
		}
	}
	sort.Strings(ours)
	for _, name := range ours {
		fmt.Fprintf(w, "%-32s %d\n", name, snap.Counter(name))
	}
}
