// Command gclint runs the project's custom static checks (see
// internal/lint): today, range-over-map iteration in the packages
// where map order would leak into generated code or gc tables and
// break compile determinism.
//
// Usage:
//
//	gclint [-root DIR] [package-dir ...]
//
// Package directories are relative to the repo root and default to
// lint.DefaultPackages, the determinism-critical path from IR to code
// and tables: internal/opt, internal/analysis, internal/regalloc,
// internal/codegen, internal/gctab. Exit status is 1 when any finding
// is reported.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	root := flag.String("root", ".", "repository root (directory containing go.mod)")
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = lint.DefaultPackages
	}
	findings, err := lint.Check(*root, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gclint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "gclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
