package opt_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/heap"
	"repro/internal/irgen"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vmachine"
)

// TestBisectPasses is a debugging aid: set BISECT_SRC to a source file
// and it reports the program output after each optimizer stage.
func TestBisectPasses(t *testing.T) {
	path := os.Getenv("BISECT_SRC")
	if path == "" {
		t.Skip("BISECT_SRC not set")
	}
	srcBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := string(srcBytes)

	// Stage k runs the first k optimizing entries of the pipeline; the
	// gc-support entries, which run at level 0 too, always run.
	full := opt.Options{Level: 1, GCSupport: true}
	level0 := opt.Options{GCSupport: true}
	passes := opt.Passes()
	stages := []string{"none"}
	for _, ps := range passes {
		if ps.On(full) && !ps.On(level0) {
			stages = append(stages, ps.Name)
		}
	}

	for upto := range stages {
		f := source.NewFile("b.m3", src)
		errs := source.NewErrorList(f)
		mod := parser.Parse(f, errs)
		prog := sem.Check(mod, errs)
		if err := errs.Err(); err != nil {
			t.Fatal(err)
		}
		irp := irgen.Build(prog)
		for _, p := range irp.Procs {
			for k, ps := range passes {
				if ps.On(full) && (k < upto || ps.On(level0)) {
					ps.Run(p, full)
				}
			}
		}
		vmProg, tables, err := codegen.Generate(irp, codegen.Options{GCSupport: true})
		if err != nil {
			t.Fatal(err)
		}
		enc := gctab.Encode(tables, gctab.DeltaPP)
		var sb strings.Builder
		cfg := vmachine.Config{HeapWords: 1 << 18, StackWords: 1 << 14, MaxThreads: 1, Out: &sb}
		m := vmachine.New(vmProg, cfg)
		h := heap.New(m.Mem, m.HeapLo, m.HeapHi, vmProg.Descs)
		m.Alloc = h
		m.Collector = gc.New(h, enc)
		if _, err := m.Spawn(vmProg.MainProc); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(10_000_000); err != nil {
			t.Fatalf("stage %s: %v", stages[upto], err)
		}
		t.Logf("through %-14s => %q", stages[upto], sb.String())
	}
}
