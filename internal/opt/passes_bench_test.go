package opt_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/difftest"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// BenchmarkOptimizerPasses prices each entry of the optimizer's
// pipeline: it walks the same pass table optimizeProc runs, under the
// driver's default options, over the four paper programs and seeds 1-8
// of both program generators, and reports each entry's compile time
// per iteration (ReuseCells, which runs once per program after every
// procedure's pipeline, last).
//
//	go test -run '^$' -bench OptimizerPasses -benchtime 20x ./internal/opt
func BenchmarkOptimizerPasses(b *testing.B) {
	var srcs []string
	for _, name := range bench.Names() {
		srcs = append(srcs, bench.Sources()[name])
	}
	for seed := int64(1); seed <= 8; seed++ {
		srcs = append(srcs, difftest.Generate(seed), progen.Program(seed))
	}
	build := func(i int) *ir.Program {
		f := source.NewFile(fmt.Sprintf("p%d.m3", i), srcs[i])
		errs := source.NewErrorList(f)
		prog := sem.Check(parser.Parse(f, errs), errs)
		if err := errs.Err(); err != nil {
			b.Fatal(err)
		}
		return irgen.Build(prog)
	}

	opts := opt.Options{Level: 1, GCSupport: true, HeapLive: true}
	passes := opt.Passes()
	spent := make([]time.Duration, len(passes)+1)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range srcs {
			b.StopTimer()
			irp := build(i)
			b.StartTimer()
			for _, p := range irp.Procs {
				for k, ps := range passes {
					if ps.On(opts) {
						t0 := time.Now()
						ps.Run(p, opts)
						spent[k] += time.Since(t0)
					}
				}
			}
			t0 := time.Now()
			opt.ReuseCells(irp)
			spent[len(passes)] += time.Since(t0)
		}
	}
	for k, ps := range passes {
		if ps.On(opts) {
			b.ReportMetric(float64(spent[k].Nanoseconds())/float64(b.N), ps.Name+"-ns/op")
		}
	}
	b.ReportMetric(float64(spent[len(passes)].Nanoseconds())/float64(b.N), "ReuseCells-ns/op")
}
