package opt

import "repro/internal/ir"

// Pass is one entry of the per-procedure pipeline, as external tests
// see it.
type Pass struct {
	Name string
	On   func(Options) bool
	Run  func(*ir.Proc, Options)
}

// Passes returns the pipeline optimizeProc runs, in order.
func Passes() []Pass {
	out := make([]Pass, len(passes))
	for i, ps := range passes {
		out[i] = Pass{ps.name, ps.on, ps.run}
	}
	return out
}
