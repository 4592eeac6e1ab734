// Package opt implements the optimization passes of the mthree
// compiler, including the passes that create derived pointers (CSE,
// loop-invariant code motion, strength reduction with virtual array
// origins) and the two gc-support passes the paper requires for
// correctness at every optimization level: base preservation (the dead
// base problem) and path-variable insertion (ambiguous derivations).
package opt

import "repro/internal/ir"

// Options selects the pass pipeline.
type Options struct {
	// Level 0 runs only the mandatory gc-support passes; level 1 runs
	// the full optimizer.
	Level int
	// GCSupport enables the gc correctness passes (base preservation,
	// path variables) and derived-base keep-alive. Disabling it
	// reproduces the paper's §6.2 "without gc restrictions" compiles.
	GCSupport bool
	// PathSplitting disambiguates derivations by duplicating code paths
	// (Chambers/Ungar style, Figure 2) instead of inserting path
	// variables. Ablation only.
	PathSplitting bool
	// HeapLive enables the compile-time GC pass (ReuseCells): heap
	// cells proven dead are reinitialized in place instead of
	// allocated. Requires GCSupport and Level >= 1.
	HeapLive bool
}

// Optimize runs the configured pipeline over every procedure.
func Optimize(prog *ir.Program, opts Options) {
	for _, p := range prog.Procs {
		optimizeProc(p, opts)
	}
	if opts.HeapLive && opts.GCSupport && opts.Level >= 1 {
		// Interprocedural (capture summaries), so it runs after every
		// procedure's intraprocedural pipeline has settled.
		ReuseCells(prog)
	}
}

// pass is one entry of the per-procedure pipeline: a pass runs when on
// reports true for the options.
type pass struct {
	name string
	on   func(Options) bool
	run  func(*ir.Proc, Options)
}

func optimizing(o Options) bool { return o.Level >= 1 }
func gcSupport(o Options) bool  { return o.GCSupport }

// passes is the per-procedure pipeline in order. The cleanup round
// after StrengthReduce pays for itself: without it the default corpus
// compiles to 5 % more code.
var passes = []pass{
	{"ConstFold", optimizing, func(p *ir.Proc, _ Options) { ConstFold(p) }},
	{"CopyProp", optimizing, func(p *ir.Proc, _ Options) { CopyProp(p) }},
	{"CSE", optimizing, func(p *ir.Proc, _ Options) { CSE(p) }},
	{"LICM", optimizing, func(p *ir.Proc, _ Options) { LICM(p) }},
	{"StrengthReduce", optimizing, func(p *ir.Proc, _ Options) { StrengthReduce(p) }},
	{"CopyProp2", optimizing, func(p *ir.Proc, _ Options) { CopyProp(p) }},
	{"CSE2", optimizing, func(p *ir.Proc, _ Options) { CSE(p) }},
	{"ConstFold2", optimizing, func(p *ir.Proc, _ Options) { ConstFold(p) }},
	{"DCE", optimizing, func(p *ir.Proc, o Options) { DCE(p, o.GCSupport) }},
	{"PreserveBases", gcSupport, func(p *ir.Proc, _ Options) { PreserveBases(p) }},
	{"SplitPaths", func(o Options) bool { return o.GCSupport && o.PathSplitting },
		func(p *ir.Proc, _ Options) { SplitPaths(p) }},
	{"InsertPathVars", func(o Options) bool { return o.GCSupport && !o.PathSplitting },
		func(p *ir.Proc, _ Options) { InsertPathVars(p) }},
}

func optimizeProc(p *ir.Proc, opts Options) {
	for _, ps := range passes {
		if ps.on(opts) {
			ps.run(p, opts)
		}
	}
}

// ---------- shared helpers ----------

// defSite locates one definition.
type defSite struct {
	block *ir.Block
	idx   int
}

// defTable lists each register's definition sites, indexed by
// register number: r's sites are sites[start[r]:start[r+1]].
type defTable struct {
	start []int32
	sites []defSite
}

// numRegs is the number of registers the table covers.
func (d defTable) numRegs() int { return len(d.start) - 1 }

// of returns r's definition sites. Registers minted after the table was
// built have none.
func (d defTable) of(r ir.Reg) []defSite {
	if r < 0 || int(r) >= d.numRegs() {
		return nil
	}
	lo, hi := d.start[r], d.start[r+1]
	return d.sites[lo:hi:hi]
}

// collectDefs builds the definition table of p. Each register's sites
// are in program order.
func collectDefs(p *ir.Proc) defTable {
	n := p.NumRegs()
	// Count, take running sums so start[r] ends r's range, then fill
	// backwards, which leaves start[r] at the range's first site.
	start := make([]int32, n+1)
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Dst; d != ir.NoReg {
				start[d]++
			}
		}
	}
	for r := 1; r <= n; r++ {
		start[r] += start[r-1]
	}
	sites := make([]defSite, start[n])
	for bi := len(p.Blocks) - 1; bi >= 0; bi-- {
		b := p.Blocks[bi]
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			if d := b.Instrs[i].Dst; d != ir.NoReg {
				start[d]--
				sites[start[d]] = defSite{b, i}
			}
		}
	}
	return defTable{start, sites}
}

// replaceRegUses substitutes to for from in the instruction's operand
// positions (not the destination). Derivation references are replaced
// only when replaceDeriv is set.
func replaceRegUses(in *ir.Instr, from, to ir.Reg, replaceDeriv bool) {
	if in.A == from {
		in.A = to
	}
	if in.B == from {
		in.B = to
	}
	for i := range in.Args {
		if in.Args[i] == from {
			in.Args[i] = to
		}
	}
	if replaceDeriv {
		for i := range in.Deriv {
			if in.Deriv[i].Reg == from {
				in.Deriv[i].Reg = to
			}
		}
	}
}

// isPure reports whether the instruction has no side effect and can be
// removed if its result is unused, or re-ordered subject to operand
// dependences. Allocations (OpNew/OpText) are excluded.
func isPure(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpMov, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpNeg, ir.OpNot,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
		ir.OpAbs, ir.OpMin, ir.OpMax, ir.OpAddImm,
		ir.OpAddrGlobal, ir.OpAddrLocal,
		ir.OpLoad, ir.OpLoadGlobal, ir.OpLoadLocal:
		return true
	}
	return false
}

// removeInstrs compacts a block, dropping instructions flagged dead.
func removeInstrs(b *ir.Block, dead []bool) {
	out := b.Instrs[:0]
	for i := range b.Instrs {
		if !dead[i] {
			out = append(out, b.Instrs[i])
		}
	}
	b.Instrs = out
}
