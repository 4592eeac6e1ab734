// Package driver runs the full mthree pipeline: parse → check → lower →
// optimize → generate code and gc tables → link → build a machine with
// the chosen collector.
package driver

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/codegen"
	"repro/internal/conservative"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/gcverify"
	"repro/internal/gengc"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/objfile"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vmachine"
)

// Options configures a compilation.
type Options struct {
	// Optimize enables the full optimizer (the paper's -opt variants).
	Optimize bool
	// GCSupport (default in NewOptions) enables gc tables and the
	// gc-correctness passes; off reproduces §6.2's baseline compiles.
	GCSupport bool
	// Multithreaded inserts loop gc-polls for the rendezvous (§5.3).
	Multithreaded bool
	// ElideNonAlloc skips tables for calls to non-allocating
	// procedures (§5.3 refinement; single-threaded only).
	ElideNonAlloc bool
	// PathSplitting uses code duplication instead of path variables
	// for ambiguous derivations (Figure 2 ablation).
	PathSplitting bool
	// Generational compiles store checks (write barriers) so the
	// program can run under the generational collector.
	Generational bool
	// ConcurrentMark runs the precise collectors mostly-concurrently:
	// full (and generational major) collections snapshot roots in a
	// short initial pause, mark in bounded increments interleaved with
	// mutator execution, and stop the world again only to drain the
	// SATB buffer and copy. Compiles the same store checks as
	// Generational so the snapshot barrier has a hook on every heap
	// pointer store. The heap image, outputs, and collection counts
	// stay bitwise identical to stop-the-world runs (the difftest
	// matrix sweeps both).
	ConcurrentMark bool
	// HeapLive enables the compile-time GC pass (default in
	// NewOptions): cell reuse for allocations whose descriptor matches
	// a provably dead cell, and root shrinking for frame locals whose
	// heap references can never be dereferenced again. Requires
	// Optimize and GCSupport to have an effect.
	HeapLive bool
	// Scheme is the table encoding used by the collector.
	Scheme gctab.Scheme
	// Verify runs the static gc-table verifier (internal/gcverify) in
	// strict mode after compilation; a finding fails the compile.
	Verify bool
	// DecodeCache (default in NewOptions) walks stacks through a
	// gctab.CachedDecoder, so each procedure's table segment is decoded
	// at most once per run instead of once per lookup. Off reproduces
	// the paper's §6.3 per-collection decode cost. The cache is
	// behaviorally invisible: identical heap contents, outputs, and
	// errors either way.
	DecodeCache bool
	// WalkWorkers bounds the collectors' stack-walk worker pool and the
	// conservative heap's root-scan pool (0 = one worker per available
	// CPU, 1 = serial). Results are deterministic at any width.
	WalkWorkers int
	// TraceWorkers bounds the precise collectors' trace-copy worker pool
	// — parallel mark, copy, and pointer fixup (0 = one worker per
	// available CPU, 1 = serial). Placement is canonical, so the heap
	// image is bitwise identical at any width.
	TraceWorkers int
	// ThreadedDispatch (default in NewOptions) runs machines on the
	// vmachine dispatch table — superblock runs with one scheduler check
	// each, operands resolved at build time, and the bump-pointer
	// allocation fast path — instead of the reference interpreter. Like
	// DecodeCache it is behaviorally invisible: outputs, step and GC
	// counts, and heap images are bitwise identical either way (the
	// difftest matrix sweeps both), so off exists for differential
	// testing.
	ThreadedDispatch bool
}

// NewOptions returns the default configuration: optimized, gc support
// on, compile-time GC (heap liveness) on, δ-main with packing and
// previous-descriptors, decode cache on, threaded dispatch on.
func NewOptions() Options {
	return Options{
		Optimize: true, GCSupport: true, HeapLive: true,
		Scheme: gctab.DeltaPP, DecodeCache: true, ThreadedDispatch: true,
	}
}

// Compiled is the result of a compilation. One Compiled may instantiate
// any number of machines (NewMachine and friends): the Prog, Tables,
// and Encoded stream are immutable after Compile, which is what lets a
// multi-tenant host share them — and one memoizing decoder
// (SharedDecoder) and one dispatch table — across every instance.
type Compiled struct {
	Opts    Options
	IR      *ir.Program
	Prog    *vmachine.Program
	Tables  *gctab.Object
	Encoded *gctab.Encoded

	sharedOnce sync.Once
	shared     *gctab.CachedDecoder

	dispatchOnce sync.Once
	dispatch     *vmachine.DispatchTable
}

// Compile runs the pipeline over one module's source text.
func Compile(name, src string, opts Options) (*Compiled, error) {
	file := source.NewFile(name, src)
	errs := source.NewErrorList(file)
	mod := parser.Parse(file, errs)
	if err := errs.Err(); err != nil {
		return nil, err
	}
	prog := sem.Check(mod, errs)
	if err := errs.Err(); err != nil {
		return nil, err
	}
	irp := irgen.Build(prog)
	level := 0
	if opts.Optimize {
		level = 1
	}
	opt.Optimize(irp, opt.Options{
		Level:         level,
		GCSupport:     opts.GCSupport,
		PathSplitting: opts.PathSplitting,
		HeapLive:      opts.HeapLive,
	})
	vmProg, tables, err := codegen.Generate(irp, codegen.Options{
		GCSupport:     opts.GCSupport,
		Multithreaded: opts.Multithreaded,
		ElideNonAlloc: opts.ElideNonAlloc,
		Generational:  opts.Generational,
		Barriers:      opts.ConcurrentMark,
		HeapLive:      opts.HeapLive,
	})
	if err != nil {
		return nil, err
	}
	c := &Compiled{Opts: opts, IR: irp, Prog: vmProg, Tables: tables}
	if tables != nil {
		c.Encoded = gctab.Encode(tables, opts.Scheme)
	}
	if opts.Verify {
		if err := c.Verify(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Verify statically cross-checks the encoded gc tables against the
// generated code (strict mode when the in-memory tables are present).
// It returns nil for programs compiled without gc support.
func (c *Compiled) Verify() error {
	if c.Encoded == nil {
		return nil
	}
	// Objects loaded from disk carry no record of whether call-site
	// elision was enabled, so allow (still mayCollect-checked) elisions
	// whenever the in-memory tables are absent.
	rep := gcverify.Verify(c.Prog, c.Encoded, gcverify.Options{
		Object:           c.Tables,
		AllowElidedCalls: c.Opts.ElideNonAlloc || c.Tables == nil,
	})
	return rep.Err()
}

// tableDecoder builds the decoder the options ask for: memoizing by
// default, the paper's pay-per-lookup decoder when DecodeCache is off.
func (c *Compiled) tableDecoder() gctab.TableDecoder {
	if c.Opts.DecodeCache {
		return gctab.NewCachedDecoder(c.Encoded)
	}
	return gctab.NewDecoder(c.Encoded)
}

// SharedDecoder returns the module's process-wide memoizing decoder,
// built on first use. The encoded tables are immutable, so one decode
// of each procedure's segment serves every machine instantiated from
// this Compiled — the serving-time analogue of the tables' share-freely
// property. Pass it (via NewMachineWithDecoder) to machines that should
// share it; attach at most one tracer, before sharing. Returns nil for
// programs compiled without gc support.
func (c *Compiled) SharedDecoder() *gctab.CachedDecoder {
	if c.Encoded == nil {
		return nil
	}
	c.sharedOnce.Do(func() { c.shared = gctab.NewCachedDecoder(c.Encoded) })
	return c.shared
}

// enableDispatch puts m on the module's threaded-dispatch table when the
// options ask for one. The table is built on first use and shared by
// every machine of this Compiled: its handlers depend on the program
// alone. Call after the allocator is attached (it arms the allocation
// fast path per machine).
func (c *Compiled) enableDispatch(m *vmachine.Machine) {
	if !c.Opts.ThreadedDispatch {
		return
	}
	c.dispatchOnce.Do(func() {
		c.dispatch = vmachine.NewDispatchTable(c.Prog)
	})
	m.EnableThreadedDispatch(c.dispatch)
}

// NewMachine builds a machine running under the precise compacting
// collector and spawns the main thread. Each call creates an
// independent instance (own memory, heap, decoder) from the shared
// immutable program.
func (c *Compiled) NewMachine(cfg vmachine.Config) (*vmachine.Machine, *gc.Collector, error) {
	if c.Encoded == nil {
		return nil, nil, fmt.Errorf("driver: program compiled without gc support")
	}
	return c.NewMachineWithDecoder(cfg, c.tableDecoder())
}

// NewMachineWithDecoder builds a machine like NewMachine but walking
// stacks through dec — typically gctab.Pinned(c.SharedDecoder()) so
// thousands of instances share one decode of the immutable tables
// while keeping per-instance tracers (cfg.Tel) on their collectors.
func (c *Compiled) NewMachineWithDecoder(cfg vmachine.Config, dec gctab.TableDecoder) (*vmachine.Machine, *gc.Collector, error) {
	if c.Encoded == nil {
		return nil, nil, fmt.Errorf("driver: program compiled without gc support")
	}
	m := vmachine.New(c.Prog, cfg)
	h := heap.NewQuota(m.Mem, m.HeapLo, m.HeapHi, c.Prog.Descs, cfg.HeapQuota)
	col := gc.NewWith(h, dec)
	col.WalkWorkers = c.Opts.WalkWorkers
	col.TraceWorkers = c.Opts.TraceWorkers
	col.Concurrent = c.Opts.ConcurrentMark
	col.SetTracer(cfg.Tel)
	m.Alloc = h
	m.Collector = col
	c.enableDispatch(m)
	if _, err := m.Spawn(c.Prog.MainProc); err != nil {
		return nil, nil, err
	}
	return m, col, nil
}

// NewGenerationalMachine builds a machine running under the
// generational collector (compile with Options.Generational so the
// store checks exist).
func (c *Compiled) NewGenerationalMachine(cfg vmachine.Config) (*vmachine.Machine, *gengc.Collector, error) {
	if c.Encoded == nil {
		return nil, nil, fmt.Errorf("driver: program compiled without gc support")
	}
	return c.NewGenerationalMachineWithDecoder(cfg, c.tableDecoder())
}

// NewGenerationalMachineWithDecoder builds a machine like
// NewGenerationalMachine but walking stacks through dec — typically
// gctab.Pinned(c.SharedDecoder()), the same one-decode-per-process
// sharing NewMachineWithDecoder gives the full collector.
func (c *Compiled) NewGenerationalMachineWithDecoder(cfg vmachine.Config, dec gctab.TableDecoder) (*vmachine.Machine, *gengc.Collector, error) {
	if c.Encoded == nil {
		return nil, nil, fmt.Errorf("driver: program compiled without gc support")
	}
	if !c.Opts.Generational {
		return nil, nil, fmt.Errorf("driver: program compiled without store checks (Options.Generational)")
	}
	m := vmachine.New(c.Prog, cfg)
	h := gengc.NewHeap(m.Mem, m.HeapLo, m.HeapHi, c.Prog.Descs)
	col := gengc.NewWith(h, dec)
	col.WalkWorkers = c.Opts.WalkWorkers
	col.TraceWorkers = c.Opts.TraceWorkers
	col.Concurrent = c.Opts.ConcurrentMark
	col.SetTracer(cfg.Tel)
	m.Alloc = h
	m.Collector = col
	m.Barrier = col.Barrier
	c.enableDispatch(m)
	if _, err := m.Spawn(c.Prog.MainProc); err != nil {
		return nil, nil, err
	}
	return m, col, nil
}

// NewConservativeMachine builds a machine running under the
// ambiguous-roots mark-sweep baseline.
func (c *Compiled) NewConservativeMachine(cfg vmachine.Config) (*vmachine.Machine, *conservative.Heap, error) {
	m := vmachine.New(c.Prog, cfg)
	h := conservative.New(m.Mem, m.HeapLo, m.HeapHi, c.Prog.Descs)
	h.ScanWorkers = c.Opts.WalkWorkers
	h.SetTracer(cfg.Tel)
	m.Alloc = h
	m.Collector = h
	// The conservative free-list heap is not the semispace heap, so the
	// allocation fast path stays disarmed; dispatch still threads.
	c.enableDispatch(m)
	if _, err := m.Spawn(c.Prog.MainProc); err != nil {
		return nil, nil, err
	}
	return m, h, nil
}

// WriteObject serializes the compiled module (program + encoded gc
// tables) as an object file.
func (c *Compiled) WriteObject(w io.Writer) error {
	// The object-file flag records "store checks present" — true for
	// generational and concurrent-mark compiles alike.
	return objfile.Write(w, c.Prog, c.Encoded, c.Opts.Generational || c.Opts.ConcurrentMark)
}

// LoadObject reads a previously written object file. The result can run
// (NewMachine and friends) but carries no IR or unencoded tables.
func LoadObject(r io.Reader) (*Compiled, error) {
	prog, enc, generational, err := objfile.Read(r)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Prog: prog, Encoded: enc}
	c.Opts.Generational = generational
	if enc != nil {
		c.Opts.GCSupport = true
		c.Opts.Scheme = enc.Scheme
	}
	return c, nil
}

// Execute instantiates a machine under the precise collector and runs
// the program to completion, returning its output. A zero cfg uses
// vmachine.DefaultConfig. It is the execution half of Run; the CLI,
// the e2e suite, and the gcserve tenant pool all run through this
// compile-once/instantiate-many pair.
func (c *Compiled) Execute(cfg vmachine.Config) (string, error) {
	if cfg.HeapWords == 0 {
		cfg = vmachine.DefaultConfig()
	}
	var out bytes.Buffer
	cfg.Out = &out
	m, _, err := c.NewMachine(cfg)
	if err != nil {
		return "", err
	}
	if err := m.Run(0); err != nil {
		return out.String(), err
	}
	return out.String(), nil
}

// Run compiles and executes src with the precise collector, returning
// the program's output. A zero cfg uses vmachine.DefaultConfig.
func Run(name, src string, opts Options, cfg vmachine.Config) (string, error) {
	c, err := Compile(name, src, opts)
	if err != nil {
		return "", err
	}
	return c.Execute(cfg)
}
