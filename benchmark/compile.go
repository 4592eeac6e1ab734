package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/difftest"
	"repro/internal/driver"
	"repro/internal/gctab"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/objfile"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vmachine"
)

// compiledProgram is what set-up keeps of one corpus program: the reference
// every later compile of the same source must reproduce byte for byte.
type compiledProgram struct {
	name, src string
	obj       []byte // objectBytes
	code      int    // code bytes
	table     int    // encoded gc-table bytes
}

// objectBytes is Compiled.WriteObject without Program.IdxOf, the one map in
// the image: gob writes a map in iteration order, so WriteObject's own bytes
// differ from run to run, and PCOf already determines it.
func objectBytes(prog *vmachine.Program, enc *gctab.Encoded, opts driver.Options) ([]byte, error) {
	p := *prog
	p.IdxOf = nil
	var buf bytes.Buffer
	err := objfile.Write(&buf, &p, enc, opts.Generational || opts.ConcurrentMark)
	return buf.Bytes(), err
}

// compileChecked compiles src twice and requires identical object bytes
// (the compiler is deterministic) and a clean strict gc-table verification.
// Each of the three is one checked operation.
func compileChecked(chk *checker, name, src string, opts driver.Options) (*driver.Compiled, *compiledProgram, error) {
	object := func() (*driver.Compiled, []byte, error) {
		c, err := driver.Compile(name, src, opts)
		if err != nil {
			return nil, nil, err
		}
		obj, err := objectBytes(c.Prog, c.Encoded, opts)
		return c, obj, err
	}
	c, obj, err := object()
	if !chk.op(err) {
		return nil, nil, fmt.Errorf("compile %s: %w", name, err)
	}
	_, again, err := object()
	if err == nil && !bytes.Equal(obj, again) {
		err = fmt.Errorf("compile %s: two compiles gave different object bytes", name)
	}
	chk.op(err)
	chk.op(c.Verify())
	return c, &compiledProgram{name: name, src: src, obj: obj, code: c.Prog.CodeSize(), table: c.Encoded.Size()}, nil
}

// corpusRunner is compile.corpus: driver.Compile over the four paper
// sources plus 64 seeded generated programs. No machine runs.
type corpusRunner struct {
	env
	progs []*compiledProgram
	opts  driver.Options
	chk   checker
}

// corpusGenerated is how many seeds each generator contributes: 64 programs.
const corpusGenerated = 32

// setupCorpus builds the corpus from env.corpusSeed and shuffles its compile
// order by env.seed. The programs do not follow --seed, because their cost
// does: 64 programs drawn from one seed or another took 57 to 82 ms to
// compile and 0.3 to 1.5 s to verify (compile time follows code size, and
// gc-table verification does so steeply: 3 ms at the median, 230 ms for the
// largest), and holding the corpus to a fixed code-size profile still left
// 13 %. Run-to-run spread would have measured the draw, not the compiler. A
// claim made on the default corpus is checked on another with --corpus-seed.
func setupCorpus(e env) (runner, error) {
	r := &corpusRunner{env: e, opts: driver.NewOptions()}
	type source struct{ name, src string }
	var srcs []source
	for _, name := range bench.Names() {
		srcs = append(srcs, source{name + ".m3", bench.Sources()[name]})
	}
	for i := e.corpusSeed; i < e.corpusSeed+corpusGenerated; i++ {
		srcs = append(srcs,
			source{fmt.Sprintf("difftest%d.m3", i), difftest.Generate(i)},
			source{fmt.Sprintf("progen%d.m3", i), progen.Program(i)})
	}
	if e.quick {
		srcs = srcs[:12]
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	for _, s := range srcs {
		_, p, err := compileChecked(&r.chk, s.name, s.src, r.opts)
		if err != nil {
			return nil, err
		}
		r.progs = append(r.progs, p)
	}
	return r, nil
}

func (r *corpusRunner) sizes() (table, code int) {
	for _, p := range r.progs {
		table += p.table
		code += p.code
	}
	return table, code
}

func (r *corpusRunner) setupChecks() *checker { return &r.chk }
func (r *corpusRunner) close()                {}

func (r *corpusRunner) run(d time.Duration, traced bool) *measurement {
	m := &measurement{}
	var tr *tracer
	var counts passCounts
	if traced {
		tr = newTracer(time.Now())
		// Before timing, the replayed pipeline must produce the objects
		// driver.Compile produced: otherwise the spans time something else.
		for _, p := range r.progs {
			prog, enc, _, err := replayCompile(nil, -1, 0, p.name, p.src, r.opts)
			if err == nil {
				var obj []byte
				if obj, err = objectBytes(prog, enc, r.opts); err == nil && !bytes.Equal(obj, p.obj) {
					err = fmt.Errorf("replayed pipeline of %s differs from driver.Compile's object", p.name)
				}
			}
			m.chk.op(err)
		}
	}
	var passNs, plainNs []float64
	host := newHostClock()
	deadline := time.Now().Add(d)
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		// A traced run replays every other pass (see measurement).
		plain := !traced || pass%2 == 0
		quiesce()
		passTr := tr // nil on a plain pass: records nothing
		if plain {
			passTr = nil
		}
		root := passTr.begin("corpus.pass", -1, pass)
		t0 := time.Now()
		for _, p := range r.progs {
			var code, table int
			var err error
			if plain {
				var c *driver.Compiled
				if c, err = driver.Compile(p.name, p.src, r.opts); err == nil {
					code, table = c.Prog.CodeSize(), c.Encoded.Size()
				}
			} else {
				var prog *vmachine.Program
				var enc *gctab.Encoded
				var c passCounts
				if prog, enc, c, err = replayCompile(tr, root, pass, p.name, p.src, r.opts); err == nil {
					code, table = prog.CodeSize(), enc.Size()
					counts.add(c)
				}
			}
			if err == nil {
				m.chk.op(mismatch(p.name+" code bytes", code, p.code), mismatch(p.name+" table bytes", table, p.table))
			} else {
				m.chk.op(err)
			}
		}
		ns := float64(time.Since(t0))
		passTr.end(root)
		host.mark()
		if plain && traced {
			plainNs = append(plainNs, host.scale(ns))
			continue
		}
		passNs = append(passNs, host.scale(ns))
		if traced {
			m.e2eNs += int64(ns)
		}
	}
	m.hostFactor = median(host.seen)
	m.ops = len(passNs)
	m.opMs = median(passNs) / 1e6
	m.opsPerS = 1e3 / m.opMs
	// Nothing finer than the pass stops a user of the compiler: the
	// stall quantiles are the pass's own.
	m.stallQuantiles(passNs, r.tailPct)
	if traced {
		m.plainOpMs = median(plainNs) / 1e6
		m.traceDone(tr)
		n := float64(m.ops)
		perPass := func(name string) float64 { return float64(selfOf(m.rows, name)) / 1e6 / n }
		m.layers = map[string]float64{
			"parser_ms":       perPass("parser.parse"),
			"sem_ms":          perPass("sem.check"),
			"irgen_ms":        perPass("irgen.build"),
			"opt_ms":          perPass("opt.optimize"),
			"codegen_ms":      perPass("codegen.generate"),
			"gctab_encode_ms": perPass("gctab.encode"),
			"src_bytes":       float64(counts.src) / n,
			"ir_instrs_irgen": float64(counts.irBuilt) / n,
			"ir_instrs_opt":   float64(counts.irOpt) / n,
			"code_bytes":      float64(counts.code) / n,
			"gc_points":       float64(counts.gcPoints) / n,
			"table_bytes":     float64(counts.table) / n,
		}
	}
	return m
}

// passCounts are the sizes each compiler pass leaves behind.
type passCounts struct {
	src, irBuilt, irOpt, code, gcPoints, table int
}

func (a *passCounts) add(b passCounts) {
	a.src += b.src
	a.irBuilt += b.irBuilt
	a.irOpt += b.irOpt
	a.code += b.code
	a.gcPoints += b.gcPoints
	a.table += b.table
}

func irInstrs(p *ir.Program) (n int) {
	for _, proc := range p.Procs {
		for _, b := range proc.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// replayCompile is driver.Compile's pipeline, one exported call at a time,
// with a span around each: the layers are timed from outside until the
// driver grows probes of its own. run checks its output against
// driver.Compile's object bytes before trusting the spans.
func replayCompile(tr *tracer, parent, op int, name, src string, opts driver.Options) (*vmachine.Program, *gctab.Encoded, passCounts, error) {
	counts := passCounts{src: len(src)}
	root := tr.begin("driver.compile", parent, op)
	defer tr.end(root)

	file := source.NewFile(name, src)
	errs := source.NewErrorList(file)
	s := tr.begin("parser.parse", root, op)
	mod := parser.Parse(file, errs)
	tr.end(s)
	if err := errs.Err(); err != nil {
		return nil, nil, counts, err
	}
	s = tr.begin("sem.check", root, op)
	checked := sem.Check(mod, errs)
	tr.end(s)
	if err := errs.Err(); err != nil {
		return nil, nil, counts, err
	}
	s = tr.begin("irgen.build", root, op)
	irp := irgen.Build(checked)
	tr.end(s)
	counts.irBuilt = irInstrs(irp)

	level := 0
	if opts.Optimize {
		level = 1
	}
	s = tr.begin("opt.optimize", root, op)
	opt.Optimize(irp, opt.Options{
		Level: level, GCSupport: opts.GCSupport, PathSplitting: opts.PathSplitting, HeapLive: opts.HeapLive,
	})
	tr.end(s)
	counts.irOpt = irInstrs(irp)

	s = tr.begin("codegen.generate", root, op)
	prog, tables, err := codegen.Generate(irp, codegen.Options{
		GCSupport: opts.GCSupport, Multithreaded: opts.Multithreaded, ElideNonAlloc: opts.ElideNonAlloc,
		Generational: opts.Generational, Barriers: opts.ConcurrentMark, HeapLive: opts.HeapLive,
	})
	tr.end(s)
	if err != nil {
		return nil, nil, counts, err
	}
	s = tr.begin("gctab.encode", root, op)
	enc := gctab.Encode(tables, opts.Scheme)
	tr.end(s)

	counts.code, counts.table = prog.CodeSize(), enc.Size()
	for i := range tables.Procs {
		counts.gcPoints += len(tables.Procs[i].Points)
	}
	return prog, enc, counts, nil
}
