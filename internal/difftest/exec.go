package difftest

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/driver"
	"repro/internal/gctab"
	"repro/internal/gcverify"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// AllSchemes is the full 8-way encoding matrix: {full-info, δ-main} ×
// {plain, previous, packing, packing+previous}.
var AllSchemes = []gctab.Scheme{
	{Full: true},
	{Full: true, Previous: true},
	{Full: true, Packing: true},
	{Full: true, Packing: true, Previous: true},
	{},
	{Previous: true},
	{Packing: true},
	{Packing: true, Previous: true},
}

// Collector names for Cell.Collector.
const (
	CollectorGC           = "gc"
	CollectorGen          = "gengc"
	CollectorConservative = "conservative"
)

var allCollectors = []string{CollectorGC, CollectorGen, CollectorConservative}

// Cell identifies one execution configuration of the differential
// matrix.
type Cell struct {
	Collector string // CollectorGC, CollectorGen, or CollectorConservative
	Scheme    gctab.Scheme
	Cache     bool // walk stacks through the memoizing decoder
	Workers   int  // stack-walk / root-scan worker pool width
	// TraceWorkers is the precise collectors' trace-copy pool width
	// (mark, copy, fixup). Conservative cells ignore it (mark-sweep has
	// no copy phase); the matrix only varies it for gc and gengc.
	TraceWorkers int
	// HeapLive selects the compile with the compile-time GC pass (cell
	// reuse + root shrinking) enabled. A compile-time dimension: cells
	// differing only in HeapLive run different code and tables, so they
	// are compared against the reference output but form separate
	// determinism groups (reuse changes allocation counts and heap
	// images by design).
	HeapLive bool
	// Threaded runs the cell on the vmachine superblock dispatch table
	// instead of the reference interpreter. Dispatch must be
	// behaviorally invisible, so threaded cells stay in the same
	// determinism group as reference cells: step counts, collection
	// counts and final heap images must match bitwise.
	Threaded bool
	// Concurrent runs the precise collectors mostly-concurrently: SATB
	// write barrier, incremental mark bursts, short final pause. Cells
	// here are single-threaded, so the split cycle executes back-to-back
	// at the trigger point — which must be bitwise identical to a
	// stop-the-world collection. Concurrent cells therefore stay in the
	// same determinism group as synchronous cells: outputs, collection
	// counts, and final heap images must match exactly. The conservative
	// baseline has no precise mark phase to split and ignores the flag;
	// its cells pin that the option is inert there.
	Concurrent bool
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/cache=%v/workers=%d/tw=%d/heaplive=%v/threaded=%v/conc=%v",
		c.Collector, c.Scheme, c.Cache, c.Workers, c.TraceWorkers, c.HeapLive, c.Threaded, c.Concurrent)
}

// traceWidthsFor returns the trace-copy pool widths the matrix explores
// for a collector: serial and wide for the copying collectors (whose
// heap images must be bitwise identical either way), serial only for
// the conservative baseline (no copy phase to parallelize).
func traceWidthsFor(collector string) []int {
	if collector == CollectorConservative {
		return []int{1}
	}
	return []int{1, 8}
}

// Matrix returns the full {collector × scheme × cache × workers ×
// trace-workers × heaplive × dispatch × concurrent} product over the
// given schemes (AllSchemes when nil).
func Matrix(schemes []gctab.Scheme) []Cell {
	if schemes == nil {
		schemes = AllSchemes
	}
	var cells []Cell
	for _, col := range allCollectors {
		for _, s := range schemes {
			for _, cache := range []bool{false, true} {
				for _, workers := range []int{1, 8} {
					for _, tw := range traceWidthsFor(col) {
						for _, hl := range []bool{false, true} {
							for _, th := range []bool{false, true} {
								for _, conc := range []bool{false, true} {
									cells = append(cells, Cell{Collector: col, Scheme: s,
										Cache: cache, Workers: workers, TraceWorkers: tw,
										HeapLive: hl, Threaded: th, Concurrent: conc})
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// Kind classifies a finding.
type Kind int

// Finding kinds.
const (
	KindCompile     Kind = iota // the program failed to compile
	KindTrap                    // a cell trapped, panicked, or exceeded the step budget
	KindOutput                  // a cell's output differs from the reference run
	KindDeterminism             // step count, collection count or heap image differs within a collector group
	KindVerify                  // gcverify strict mode flagged the encoded tables
	KindCache                   // the memoizing decoder diverged from the plain decoder
)

var kindNames = [...]string{"compile", "trap", "output", "determinism", "verify", "cache"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromString inverts Kind.String (for replaying recorded
// regressions); ok is false for an unknown name.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Corruption is a deliberate single-byte fault injected into every
// scheme's encoded table stream (XOR of Mask at Off modulo the stream
// length) — the harness's own detector-of-detectors.
type Corruption struct {
	Off  int
	Mask byte
}

// Finding is one structured divergence. Seed plus Cell (plus the
// optional Corruption) replay it bit-identically.
type Finding struct {
	Seed    int64
	Kind    Kind
	Cell    Cell // zero Collector for per-scheme findings (verify, cache)
	Detail  string
	Corrupt *Corruption
}

func (f Finding) String() string {
	where := f.Cell.String()
	if f.Cell.Collector == "" {
		where = f.Cell.Scheme.String()
	}
	s := fmt.Sprintf("seed %d [%s] %s: %s", f.Seed, f.Kind, where, f.Detail)
	if f.Corrupt != nil {
		s += fmt.Sprintf(" (corrupt off=%d mask=%#02x)", f.Corrupt.Off, f.Corrupt.Mask)
	}
	return s
}

// Config parameterizes one harness execution.
type Config struct {
	// Schemes to compile and verify (default AllSchemes).
	Schemes []gctab.Scheme
	// Cells to run (default Matrix(Schemes)). An empty-but-non-nil
	// slice runs no cells (per-scheme checks only).
	Cells []Cell
	// MaxSteps bounds each cell's execution (default 50M); exceeding
	// it is a KindTrap finding.
	MaxSteps int64
	// SkipVerify disables the per-scheme gcverify strict pass.
	SkipVerify bool
	// SkipCacheCheck disables the per-scheme decode-cache transparency
	// probe.
	SkipCacheCheck bool
	// Corrupt, when non-nil, is applied to every scheme's encoded
	// bytes after compilation.
	Corrupt *Corruption
	// Tel, when non-nil, receives per-cell counters:
	// difftest.programs, difftest.cells.<collector>, and
	// difftest.divergences.<kind>.
	Tel *telemetry.Tracer
}

func (c Config) schemes() []gctab.Scheme {
	if c.Schemes == nil {
		return AllSchemes
	}
	return c.Schemes
}

func (c Config) cells() []Cell {
	if c.Cells == nil {
		return Matrix(c.schemes())
	}
	return c.Cells
}

func (c Config) maxSteps() int64 {
	if c.MaxSteps <= 0 {
		return 50_000_000
	}
	return c.MaxSteps
}

// Result is the outcome of running one program through the matrix.
type Result struct {
	Seed     int64
	Program  string
	Cells    int // cells executed
	Findings []Finding
}

// OK reports whether every cell and every static check agreed.
func (r *Result) OK() bool { return len(r.Findings) == 0 }

// RunSeed generates the program for seed and executes it under cfg.
func RunSeed(seed int64, cfg Config) *Result {
	return Execute(seed, Generate(seed), cfg)
}

// heapWordsFor sizes each collector's heap tightly enough that
// generated programs collect mid-loop; the conservative heap gets
// headroom because ambiguous roots retain garbage and nothing
// compacts.
func heapWordsFor(collector string) int64 {
	switch collector {
	case CollectorConservative:
		return 1 << 16
	case CollectorGen:
		return 1 << 14
	default:
		return 1 << 14
	}
}

type cellResult struct {
	cell     Cell
	out      string
	err      string
	steps    int64
	gcs      int64
	heapHash uint64
}

// Execute compiles src once per scheme and runs it under every cell,
// diffing program output against an unoptimized big-heap reference,
// and step counts, collection counts and final heap images within each
// collector group (where scheme, cache, and workers must all be
// behaviorally invisible). Per scheme it also runs the gcverify strict
// pass and the decode-cache transparency probe. Every disagreement is
// one Finding.
func Execute(seed int64, src string, cfg Config) *Result {
	res := &Result{Seed: seed, Program: src}
	add := func(f Finding) {
		f.Seed = seed
		f.Corrupt = cfg.Corrupt
		res.Findings = append(res.Findings, f)
		if cfg.Tel != nil {
			cfg.Tel.Counter("difftest.divergences." + f.Kind.String()).Add(1)
		}
	}
	if cfg.Tel != nil {
		cfg.Tel.Counter("difftest.programs").Add(1)
	}

	// Reference: unoptimized, huge heap, precise collector — the
	// simplest configuration whose output defines "correct".
	refOut, err := driver.Run("fuzz.m3", src, driver.Options{
		GCSupport: true, Scheme: gctab.DeltaPP,
	}, vmachine.Config{HeapWords: 1 << 18, StackWords: 1 << 14, MaxThreads: 1})
	if err != nil {
		kind := KindCompile
		if _, isRun := err.(*vmachine.RuntimeError); isRun {
			kind = KindTrap
		}
		add(Finding{Kind: kind, Detail: "reference: " + err.Error()})
		return res
	}

	// One compile per {scheme, heaplive}, shared by all three collectors
	// (the generational store checks are inert under the others).
	compiled := make(map[string]*driver.Compiled)
	ckey := func(s gctab.Scheme, hl bool) string {
		return fmt.Sprintf("%s/heaplive=%v", s, hl)
	}
	for _, s := range cfg.schemes() {
		for _, hl := range []bool{false, true} {
			c, err := driver.Compile("fuzz.m3", src, driver.Options{
				Optimize: true, GCSupport: true, Generational: true, Scheme: s,
				HeapLive: hl,
			})
			if err != nil {
				add(Finding{Kind: KindCompile, Cell: Cell{Scheme: s, HeapLive: hl}, Detail: err.Error()})
				return res
			}
			if cfg.Corrupt != nil && len(c.Encoded.Bytes) > 0 {
				c.Encoded.Bytes[cfg.Corrupt.Off%len(c.Encoded.Bytes)] ^= cfg.Corrupt.Mask
			}
			compiled[ckey(s, hl)] = c

			if !cfg.SkipVerify {
				rep := gcverify.Verify(c.Prog, c.Encoded, gcverify.Options{Object: c.Tables})
				if !rep.OK() {
					add(Finding{Kind: KindVerify, Cell: Cell{Scheme: s, HeapLive: hl},
						Detail: fmt.Sprintf("%d findings; first: %s", len(rep.Findings), rep.Findings[0])})
				}
			}
			if !cfg.SkipCacheCheck {
				if err := gctab.VerifyCacheTransparency(c.Encoded); err != nil {
					add(Finding{Kind: KindCache, Cell: Cell{Scheme: s, HeapLive: hl}, Detail: err.Error()})
				}
			}
		}
	}

	// Run the matrix.
	groups := make(map[string][]cellResult) // collector/heaplive -> results
	for _, cell := range cfg.cells() {
		c, ok := compiled[ckey(cell.Scheme, cell.HeapLive)]
		if !ok {
			continue // scheme outside cfg.Schemes
		}
		r := runCell(c, cell, cfg.maxSteps())
		res.Cells++
		if cfg.Tel != nil {
			cfg.Tel.Counter("difftest.cells." + cell.Collector).Add(1)
		}
		if r.err != "" {
			add(Finding{Kind: KindTrap, Cell: cell, Detail: r.err})
			continue
		}
		if r.out != refOut {
			add(Finding{Kind: KindOutput, Cell: cell,
				Detail: fmt.Sprintf("output %q, reference %q", clip(r.out), clip(refOut))})
		}
		gk := fmt.Sprintf("%s/heaplive=%v", cell.Collector, cell.HeapLive)
		groups[gk] = append(groups[gk], r)
	}

	// Within a {collector, heaplive} group, scheme/cache/workers/
	// trace-workers/dispatch/concurrency must be invisible: identical
	// step counts, collection counts and bitwise-identical final heaps.
	// HeapLive splits the groups because cell reuse legitimately changes
	// all three; Threaded and Concurrent do NOT split them — the
	// superblock table must be indistinguishable from the reference
	// interpreter, and the split concurrent cycle from stop-the-world.
	for _, col := range sortedKeys(groups) {
		g := groups[col]
		base := g[0]
		for _, r := range g[1:] {
			if r.steps != base.steps {
				add(Finding{Kind: KindDeterminism, Cell: r.cell,
					Detail: fmt.Sprintf("%d steps, %s had %d", r.steps, base.cell, base.steps)})
			}
			if r.gcs != base.gcs {
				add(Finding{Kind: KindDeterminism, Cell: r.cell,
					Detail: fmt.Sprintf("%d collections, %s had %d", r.gcs, base.cell, base.gcs)})
			}
			if r.heapHash != base.heapHash {
				add(Finding{Kind: KindDeterminism, Cell: r.cell,
					Detail: fmt.Sprintf("final heap hash %#x, %s had %#x", r.heapHash, base.cell, base.heapHash)})
			}
		}
	}
	return res
}

// runCell builds and runs one machine; panics (possible under
// deliberately corrupted tables) are contained into an error result.
func runCell(c *driver.Compiled, cell Cell, maxSteps int64) (r cellResult) {
	r.cell = cell
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Sprintf("panic: %v", p)
		}
	}()

	// Rebuild rather than copy: Compiled carries the shared-decoder
	// sync.Once, and this cell wants its own decoder state anyway.
	cc := &driver.Compiled{
		Opts:    c.Opts,
		IR:      c.IR,
		Prog:    c.Prog,
		Tables:  c.Tables,
		Encoded: c.Encoded,
	}
	cc.Opts.DecodeCache = cell.Cache
	cc.Opts.WalkWorkers = cell.Workers
	cc.Opts.TraceWorkers = cell.TraceWorkers
	cc.Opts.ThreadedDispatch = cell.Threaded
	// No recompile needed: every difftest compile is Generational, so
	// the barriered stores the concurrent marker hangs off are already
	// in the code stream.
	cc.Opts.ConcurrentMark = cell.Concurrent

	vcfg := vmachine.Config{
		HeapWords:  heapWordsFor(cell.Collector),
		StackWords: 1 << 14,
		MaxThreads: 1,
	}
	var sb strings.Builder
	vcfg.Out = &sb

	var m *vmachine.Machine
	var err error
	switch cell.Collector {
	case CollectorGC:
		mm, col, e := cc.NewMachine(vcfg)
		if e == nil {
			col.Debug = true
		}
		m, err = mm, e
	case CollectorGen:
		mm, col, e := cc.NewGenerationalMachine(vcfg)
		if e == nil {
			col.Debug = true
		}
		m, err = mm, e
	case CollectorConservative:
		mm, _, e := cc.NewConservativeMachine(vcfg)
		m, err = mm, e
	default:
		err = fmt.Errorf("difftest: unknown collector %q", cell.Collector)
	}
	if err != nil {
		r.err = err.Error()
		return r
	}
	if err := m.Run(maxSteps); err != nil {
		r.err = err.Error()
		r.out = sb.String()
		return r
	}
	r.out = sb.String()
	r.steps = m.Steps
	r.gcs = m.GCCount
	r.heapHash = hashWords(m.Mem[m.HeapLo:m.HeapHi])
	return r
}

// hashWords is FNV-1a over the word image.
func hashWords(ws []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(w >> s))
			h *= 1099511628211
		}
	}
	return h
}

func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}

func sortedKeys(m map[string][]cellResult) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
