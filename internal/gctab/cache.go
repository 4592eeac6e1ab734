package gctab

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// TableDecoder is the lookup interface the collectors walk stacks
// through: the uncached Decoder (the paper's §6.3 cost model, which
// re-reads the stream on every lookup) and the memoizing CachedDecoder
// both satisfy it.
//
// Decode has the Decoder.Decode contract: (nil, nil) for a pc that is
// not a gc-point, an ErrTruncated/ErrBadDescriptor-wrapping error for a
// damaged stream. Program is Decode followed by resolving the view into
// the frame program the collectors execute, with the same contract.
// Implementations must be safe for concurrent use: the collectors of
// many machines may walk through one shared decoder.
type TableDecoder interface {
	Decode(pc int) (*PointView, error)
	Program(pc int) (*FrameProgram, error)
	SetTracer(t *telemetry.Tracer)
}

// CachedDecoder memoizes fully resolved PointViews, and the frame
// programs compiled from them, per gc-point over the immutable encoded
// stream. The first lookup touching a procedure replays that
// procedure's segment exactly once — resolving every point in stream
// order, which is how Previous-mode tables must be read anyway — and
// publishes each resolved point in a table indexed by pc, so a later
// lookup of a gc-point is one bounded index: no procedure search, no
// lock, no stream bytes. This amortizes the paper's per-collection
// decode cost without changing any result: cached and uncached lookups
// return equal views and equal errors (see VerifyCacheTransparency).
//
// A CachedDecoder is safe for concurrent use; replays run one at a
// time under fill and publish immutable tables (callers must not
// mutate the views — the same discipline the plain Decoder's callers
// already follow within one lookup).
type CachedDecoder struct {
	Dec   *Decoder
	procs []atomic.Pointer[procTable] // nil until the procedure is replayed
	fill  sync.Mutex                  // serialises replays and byPC's allocation
	// byPC[pc] is the gc-point at pc once its procedure is replayed. It
	// is allocated at the first replay, so a machine that never collects
	// decodes and allocates nothing. A nil entry (not a gc-point, not yet
	// replayed, damaged, or past the table) takes the procedure search.
	byPC atomic.Pointer[pcTable]

	// Telemetry (nil when not attached). The decode.* handles mirror
	// the plain Decoder's so cache-on/off runs are compared by reading
	// the same counters; the cache.* handles measure the cache itself.
	tel        *telemetry.Tracer
	hits       *telemetry.Counter
	misses     *telemetry.Counter
	bytesRead  *telemetry.Counter
	decodeNs   *telemetry.Histogram
	cacheHits  *telemetry.Counter
	cacheMiss  *telemetry.Counter
	bytesSaved *telemetry.Counter
}

// pcTable maps a pc to its memoized gc-point.
type pcTable []atomic.Pointer[cachedPoint]

// maxPCTable caps byPC's length in pcs (8 bytes each). The index is read
// from object files unchecked, so a damaged End must not size a huge
// allocation; gc-points past the cap are served by the procedure search.
const maxPCTable = 1 << 22

// procTable is what one replay of a procedure's segment resolved.
type procTable struct {
	segErr    error // corrupt index offset: returned verbatim for any pc
	pcmapFail bool  // the pc map itself is damaged: any pc in range errors
	cause     error // ErrTruncated/ErrBadDescriptor hit mid-stream, if any

	// index maps pc − Entry to a position in points, or to notPoint or
	// unresolved. It ends at the procedure's last gc-point; pcs past it
	// are not gc-points.
	index      []int32
	points     []cachedPoint
	segBytes   int64 // stream bytes consumed by the one-time replay
	pcmapBytes int64 // bytes of the pc map alone (an uncached miss's cost)
}

const (
	notPoint   int32 = -1 // the pc map does not list this pc
	unresolved int32 = -2 // it does, but the replay hit damage at or before it
)

// cachedPoint is one resolved gc-point: its view, the frame program
// compiled from it (or why it has none), and the stream bytes an
// uncached decode of the point would read (cumulative from the segment
// start), so the cache can report how much each hit saved.
type cachedPoint struct {
	view    *PointView
	prog    *FrameProgram
	progErr error
	cost    int64
}

// NewCachedDecoder returns a caching decoder over e.
func NewCachedDecoder(e *Encoded) *CachedDecoder {
	return &CachedDecoder{Dec: NewDecoder(e), procs: make([]atomic.Pointer[procTable], len(e.Index))}
}

// SetTracer attaches telemetry. Every lookup feeds the plain decoder's
// hit/miss counters and the cache's own hit/miss/bytes-saved counters;
// the lookups that replay a segment are also timed and emit EvDecode
// events, like a plain decode (see point).
func (c *CachedDecoder) SetTracer(t *telemetry.Tracer) {
	c.tel = t
	if t == nil {
		c.hits, c.misses, c.bytesRead, c.decodeNs = nil, nil, nil, nil
		c.cacheHits, c.cacheMiss, c.bytesSaved = nil, nil, nil
		return
	}
	s := c.Dec.Enc.Scheme
	c.hits = t.Counter(s.DecodeHitsCounter())
	c.misses = t.Counter(s.DecodeMissesCounter())
	c.bytesRead = t.Counter(s.DecodeBytesCounter())
	c.decodeNs = t.Histogram(s.DecodeNsHistogram())
	c.cacheHits = t.Counter(s.CacheHitsCounter())
	c.cacheMiss = t.Counter(s.CacheMissesCounter())
	c.bytesSaved = t.Counter(s.CacheBytesSavedCounter())
}

// Lookup has the Decoder.Lookup contract (membership probes only; see
// that method's caveats).
func (c *CachedDecoder) Lookup(pc int) (*PointView, bool) {
	view, err := c.Decode(pc)
	if err != nil || view == nil {
		return nil, false
	}
	return view, true
}

// Decode finds the memoized tables for gc-point pc, building the
// owning procedure's cache on first touch. Results — views, (nil, nil)
// for non-gc-points, and errors on damaged streams — match the plain
// Decoder's byte for byte.
func (c *CachedDecoder) Decode(pc int) (*PointView, error) {
	pt, err := c.point(pc)
	if pt == nil {
		return nil, err
	}
	return pt.view, nil
}

// Program finds the memoized frame program for gc-point pc: the same
// lookup as Decode, and the same telemetry.
func (c *CachedDecoder) Program(pc int) (*FrameProgram, error) {
	pt, err := c.point(pc)
	if pt == nil {
		return nil, err
	}
	return pt.prog, pt.progErr
}

// point resolves pc to its memoized gc-point: nil with a nil error for a
// pc that is not one, nil with the plain decoder's error on damage. A
// replayed gc-point is one index into byPC; everything else searches
// for the owning procedure.
//
// With telemetry attached, the one lookup that replays a procedure's
// segment is timed and emits an EvDecode like a plain decode would; a
// lookup served from memo only adds to the hit and bytes-saved counters
// — it takes a few nanoseconds, less than the clock reads that would
// time it, and one event per frame per collection would push everything
// else out of the ring.
func (c *CachedDecoder) point(pc int) (*cachedPoint, error) {
	if t := c.byPC.Load(); t != nil && uint(pc) < uint(len(*t)) {
		if pt := (*t)[pc].Load(); pt != nil {
			c.count(pt, pt.cost)
			return pt, nil
		}
	}
	i := c.Dec.Enc.procOf(pc)
	if i < 0 {
		c.count(nil, 0)
		return nil, nil
	}
	p := c.procs[i].Load()
	if p == nil {
		var start int64
		if c.tel != nil {
			start = c.tel.Now()
		}
		var built bool
		if p, built = c.fillProc(i); built && p.segBytes > 0 {
			pt, _, err := c.find(p, i, pc)
			if c.tel != nil {
				ns := c.tel.Now() - start
				hit := c.countLookup(pt)
				c.cacheMiss.Add(1)
				c.bytesRead.Add(p.segBytes)
				c.decodeNs.Observe(ns)
				c.tel.Emit(telemetry.EvDecode, -1, int64(pc), hit, ns, p.segBytes)
			}
			return pt, err
		}
	}
	pt, saved, err := c.find(p, i, pc)
	c.count(pt, saved)
	return pt, err
}

// countLookup books one lookup as resolving a gc-point or not.
func (c *CachedDecoder) countLookup(pt *cachedPoint) (hit int64) {
	if pt != nil {
		c.hits.Add(1)
		return 1
	}
	c.misses.Add(1)
	return 0
}

// count books a lookup served without touching the stream, and the
// stream bytes an uncached decode of it would have read.
func (c *CachedDecoder) count(pt *cachedPoint, saved int64) {
	if c.tel == nil {
		return
	}
	c.countLookup(pt)
	c.cacheHits.Add(1)
	c.bytesSaved.Add(saved)
}

// find reads pc's entry out of procedure i's built table, reporting the
// stream bytes an uncached decode of the same pc would have read.
func (c *CachedDecoder) find(p *procTable, i, pc int) (pt *cachedPoint, cost int64, err error) {
	if p.segErr != nil {
		return nil, 0, p.segErr
	}
	if p.pcmapFail {
		return nil, 0, c.pointErr(i, pc, ErrTruncated)
	}
	at := notPoint
	if rel := pc - c.Dec.Enc.Index[i].Entry; rel < len(p.index) {
		at = p.index[rel]
	}
	switch at {
	case notPoint:
		// An uncached decoder would still have parsed the pc map to
		// learn that.
		return nil, p.pcmapBytes, nil
	case unresolved:
		return nil, 0, c.pointErr(i, pc, p.cause)
	}
	pt = &p.points[at]
	return pt, pt.cost, nil
}

func (c *CachedDecoder) pointErr(i, pc int, cause error) error {
	return fmt.Errorf("gctab: %s: gc-point pc %d: %w", c.Dec.Enc.Names[i], pc, cause)
}

// fillProc returns procedure i's table, replaying its segment if no
// other goroutine has; built reports whether this call did the replay.
func (c *CachedDecoder) fillProc(i int) (p *procTable, built bool) {
	c.fill.Lock()
	defer c.fill.Unlock()
	if p = c.procs[i].Load(); p != nil {
		return p, false
	}
	p = c.buildProc(i)
	c.procs[i].Store(p)
	c.publish(i, p)
	return p, true
}

// publish enters procedure i's resolved gc-points into byPC, allocating
// the table at the first replay. A pc the procedure search would send to
// another procedure (overlapping ranges in a damaged index) stays out,
// so an index hit returns what the search would. Called under fill.
func (c *CachedDecoder) publish(i int, p *procTable) {
	if len(p.points) == 0 {
		return
	}
	t := c.byPC.Load()
	if t == nil {
		n := 0
		for _, pi := range c.Dec.Enc.Index {
			n = max(n, pi.End)
		}
		t = new(pcTable)
		*t = make(pcTable, min(n, maxPCTable))
		c.byPC.Store(t)
	}
	entry := c.Dec.Enc.Index[i].Entry
	for rel, at := range p.index {
		if pc := entry + rel; at >= 0 && uint(pc) < uint(len(*t)) && c.Dec.Enc.procOf(pc) == i {
			(*t)[pc].Store(&p.points[at])
		}
	}
}

// VerifyCacheTransparency cross-checks a fresh CachedDecoder against
// the plain Decoder over e: every pc in every procedure's pc map, plus
// the procedure's boundary pcs (which are usually not gc-points), must
// yield deeply equal views and identical errors under both decoders,
// and the cached frame program must say what the plain decoder's view
// says (FrameProgram.Verify). Verification tools run it to certify the
// cache is behaviorally invisible before trusting cached collections.
func VerifyCacheTransparency(e *Encoded) error {
	plain := NewDecoder(e)
	cached := NewCachedDecoder(e)
	for i := range e.Index {
		probes := []int{e.Index[i].Entry, e.Index[i].End - 1, e.Index[i].End}
		if pcs, err := plain.ProcPoints(i); err == nil {
			probes = append(probes, pcs...)
		}
		for _, pc := range probes {
			pv, perr := plain.Decode(pc)
			cv, cerr := cached.Decode(pc)
			if errString(perr) != errString(cerr) {
				return fmt.Errorf("gctab: cache transparency: %s pc %d: plain error %q, cached error %q",
					e.Names[i], pc, errString(perr), errString(cerr))
			}
			if !sameViews(pv, cv) {
				return fmt.Errorf("gctab: cache transparency: %s pc %d: plain view %v, cached view %v",
					e.Names[i], pc, pv, cv)
			}
			pp, perr := plain.Program(pc)
			cp, cerr := cached.Program(pc)
			if errString(perr) != errString(cerr) || (pp == nil) != (cp == nil) {
				return fmt.Errorf("gctab: cache transparency: %s pc %d: plain program %v (error %q), cached program %v (error %q)",
					e.Names[i], pc, pp != nil, errString(perr), cp != nil, errString(cerr))
			}
			if cp != nil {
				if err := cp.Verify(pv); err != nil {
					return fmt.Errorf("gctab: cache transparency: %s pc %d: %w", e.Names[i], pc, err)
				}
			}
		}
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func sameViews(a, b *PointView) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || reflect.DeepEqual(a, b)
}

// buildProc replays procedure i's segment once, memoizing every
// resolved point. On stream damage it keeps the points decoded before
// the damage (exactly the ones an uncached decoder can still serve)
// and records the cause for the rest.
func (c *CachedDecoder) buildProc(i int) *procTable {
	d := c.Dec
	p := &procTable{}
	seg, err := d.segment(i)
	if err != nil {
		p.segErr = err
		return p
	}
	pi := d.Enc.Index[i]
	w := newProcWalker(d.Enc.Scheme, seg, pi.Entry)
	p.segBytes = int64(w.r.off)
	p.pcmapBytes = int64(w.r.off)
	if w.r.fail {
		p.pcmapFail = true
		return p
	}
	// Only pcs inside [Entry, End) are ever looked up here. Until the
	// replay reaches them they are unresolved.
	inRange := func(pc int) bool { return pc >= pi.Entry && pc < pi.End }
	last := pi.Entry - 1
	for _, pc := range w.pcs {
		if inRange(pc) && pc > last {
			last = pc
		}
	}
	p.index = make([]int32, last+1-pi.Entry)
	for k := range p.index {
		p.index[k] = notPoint
	}
	for _, pc := range w.pcs {
		if inRange(pc) {
			p.index[pc-pi.Entry] = unresolved
		}
	}
	w.header()
	if w.r.fail {
		p.cause = ErrTruncated
		p.segBytes = int64(w.r.off)
		return p
	}
	for k, pc := range w.pcs {
		if !w.next() {
			p.cause = ErrTruncated
			if w.badDesc {
				p.cause = ErrBadDescriptor
			}
			// The plain decoder serves a pc's LAST occurrence, so any
			// pc whose final occurrence sits at or past the damage must
			// report the damage too — drop the stale earlier views the
			// replay memoized for them.
			for _, pc := range w.pcs[k:] {
				if inRange(pc) {
					p.index[pc-pi.Entry] = unresolved
				}
			}
			break
		}
		if !inRange(pc) {
			continue
		}
		view := &PointView{ProcName: d.Enc.Names[i], Entry: pi.Entry, RegPtrs: w.regs}
		view.Saves = append(view.Saves, w.saves...)
		view.Live = append(view.Live, w.live...)
		view.Derivs = copyDerivs(w.derivs)
		pt := cachedPoint{view: view, cost: int64(w.r.off)}
		if pt.prog, err = compileProgram(view); err != nil {
			pt.progErr = c.pointErr(i, pc, err)
		}
		// Duplicate PCs in a (damaged) pc map: the plain decoder serves
		// the last occurrence, so later points overwrite earlier ones.
		p.index[pc-pi.Entry] = int32(len(p.points))
		p.points = append(p.points, pt)
	}
	p.segBytes = int64(w.r.off)
	return p
}
