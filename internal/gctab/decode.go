package gctab

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/telemetry"
)

// PointView is the decoded table set for one gc-point, resolved against
// the procedure's ground table.
type PointView struct {
	ProcName string
	Entry    int
	Saves    []RegSave
	Live     []Location
	RegPtrs  uint16
	Derivs   []DerivEntry
}

// ErrTruncated reports a table byte stream that ends (or whose
// procedure segment ends) in the middle of a table. Errors returned by
// Decode wrap it together with the offending gc-point PC.
var ErrTruncated = errors.New("truncated gc table stream")

// ErrBadDescriptor reports a Previous-mode descriptor byte whose
// identical-to-previous bits appear at a procedure's first gc-point,
// where no previous tables exist to refer to. Decoding such a stream
// must fail rather than silently yield empty tables.
var ErrBadDescriptor = errors.New("descriptor references previous tables at the procedure's first gc-point")

// Decoder reads tables out of an Encoded object. All state is decoded
// from the byte stream on every lookup (the cost the paper measures in
// §6.3); no decoded results are cached. CachedDecoder layers
// memoization on top when reproducing that cost is not the point.
//
// A Decoder is safe for concurrent use: every lookup builds its own
// walker over the immutable stream and the telemetry handles are
// atomic.
type Decoder struct {
	Enc *Encoded

	// Telemetry (nil when not attached): per-lookup decode events and
	// per-scheme hit/miss/byte counters resolved once in SetTracer.
	tel       *telemetry.Tracer
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	bytesRead *telemetry.Counter
	decodeNs  *telemetry.Histogram
}

// NewDecoder returns a decoder over e.
func NewDecoder(e *Encoded) *Decoder { return &Decoder{Enc: e} }

// SetTracer attaches telemetry: every lookup emits an EvDecode event
// and feeds hit/miss/bytes counters keyed by the encoding scheme (the
// Table-2 column this decoder pays for).
func (d *Decoder) SetTracer(t *telemetry.Tracer) {
	d.tel = t
	if t == nil {
		d.hits, d.misses, d.bytesRead, d.decodeNs = nil, nil, nil, nil
		return
	}
	s := d.Enc.Scheme
	d.hits = t.Counter(s.DecodeHitsCounter())
	d.misses = t.Counter(s.DecodeMissesCounter())
	d.bytesRead = t.Counter(s.DecodeBytesCounter())
	d.decodeNs = t.Histogram(s.DecodeNsHistogram())
}

// Fork returns an independent decoder handle over the same encoded
// stream, sharing the resolved telemetry counters. The plain decoder is
// already concurrency-safe, so Fork exists to satisfy TableDecoder;
// parallel stack walkers call it once per worker.
func (d *Decoder) Fork() TableDecoder { return d }

// Telemetry metric names for a scheme's decode path. Both Decoder and
// CachedDecoder feed these, so cache-on and cache-off runs are compared
// by reading the same counters.

// DecodeHitsCounter names the counter of lookups that resolved a view.
func (s Scheme) DecodeHitsCounter() string { return "gctab.decode.hits." + s.String() }

// DecodeMissesCounter names the counter of lookups at PCs that are not
// gc-points.
func (s Scheme) DecodeMissesCounter() string { return "gctab.decode.misses." + s.String() }

// DecodeBytesCounter names the counter of table bytes actually read
// from the encoded stream. A cached decoder only adds the bytes of each
// procedure's one-time replay, so this counter is the paper's "table
// bytes touched per collection" cost under either decoder.
func (s Scheme) DecodeBytesCounter() string { return "gctab.decode.bytes." + s.String() }

// DecodeNsHistogram names the per-lookup latency histogram.
func (s Scheme) DecodeNsHistogram() string { return "gctab.decode_ns." + s.String() }

// CacheHitsCounter names the counter of lookups served from an
// already-built procedure cache (no stream bytes touched).
func (s Scheme) CacheHitsCounter() string { return "gctab.cache.hits." + s.String() }

// CacheMissesCounter names the counter of lookups that triggered a
// procedure's one-time segment replay.
func (s Scheme) CacheMissesCounter() string { return "gctab.cache.misses." + s.String() }

// CacheBytesSavedCounter names the counter of stream bytes an uncached
// decoder would have read for lookups the cache answered for free.
func (s Scheme) CacheBytesSavedCounter() string { return "gctab.cache.bytes_saved." + s.String() }

// reader walks one procedure's table segment. Every read is bounds
// checked against the segment; running off the end latches fail instead
// of panicking or silently yielding zero words, and the caller turns
// that into an ErrTruncated-wrapping error naming the gc-point.
type reader struct {
	buf     []byte
	off     int
	packing bool
	fail    bool
}

func (r *reader) word() int32 {
	if r.fail {
		return 0
	}
	if r.packing {
		if r.off >= len(r.buf) {
			r.fail = true
			return 0
		}
		b := r.buf[r.off]
		r.off++
		// Sign-extend the first 7-bit group.
		v := int32(b&0x7f) << 25 >> 25
		for b&0x80 != 0 {
			if r.off >= len(r.buf) {
				r.fail = true
				return 0
			}
			b = r.buf[r.off]
			r.off++
			v = v<<7 | int32(b&0x7f)
		}
		return v
	}
	if r.off+4 > len(r.buf) {
		r.fail = true
		return 0
	}
	v := int32(binary.LittleEndian.Uint32(r.buf[r.off:]))
	r.off += 4
	return v
}

func (r *reader) byte1() byte {
	if r.fail || r.off >= len(r.buf) {
		r.fail = true
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) u16() int {
	if r.fail || r.off+2 > len(r.buf) {
		r.fail = true
		return 0
	}
	v := int(r.buf[r.off]) | int(r.buf[r.off+1])<<8
	r.off += 2
	return v
}

// dist reads a PC-map distance under the scheme's encoding.
func (r *reader) dist(short bool) int {
	if !short {
		return r.u16()
	}
	b := r.byte1()
	if r.fail {
		return 0
	}
	if b != 0xff {
		return int(b)
	}
	return r.u16()
}

// count reads a table element count, rejecting values no segment of
// this length could actually hold (each element is at least one byte),
// so a corrupt count fails cleanly instead of driving a huge loop.
func (r *reader) count() int {
	n := int(r.word())
	if n < 0 || n > len(r.buf) {
		r.fail = true
		return 0
	}
	return n
}

// maxGroundRun bounds a single ground-table run length; a corrupted
// run-count word must fail decoding instead of expanding into a
// gigantic live list.
const maxGroundRun = 1 << 20

// groundRun is one decoded ground-table entry: a single slot or a run
// of count consecutive slots (§5.2 compact arrays).
type groundRun struct {
	loc   Location
	count int32
}

// procWalker decodes one procedure's table segment sequentially:
// PC map, callee-save map, ground table, then gc-points in stream
// order (Previous-mode tables refer back to the preceding point, so
// points cannot be decoded out of order). It is shared by Decode and
// WalkProc so both interpret the bytes identically.
type procWalker struct {
	r      *reader
	scheme Scheme
	entry  int

	pcs    []int // decoded gc-point byte PCs, in stream order
	saves  []RegSave
	ground []groundRun

	// Running per-point state (Previous mode carries tables forward).
	k       int
	live    []Location
	regs    uint16
	derivs  []DerivEntry
	desc    byte
	hasDesc bool
	badDesc bool
}

// newProcWalker parses the PC map; header must be called before next.
func newProcWalker(scheme Scheme, seg []byte, entry int) *procWalker {
	w := &procWalker{
		r:      &reader{buf: seg, packing: scheme.Packing},
		scheme: scheme,
		entry:  entry,
	}
	n := w.r.count()
	cur := entry
	for k := 0; k < n && !w.r.fail; k++ {
		cur += w.r.dist(scheme.ShortDistances)
		w.pcs = append(w.pcs, cur)
	}
	return w
}

// header parses the callee-save map and (δ-main) ground table.
func (w *procWalker) header() {
	nSaves := w.r.count()
	for k := 0; k < nSaves && !w.r.fail; k++ {
		v := w.r.word()
		w.saves = append(w.saves, RegSave{Reg: uint8(v & 15), Off: v >> 4})
	}
	if !w.scheme.Full {
		nGround := w.r.count()
		for k := 0; k < nGround && !w.r.fail; k++ {
			if w.scheme.ArrayRuns {
				v := w.r.word()
				e := groundRun{loc: Location{Base: uint8(v & 3), Off: v >> 3}, count: 1}
				if v&4 != 0 {
					e.count = w.r.word()
					if e.count < 1 || e.count > maxGroundRun {
						// A run no real frame could hold: corrupt count.
						w.r.fail = true
						break
					}
				}
				w.ground = append(w.ground, e)
			} else {
				w.ground = append(w.ground, groundRun{loc: groundLoc(w.r.word()), count: 1})
			}
		}
	}
}

// next decodes the tables of gc-point w.k into the running state,
// returning false when the stream is damaged (r.fail or badDesc).
func (w *procWalker) next() bool {
	r := w.r
	emitStack, emitRegs, emitDerivs := true, true, true
	stackEmpty, regsEmpty, derivEmpty := false, false, false
	w.hasDesc = false
	if w.scheme.Previous {
		desc := r.byte1()
		w.desc, w.hasDesc = desc, !r.fail
		if w.k == 0 && desc&(descStackSame|descRegsSame|descDerivSame) != 0 {
			// The first gc-point has no previous tables; a Same bit here
			// is stream damage, not an empty table.
			w.badDesc = true
			return false
		}
		stackEmpty = desc&descStackEmpty != 0
		regsEmpty = desc&descRegsEmpty != 0
		derivEmpty = desc&descDerivEmpty != 0
		emitStack = desc&(descStackEmpty|descStackSame) == 0
		emitRegs = desc&(descRegsEmpty|descRegsSame) == 0
		emitDerivs = desc&(descDerivEmpty|descDerivSame) == 0
	}
	if emitStack {
		w.live = w.live[:0]
		if w.scheme.Full {
			n := r.count()
			for j := 0; j < n; j++ {
				w.live = append(w.live, groundLoc(r.word()))
			}
		} else {
			nw := (len(w.ground) + 31) / 32
			for wi := 0; wi < nw; wi++ {
				v := uint32(r.word())
				if r.fail {
					break
				}
				for b := 0; b < 32; b++ {
					if v&(1<<uint(b)) != 0 {
						if wi*32+b >= len(w.ground) {
							// A bit with no ground entry behind it: corrupt
							// bitmap word.
							r.fail = true
							break
						}
						e := w.ground[wi*32+b]
						for c := int32(0); c < e.count; c++ {
							l := e.loc
							l.Off += c
							w.live = append(w.live, l)
						}
					}
				}
			}
		}
	} else if stackEmpty {
		w.live = w.live[:0]
	}
	if emitRegs {
		w.regs = uint16(r.word())
	} else if regsEmpty {
		w.regs = 0
	}
	if emitDerivs {
		n := r.count()
		w.derivs = w.derivs[:0]
		for j := 0; j < n && !r.fail; j++ {
			var de DerivEntry
			de.Target = derivLoc(r.word())
			flags := r.word()
			nvar := int(flags >> 1)
			if nvar < 0 || nvar > len(r.buf) {
				r.fail = true
				break
			}
			if flags&1 != 0 {
				sel := derivLoc(r.word())
				de.Sel = &sel
			}
			for v := 0; v < nvar; v++ {
				nb := r.count()
				var bases []SignedLoc
				for x := 0; x < nb; x++ {
					v := r.word()
					sign := int8(1)
					if v&1 != 0 {
						sign = -1
					}
					bases = append(bases, SignedLoc{Loc: derivLoc(v >> 1), Sign: sign})
				}
				de.Variants = append(de.Variants, bases)
			}
			w.derivs = append(w.derivs, de)
		}
	} else if derivEmpty {
		w.derivs = w.derivs[:0]
	}
	w.k++
	return !r.fail
}

// Lookup finds the tables for the gc-point identified by pc (a return
// address / gc-point byte PC). ok is false when pc is not a known
// gc-point or the stream is damaged; Decode distinguishes the two.
//
// Because it conflates damage with absence, Lookup is only appropriate
// for membership probes ("is this pc a gc-point?") on streams already
// known well-formed, e.g. in tests. Anything on a collector or
// measurement path must call Decode so stream damage surfaces as an
// error instead of a silently skipped frame.
func (d *Decoder) Lookup(pc int) (*PointView, bool) {
	view, err := d.Decode(pc)
	if err != nil || view == nil {
		return nil, false
	}
	return view, true
}

// Decode finds and decodes the tables for the gc-point pc. A pc that is
// not a known gc-point yields (nil, nil); a byte stream that ends in
// the middle of a table yields an error wrapping ErrTruncated (or
// ErrBadDescriptor for an impossible descriptor) naming the offending
// pc, rather than a silently zeroed table.
func (d *Decoder) Decode(pc int) (*PointView, error) {
	if d.tel == nil {
		return d.decode(pc)
	}
	start := d.tel.Now()
	view, bytesRead, err := d.decodeCounting(pc)
	ns := d.tel.Now() - start
	hit := int64(0)
	if view != nil {
		hit = 1
		d.hits.Add(1)
	} else {
		d.misses.Add(1)
	}
	d.bytesRead.Add(bytesRead)
	d.decodeNs.Observe(ns)
	d.tel.Emit(telemetry.EvDecode, -1, int64(pc), hit, ns, bytesRead)
	return view, err
}

func (d *Decoder) decode(pc int) (*PointView, error) {
	view, _, err := d.decodeCounting(pc)
	return view, err
}

// Program decodes the tables for gc-point pc and resolves them into a
// frame program — on every call, like Decode, so a collector walking
// through a plain Decoder pays the paper's per-visit cost.
func (d *Decoder) Program(pc int) (*FrameProgram, error) {
	view, err := d.Decode(pc)
	if view == nil {
		return nil, err
	}
	prog, err := compileProgram(view)
	if err != nil {
		return nil, fmt.Errorf("gctab: %s: gc-point pc %d: %w", view.ProcName, pc, err)
	}
	return prog, nil
}

// procOf returns the index of the procedure whose [Entry, End) holds
// pc, or -1.
func (e *Encoded) procOf(pc int) int {
	idx := e.Index
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx[mid].End > pc {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= len(idx) || pc < idx[lo].Entry {
		return -1
	}
	return lo
}

// NumProcs returns the number of procedures in the encoded object.
func (d *Decoder) NumProcs() int { return len(d.Enc.Index) }

// ProcName returns procedure i's diagnostic name.
func (d *Decoder) ProcName(i int) string { return d.Enc.Names[i] }

// segment returns the byte range holding procedure i's tables: from its
// offset to the next procedure's (offsets are emitted in order). A
// corrupt index offset (negative, reversed, or past the stream) is
// stream damage and reported as an ErrTruncated-wrapping error naming
// the procedure — an empty segment here would read as "no tables" and
// make the collector silently skip the procedure's roots.
func (d *Decoder) segment(i int) ([]byte, error) {
	lo := d.Enc.Index[i].Off
	hi := len(d.Enc.Bytes)
	if i+1 < len(d.Enc.Index) {
		hi = d.Enc.Index[i+1].Off
	}
	if lo < 0 || lo > hi || hi > len(d.Enc.Bytes) {
		return nil, fmt.Errorf("gctab: %s: corrupt procedure offset [%d:%d) of %d table bytes: %w",
			d.Enc.Names[i], lo, hi, len(d.Enc.Bytes), ErrTruncated)
	}
	return d.Enc.Bytes[lo:hi], nil
}

func (d *Decoder) decodeCounting(pc int) (*PointView, int64, error) {
	i := d.Enc.procOf(pc)
	if i < 0 {
		return nil, 0, nil
	}
	pi := d.Enc.Index[i]
	seg, segErr := d.segment(i)
	if segErr != nil {
		return nil, 0, segErr
	}
	w := newProcWalker(d.Enc.Scheme, seg, pi.Entry)
	fail := func(cause error) (*PointView, int64, error) {
		return nil, int64(w.r.off), fmt.Errorf("gctab: %s: gc-point pc %d: %w",
			d.Enc.Names[i], pc, cause)
	}
	target := -1
	for k, p := range w.pcs {
		if p == pc {
			target = k
		}
	}
	if w.r.fail {
		return fail(ErrTruncated)
	}
	if target < 0 {
		return nil, int64(w.r.off), nil
	}

	w.header()
	if w.r.fail {
		return fail(ErrTruncated)
	}

	// Decode points sequentially up to the target (Previous-mode tables
	// refer back to the preceding point).
	for k := 0; k <= target; k++ {
		if !w.next() {
			break
		}
	}
	if w.badDesc {
		return fail(ErrBadDescriptor)
	}
	if w.r.fail {
		return fail(ErrTruncated)
	}

	view := &PointView{ProcName: d.Enc.Names[i], Entry: pi.Entry, RegPtrs: w.regs}
	view.Saves = append(view.Saves, w.saves...)
	view.Live = append(view.Live, w.live...)
	view.Derivs = append(view.Derivs, w.derivs...)
	return view, int64(w.r.off), nil
}

// RawPoint is one gc-point as decoded by WalkProc: its position in the
// stream, its byte PC, the raw descriptor byte (Previous-mode schemes
// only), and the fully resolved table view. Verification tools use the
// descriptor to check encodings are canonical, not just decodable.
type RawPoint struct {
	Index   int // k-th gc-point of the procedure, in stream order
	PC      int
	HasDesc bool
	Desc    byte
	View    PointView
}

// ProcPoints returns the gc-point byte PCs of procedure i in stream
// order, without decoding any tables. The error wraps ErrTruncated when
// the PC map itself is damaged.
func (d *Decoder) ProcPoints(i int) ([]int, error) {
	seg, err := d.segment(i)
	if err != nil {
		return nil, err
	}
	w := newProcWalker(d.Enc.Scheme, seg, d.Enc.Index[i].Entry)
	if w.r.fail {
		return nil, fmt.Errorf("gctab: %s: pc map: %w", d.Enc.Names[i], ErrTruncated)
	}
	return w.pcs, nil
}

// WalkProc decodes every gc-point of procedure i in stream order,
// calling yield with a freshly copied RawPoint for each (the copy is
// yield's to keep). It returns the procedure's callee-save map and the
// first error: a decode failure (wrapping ErrTruncated or
// ErrBadDescriptor and naming the gc-point) or an error from yield.
func (d *Decoder) WalkProc(i int, yield func(*RawPoint) error) ([]RegSave, error) {
	seg, err := d.segment(i)
	if err != nil {
		return nil, err
	}
	w := newProcWalker(d.Enc.Scheme, seg, d.Enc.Index[i].Entry)
	if w.r.fail {
		return nil, fmt.Errorf("gctab: %s: pc map: %w", d.Enc.Names[i], ErrTruncated)
	}
	w.header()
	if w.r.fail {
		return nil, fmt.Errorf("gctab: %s: table header: %w", d.Enc.Names[i], ErrTruncated)
	}
	for k, pc := range w.pcs {
		if !w.next() {
			cause := ErrTruncated
			if w.badDesc {
				cause = ErrBadDescriptor
			}
			return w.saves, fmt.Errorf("gctab: %s: gc-point pc %d: %w", d.Enc.Names[i], pc, cause)
		}
		rp := &RawPoint{Index: k, PC: pc, HasDesc: w.hasDesc, Desc: w.desc}
		rp.View.ProcName = d.Enc.Names[i]
		rp.View.Entry = d.Enc.Index[i].Entry
		rp.View.Saves = append(rp.View.Saves, w.saves...)
		rp.View.Live = append(rp.View.Live, w.live...)
		rp.View.RegPtrs = w.regs
		rp.View.Derivs = copyDerivs(w.derivs)
		if err := yield(rp); err != nil {
			return w.saves, err
		}
	}
	return w.saves, nil
}

// copyDerivs deep-copies a walker's running derivations table, which
// the next gc-point overwrites in place.
func copyDerivs(derivs []DerivEntry) []DerivEntry {
	var out []DerivEntry
	for _, de := range derivs {
		cp := DerivEntry{Target: de.Target}
		if de.Sel != nil {
			sel := *de.Sel
			cp.Sel = &sel
		}
		for _, variant := range de.Variants {
			cp.Variants = append(cp.Variants, append([]SignedLoc(nil), variant...))
		}
		out = append(out, cp)
	}
	return out
}

// String renders a point view for debugging.
func (v *PointView) String() string {
	s := fmt.Sprintf("%s@%d live=%v regs=%016b nderiv=%d", v.ProcName, v.Entry, v.Live, v.RegPtrs, len(v.Derivs))
	return s
}
