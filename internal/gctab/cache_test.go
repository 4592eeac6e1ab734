package gctab

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

var cacheTestSchemes = []Scheme{FullPlain, FullPacking, DeltaPlain, DeltaPrev, DeltaPacking, DeltaPP}

// probePCs is every gc-point pc of o plus, per procedure, a handful of
// pcs that are not gc-points.
func probePCs(o *Object) []int {
	var pcs []int
	for pi := range o.Procs {
		p := &o.Procs[pi]
		pcs = append(pcs, p.Entry, p.Entry+1, p.End-1, p.End)
		for _, pt := range p.Points {
			pcs = append(pcs, pt.PC, pt.PC+1)
		}
	}
	return pcs
}

// TestCachedDecoderMatchesPlain sweeps every scheme and every probe pc:
// the cached decoder must return deeply equal views, the same nil for
// non-gc-points, and the same errors as the plain decoder. A second
// sweep of the same CachedDecoder checks hits are stable.
func TestCachedDecoderMatchesPlain(t *testing.T) {
	o := truncFixture()
	for _, s := range cacheTestSchemes {
		enc := Encode(o, s)
		plain := NewDecoder(enc)
		cached := NewCachedDecoder(enc)
		for pass := 0; pass < 2; pass++ {
			for _, pc := range probePCs(o) {
				pv, perr := plain.Decode(pc)
				cv, cerr := cached.Decode(pc)
				if (perr == nil) != (cerr == nil) {
					t.Fatalf("scheme %v pass %d pc %d: plain err %v, cached err %v", s, pass, pc, perr, cerr)
				}
				if !reflect.DeepEqual(pv, cv) {
					t.Fatalf("scheme %v pass %d pc %d: plain %v, cached %v", s, pass, pc, pv, cv)
				}
			}
		}
		if err := VerifyCacheTransparency(enc); err != nil {
			t.Fatalf("scheme %v: %v", s, err)
		}
	}
}

// TestCachedDecoderDamagedIndex damages the procedure index, which
// object files carry unchecked, three ways: procedure 0's range runs
// into procedure 1's, the last procedure's end lies far past any code,
// and the first procedure's entry lies below pc 0.
// The cached decoder must still answer as the plain one at every probe
// pc, whichever procedure it replays first: the overlap belongs to
// procedure 0, and the huge end must not size the pc table.
func TestCachedDecoderDamagedIndex(t *testing.T) {
	o := truncFixture()
	damages := []struct {
		name   string
		damage func(e *Encoded)
	}{
		{"overlap", func(e *Encoded) { e.Index[0].End = o.Procs[1].Points[1].PC + 3 }},
		{"huge end", func(e *Encoded) { e.Index[2].End = 1 << 40 }},
		{"negative entry", func(e *Encoded) { e.Index[0].Entry = -1000 }},
	}
	for _, d := range damages {
		enc := Encode(o, DeltaPP)
		d.damage(enc)
		plain := NewDecoder(enc)
		cached := NewCachedDecoder(enc)
		// Replay procedure 1 first, through a pc past the overlap.
		pcs := append([]int{o.Procs[1].Points[3].PC}, probePCs(o)...)
		for pass := 0; pass < 2; pass++ {
			for _, pc := range pcs {
				pv, perr := plain.Decode(pc)
				cv, cerr := cached.Decode(pc)
				if errString(perr) != errString(cerr) || !reflect.DeepEqual(pv, cv) {
					t.Fatalf("%s pass %d pc %d: plain %v (error %v), cached %v (error %v)", d.name, pass, pc, pv, perr, cv, cerr)
				}
			}
		}
	}
}

// TestCachedDecoderTruncated cuts the stream at every length under
// every scheme and checks cached error/view behavior matches the plain
// decoder exactly: points decodable before the damage still decode, the
// rest fail with the same wrapped cause naming the same pc.
func TestCachedDecoderTruncated(t *testing.T) {
	o := truncFixture()
	for _, s := range cacheTestSchemes {
		full := Encode(o, s)
		for cut := 0; cut < len(full.Bytes); cut++ {
			trunc := *full
			trunc.Bytes = full.Bytes[:cut]
			plain := NewDecoder(&trunc)
			cached := NewCachedDecoder(&trunc)
			for _, pc := range probePCs(o) {
				pv, perr := plain.Decode(pc)
				cv, cerr := cached.Decode(pc)
				if errString(perr) != errString(cerr) {
					t.Fatalf("scheme %v cut %d pc %d: plain err %q, cached err %q", s, cut, pc, errString(perr), errString(cerr))
				}
				if !reflect.DeepEqual(pv, cv) {
					t.Fatalf("scheme %v cut %d pc %d: plain %v, cached %v", s, cut, pc, pv, cv)
				}
			}
		}
	}
}

// TestCachedDecoderRandomTruncation fuzzes random objects at random cut
// points: the cached decoder must never panic, never invent a table,
// and always agree with the plain decoder.
func TestCachedDecoderRandomTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		o := randomObject(rng)
		full := Encode(o, DeltaPP)
		if len(full.Bytes) == 0 {
			continue
		}
		cut := rng.Intn(len(full.Bytes))
		trunc := *full
		trunc.Bytes = full.Bytes[:cut]
		plain := NewDecoder(&trunc)
		cached := NewCachedDecoder(&trunc)
		for pi := range o.Procs {
			for _, pt := range o.Procs[pi].Points {
				pv, perr := plain.Decode(pt.PC)
				cv, cerr := cached.Decode(pt.PC)
				if errString(perr) != errString(cerr) || !reflect.DeepEqual(pv, cv) {
					t.Fatalf("trial %d pc %d: plain (%v, %v), cached (%v, %v)", trial, pt.PC, pv, perr, cv, cerr)
				}
			}
		}
	}
}

// TestCorruptProcOffset pins the segment() satellite: index offsets
// that are negative, reversed, or past the stream must decode to a
// wrapped ErrTruncated naming the procedure — under both decoders —
// never to a silent "no tables".
func TestCorruptProcOffset(t *testing.T) {
	o := truncFixture()
	corrupt := func(mutate func(e *Encoded)) (*Encoded, int) {
		e := *Encode(o, DeltaPP)
		e.Index = append([]ProcIndex(nil), e.Index...)
		mutate(&e)
		return &e, o.Procs[1].Points[0].PC
	}
	cases := []struct {
		name   string
		mutate func(e *Encoded)
	}{
		{"negative offset", func(e *Encoded) { e.Index[1].Off = -3 }},
		{"reversed offsets", func(e *Encoded) { e.Index[1].Off = e.Index[2].Off + 1 }},
		{"offset past stream", func(e *Encoded) { e.Index[1].Off = len(e.Bytes) + 4; e.Index[2].Off = len(e.Bytes) + 9 }},
	}
	for _, tc := range cases {
		enc, pc := corrupt(tc.mutate)
		for _, dec := range []TableDecoder{NewDecoder(enc), NewCachedDecoder(enc)} {
			v, err := dec.Decode(pc)
			if err == nil {
				t.Fatalf("%s (%T): decode succeeded with view %v, want ErrTruncated", tc.name, dec, v)
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s (%T): error %v does not wrap ErrTruncated", tc.name, dec, err)
			}
			if !strings.Contains(err.Error(), enc.Names[1]) {
				t.Fatalf("%s (%T): error %q does not name procedure %q", tc.name, dec, err, enc.Names[1])
			}
		}
		// WalkProc and ProcPoints must surface the same damage.
		plain := NewDecoder(enc)
		if _, err := plain.ProcPoints(1); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: ProcPoints error %v does not wrap ErrTruncated", tc.name, err)
		}
		if _, err := plain.WalkProc(1, func(*RawPoint) error { return nil }); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: WalkProc error %v does not wrap ErrTruncated", tc.name, err)
		}
	}
}

// TestCachedDecoderConcurrent hammers one shared CachedDecoder from
// many goroutines (the access pattern of server workers whose machines
// share one decoder) while verifying every result against a plain
// decoder. Run under -race it checks the replay lock and the pc table
// the replays publish into.
func TestCachedDecoderConcurrent(t *testing.T) {
	o := truncFixture()
	for _, s := range []Scheme{DeltaPP, FullPlain} {
		enc := Encode(o, s)
		cached := NewCachedDecoder(enc)
		cached.SetTracer(telemetry.New(telemetry.Config{}))
		pcs := probePCs(o)

		// Plain-decoder ground truth, computed before the goroutines run.
		want := make(map[int]*PointView)
		plain := NewDecoder(enc)
		for _, pc := range pcs {
			v, err := plain.Decode(pc)
			if err != nil {
				t.Fatal(err)
			}
			want[pc] = v
		}

		var wg sync.WaitGroup
		errc := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 50; round++ {
					// Stagger starting points so builds race from the start.
					for k := range pcs {
						pc := pcs[(k+g*3+round)%len(pcs)]
						v, err := cached.Decode(pc)
						if err != nil {
							errc <- fmt.Errorf("goroutine %d pc %d: %v", g, pc, err)
							return
						}
						if !reflect.DeepEqual(v, want[pc]) {
							errc <- fmt.Errorf("goroutine %d pc %d: view %v, want %v", g, pc, v, want[pc])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
	}
}

// TestCachedDecoderTelemetry checks the cache's counter accounting: the
// first sweep pays each procedure's segment bytes exactly once and the
// second sweep reads zero further stream bytes, with bytes-saved
// growing by what an uncached decoder would have paid.
func TestCachedDecoderTelemetry(t *testing.T) {
	o := truncFixture()
	s := DeltaPP
	enc := Encode(o, s)

	// Uncached baseline for one full sweep of the gc-points.
	var pcs []int
	for pi := range o.Procs {
		for _, pt := range o.Procs[pi].Points {
			pcs = append(pcs, pt.PC)
		}
	}
	tplain := telemetry.New(telemetry.Config{})
	plain := NewDecoder(enc)
	plain.SetTracer(tplain)
	for _, pc := range pcs {
		if _, err := plain.Decode(pc); err != nil {
			t.Fatal(err)
		}
	}
	uncachedSweep := tplain.Snapshot().Counters[s.DecodeBytesCounter()]
	if uncachedSweep <= 0 {
		t.Fatalf("uncached sweep read %d bytes, want > 0", uncachedSweep)
	}

	tc := telemetry.New(telemetry.Config{})
	cached := NewCachedDecoder(enc)
	cached.SetTracer(tc)
	for _, pc := range pcs {
		if _, err := cached.Decode(pc); err != nil {
			t.Fatal(err)
		}
	}
	snap1 := tc.Snapshot()
	firstBytes := snap1.Counters[s.DecodeBytesCounter()]
	if firstBytes <= 0 || firstBytes > int64(len(enc.Bytes)) {
		t.Fatalf("first sweep read %d bytes, want within (0, %d]", firstBytes, len(enc.Bytes))
	}
	if got := snap1.Counters[s.CacheMissesCounter()]; got != int64(len(o.Procs)) {
		t.Fatalf("first sweep: %d cache misses, want one per procedure (%d)", got, len(o.Procs))
	}

	for _, pc := range pcs {
		if _, err := cached.Decode(pc); err != nil {
			t.Fatal(err)
		}
	}
	snap2 := tc.Snapshot()
	if got := snap2.Counters[s.DecodeBytesCounter()]; got != firstBytes {
		t.Fatalf("second sweep read %d more stream bytes, want 0", got-firstBytes)
	}
	if got, want := snap2.Counters[s.CacheHitsCounter()]-snap1.Counters[s.CacheHitsCounter()], int64(len(pcs)); got != want {
		t.Fatalf("second sweep: %d cache hits, want %d", got, want)
	}
	saved := snap2.Counters[s.CacheBytesSavedCounter()] - snap1.Counters[s.CacheBytesSavedCounter()]
	if saved != uncachedSweep {
		t.Fatalf("second sweep saved %d bytes, want the uncached sweep cost %d", saved, uncachedSweep)
	}
	if hits := snap2.Counters[s.DecodeHitsCounter()]; hits != int64(2*len(pcs)) {
		t.Fatalf("decode hits %d, want %d", hits, 2*len(pcs))
	}
}
