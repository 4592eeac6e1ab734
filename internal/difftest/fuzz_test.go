package difftest

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/gctab"
	"repro/internal/vmachine"
)

// fuzzEncoded compiles one generated program per scheme once and hands
// out fresh copies of the encoded streams for mutation.
var fuzzEncoded = struct {
	once sync.Once
	encs []*gctab.Encoded
	err  error
}{}

func fuzzBase(t testing.TB) []*gctab.Encoded {
	fuzzEncoded.once.Do(func() {
		for _, s := range AllSchemes {
			c, err := driver.Compile("fuzz.m3", Generate(1), driver.Options{
				Optimize: true, GCSupport: true, Scheme: s,
			})
			if err != nil {
				fuzzEncoded.err = err
				return
			}
			fuzzEncoded.encs = append(fuzzEncoded.encs, c.Encoded)
		}
	})
	if fuzzEncoded.err != nil {
		t.Fatal(fuzzEncoded.err)
	}
	return fuzzEncoded.encs
}

// FuzzDecode mutates real encoded table streams (truncation plus XOR
// patches) and checks the decoder stack's contract on damaged input:
// no panic, and the memoizing decoder is observationally identical to
// the plain decoder — same views, same errors — on every stream.
func FuzzDecode(f *testing.F) {
	f.Add(uint8(0), uint16(0), []byte{})
	f.Add(uint8(4), uint16(3), []byte{0x40})
	f.Add(uint8(7), uint16(11), []byte{0xFF, 0x01, 0x80})
	f.Fuzz(func(t *testing.T, schemeIdx uint8, cut uint16, patch []byte) {
		base := fuzzBase(t)
		enc := base[int(schemeIdx)%len(base)]

		e := *enc
		e.Bytes = append([]byte(nil), enc.Bytes...)
		if len(e.Bytes) > 0 {
			e.Bytes = e.Bytes[:int(cut)%(len(e.Bytes)+1)]
		}
		for i, b := range patch {
			if len(e.Bytes) == 0 {
				break
			}
			e.Bytes[(int(cut)+i*7)%len(e.Bytes)] ^= b
		}

		// Must not panic; errors are the expected outcome on damage.
		if err := gctab.VerifyCacheTransparency(&e); err != nil {
			t.Fatalf("cache diverged from plain decoder on damaged stream: %v", err)
		}
	})
}

// FuzzProgram drives the generator (and a cheap slice of the matrix)
// from arbitrary seed bytes: every generated program must compile, run
// identically under two far-apart cells, and verify strictly.
func FuzzProgram(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(222))
	f.Add(int64(-7))
	f.Add(int64(2))
	f.Add(int64(57))
	f.Add(int64(1 << 40))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := RunSeed(seed, Config{
			Schemes: []gctab.Scheme{gctab.DeltaPP},
			Cells: []Cell{
				{Collector: CollectorGC, Scheme: gctab.DeltaPP},
				{Collector: CollectorGen, Scheme: gctab.DeltaPP, Cache: true, TraceWorkers: 8},
			},
			MaxSteps: 10_000_000,
		})
		for _, fd := range r.Findings {
			t.Errorf("%s", fd)
		}
		if len(r.Findings) > 0 {
			t.Fatalf("seed %d diverged\n%s", seed, r.Program)
		}
	})
}

// The seed encoding used by cmd/difffuzz's corpus files: 8 little-
// endian bytes. Kept here so the CLI and the fuzz target cannot drift.
func seedFromBytes(b []byte) int64 {
	var buf [8]byte
	copy(buf[:], b)
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

func TestSeedFromBytes(t *testing.T) {
	if seedFromBytes(nil) != 0 {
		t.Fatal("empty bytes should map to seed 0")
	}
	if seedFromBytes([]byte{1}) != 1 {
		t.Fatal("single byte little-endian")
	}
}

// Guard: a damaged stream must not crash plain decoding either (the
// fuzz target exercises this through VerifyCacheTransparency, which
// decodes both ways; this pins the plain path explicitly).
func TestDamagedDecodeNoPanic(t *testing.T) {
	base := fuzzBase(t)
	for _, enc := range base {
		e := *enc
		e.Bytes = append([]byte(nil), enc.Bytes...)
		for off := 0; off < len(e.Bytes); off += 5 {
			e.Bytes[off] ^= 0xA5
		}
		dec := gctab.NewDecoder(&e)
		for _, p := range e.Index {
			for pc := p.Entry; pc < p.End; pc += 3 {
				dec.Decode(pc) // error or not — just no panic
			}
		}
	}
}

var _ = vmachine.Config{} // keep the import tied to the harness types
