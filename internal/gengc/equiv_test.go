package gengc_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/gengc"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// equivSchemes is the full 8-way encoding matrix.
var equivSchemes = []gctab.Scheme{
	{Full: true},
	{Full: true, Previous: true},
	{Full: true, Packing: true},
	{Full: true, Packing: true, Previous: true},
	{},
	{Previous: true},
	{Packing: true},
	{Packing: true, Previous: true},
}

// equivSrc interleaves nursery churn, survivors that promote, old→young
// stores (remembered-set roots), and enough retained data to escalate
// into major collections — so every generational code path runs under
// every trace-worker width.
const equivSrc = `
MODULE T;
TYPE Cell = REF RECORD v: INTEGER; ref: Cell; END;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR anchor: Cell; keep: L; junk: L; i, j, s: INTEGER;
PROCEDURE Cons(v: INTEGER; t: L): L =
  VAR c: L;
  BEGIN
    c := NEW(L);
    c.v := v;
    c.next := t;
    RETURN c;
  END Cons;
BEGIN
  anchor := NEW(Cell);
  anchor.v := 5;
  s := 0;
  FOR i := 1 TO 6 DO
    keep := NIL;
    FOR j := 1 TO 150 DO
      keep := Cons(j, keep);
      IF j MOD 25 = 0 THEN
        anchor.ref := NEW(Cell);   (* old->young after anchor promotes *)
        anchor.ref.v := i * j;
      END;
      junk := Cons(j, NIL);        (* nursery garbage *)
    END;
    s := s + keep.v + anchor.ref.v;
  END;
  PutInt(s); PutLn();
END T.
`

// fnvWords is FNV-1a over a word image.
func fnvWords(ws []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(w >> s))
			h *= 1099511628211
		}
	}
	return h
}

// genRecorder wraps the generational collector, logging each cycle's
// frame signature and the post-cycle heap digest.
type genRecorder struct {
	real   *gengc.Collector
	walk   gc.Walk
	frames []string
	hashes []uint64
}

func (r *genRecorder) Collect(m *vmachine.Machine) error {
	if err := r.walk.Machine(m, r.real.Dec); err != nil {
		return err
	}
	r.frames = append(r.frames, r.walk.String())
	if err := r.real.Collect(m); err != nil {
		return err
	}
	r.hashes = append(r.hashes, fnvWords(m.Mem[m.HeapLo:m.HeapHi]))
	return nil
}

type genRun struct {
	label        string
	out          string
	minor, major int64
	frames       []string
	hashes       []uint64
	promoted     int64
	majorCopied  int64
	objects      int64
	telly        map[string]int64
}

func runGenEquivCell(t *testing.T, scheme gctab.Scheme, tw int) genRun {
	t.Helper()
	opts := driver.NewOptions()
	opts.Generational = true
	opts.Scheme = scheme
	opts.TraceWorkers = tw
	c, err := driver.Compile("t.m3", equivSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Config{})
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 3072
	cfg.Tel = tel
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewGenerationalMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	rec := &genRecorder{real: col}
	m.Collector = rec
	if err := m.Run(100_000_000); err != nil {
		t.Fatalf("scheme=%s tw=%d: %v (out=%q)", scheme, tw, err, sb.String())
	}
	snap := tel.Snapshot()
	return genRun{
		label:       fmt.Sprintf("scheme=%s tw=%d", scheme, tw),
		out:         sb.String(),
		minor:       col.Minor,
		major:       col.Major,
		frames:      rec.frames,
		hashes:      rec.hashes,
		promoted:    col.PromotedWords,
		majorCopied: col.MajorCopied,
		objects:     col.ObjectsCopied,
		telly: map[string]int64{
			telemetry.CtrGenMinor:        snap.Counter(telemetry.CtrGenMinor),
			telemetry.CtrGenMajor:        snap.Counter(telemetry.CtrGenMajor),
			telemetry.CtrGCBytesCopied:   snap.Counter(telemetry.CtrGCBytesCopied),
			telemetry.CtrGCObjectsCopied: snap.Counter(telemetry.CtrGCObjectsCopied),
		},
	}
}

// TestGenTraceWorkersEquivalence is the generational half of the
// parallel-collection acceptance matrix: for every encoding scheme, a
// run mixing minor promotions, remembered-set roots, and major
// compactions must be indistinguishable at TraceWorkers 1, 2, and 8 —
// same outputs, same minor/major split, same per-cycle frame lists and
// post-cycle heap digests, same promotion/copy totals and telemetry.
func TestGenTraceWorkersEquivalence(t *testing.T) {
	for _, scheme := range equivSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			base := runGenEquivCell(t, scheme, 1)
			if base.minor == 0 || base.major == 0 {
				t.Fatalf("%s: minor=%d major=%d; both kinds must run to count",
					base.label, base.minor, base.major)
			}
			for _, tw := range []int{2, 8} {
				r := runGenEquivCell(t, scheme, tw)
				if r.out != base.out {
					t.Errorf("%s: output %q, %s had %q", r.label, r.out, base.label, base.out)
				}
				if r.minor != base.minor || r.major != base.major {
					t.Errorf("%s: minor=%d major=%d, %s had minor=%d major=%d",
						r.label, r.minor, r.major, base.label, base.minor, base.major)
				}
				if !reflect.DeepEqual(r.frames, base.frames) {
					t.Errorf("%s: per-cycle frame lists differ from %s", r.label, base.label)
				}
				if !reflect.DeepEqual(r.hashes, base.hashes) {
					for i := range base.hashes {
						if i >= len(r.hashes) || r.hashes[i] != base.hashes[i] {
							t.Errorf("%s: heap digest after cycle %d is %#x, %s had %#x",
								r.label, i, r.hashes[i], base.label, base.hashes[i])
							break
						}
					}
				}
				if r.promoted != base.promoted || r.majorCopied != base.majorCopied || r.objects != base.objects {
					t.Errorf("%s: promoted=%d majorCopied=%d objects=%d, %s had %d/%d/%d",
						r.label, r.promoted, r.majorCopied, r.objects,
						base.label, base.promoted, base.majorCopied, base.objects)
				}
				if !reflect.DeepEqual(r.telly, base.telly) {
					t.Errorf("%s: telemetry %v, %s had %v", r.label, r.telly, base.label, base.telly)
				}
			}
		})
	}
}
