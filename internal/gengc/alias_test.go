package gengc_test

import (
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/gengc"
	"repro/internal/vmachine"
)

// aliasSrc keeps a list in a callee-save register of Outer across a
// call to Mid, which holds nothing across its own call, into Inner,
// which saves that register in its prologue and forces a collection.
const aliasSrc = `
MODULE Alias;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR out: INTEGER;

PROCEDURE Inner(n: INTEGER): INTEGER =
  VAR p: L;
  BEGIN
    p := NEW(L);
    p.v := n;
    GcCollect();
    RETURN p.v;
  END Inner;

PROCEDURE Mid(n: INTEGER): INTEGER =
  BEGIN
    RETURN Inner(n) + 1;
  END Mid;

PROCEDURE Outer(): INTEGER =
  VAR r: L; s: INTEGER;
  BEGIN
    r := NEW(L);
    r.v := 300;
    r.next := NEW(L);
    r.next.v := 5;
    s := Mid(100);
    RETURN s + r.v + r.next.v;
  END Outer;

BEGIN
  out := Outer();
  PutInt(out); PutLn();
END Alias.
`

// procTables finds the procedure whose name contains name.
func procTables(t *testing.T, o *gctab.Object, name string) *gctab.ProcTables {
	t.Helper()
	for i := range o.Procs {
		if strings.Contains(o.Procs[i].Name, name) {
			return &o.Procs[i]
		}
	}
	t.Fatalf("no tables for %s", name)
	return nil
}

func saves(p *gctab.ProcTables, r int) bool {
	for _, sv := range p.Saves {
		if int(sv.Reg) == r {
			return true
		}
	}
	return false
}

// TestAliasedRootSlotMajor makes one callee-save slot a root of two
// frames: Mid's tables also list the register in which Outer keeps its
// list. Mid never writes that register, so the value it names is
// Outer's own pointer, and the walk homes both frames' register at
// Inner's save slot: Roots holds that address twice. Four majors then
// run at Inner's gc-point; the second and fourth follow an odd number
// of flips, so their copy target lies inside the span and root fixup
// meets the already-patched slot again — it must read as not-from and
// stay put. Outer's list has to survive every major intact.
func TestAliasedRootSlotMajor(t *testing.T) {
	opts := driver.NewOptions()
	opts.Generational = true
	c, err := driver.Compile("alias.m3", aliasSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	outer, mid, inner := procTables(t, c.Tables, "Outer"), procTables(t, c.Tables, "Mid"), procTables(t, c.Tables, "Inner")
	reg := -1
	for _, pt := range outer.Points {
		for r := 0; r < 16; r++ {
			if pt.RegPtrs&(1<<r) != 0 && saves(inner, r) && !saves(mid, r) {
				reg = r
			}
		}
	}
	if reg < 0 {
		t.Fatal("no register of Outer's is saved by Inner and left alone by Mid: the program no longer lays out the alias")
	}
	for i := range mid.Points {
		mid.Points[i].RegPtrs |= 1 << reg
	}
	c.Encoded = gctab.Encode(c.Tables, opts.Scheme)

	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 1 << 12
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewGenerationalMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	p := &aliasProbe{t: t, col: col}
	m.Collector = p
	if err := m.Run(0); err != nil {
		t.Fatalf("%v (out=%q)", err, sb.String())
	}
	if sb.String() != "406\n" {
		t.Errorf("output %q, want \"406\\n\"", sb.String())
	}
	if p.aliased == 0 {
		t.Fatal("no root slot appeared twice in the walk")
	}
	if p.inSpan < 2 {
		t.Fatalf("%d majors ran with the copy target inside the span, want 2", p.inSpan)
	}
}

// aliasProbe runs the four majors at the first collection.
type aliasProbe struct {
	t               *testing.T
	col             *gengc.Collector
	done            bool
	aliased, inSpan int
}

func (p *aliasProbe) Collect(m *vmachine.Machine) error {
	if p.done {
		return p.col.Collect(m)
	}
	p.done = true
	var w gc.Walk
	if err := w.Machine(m, p.col.Dec); err != nil {
		return err
	}
	seen := map[*int64]bool{}
	var slot *int64
	for _, r := range w.Roots(m, nil) {
		if seen[r] {
			p.aliased++
			slot = r
		}
		seen[r] = true
	}
	if slot == nil {
		return nil
	}
	_, major := p.col.Spaces()
	for i := 0; i < 4; i++ {
		p.col.Heap.ForceMajor()
		if err := p.col.Collect(m); err != nil {
			return err
		}
		if major.ToBase >= major.SpanLo && major.ToBase < major.SpanHi {
			p.inSpan++
		}
		// The slot holds Outer's list: a record with v = 300 whose next
		// record holds 5.
		if a := *slot; a <= 0 || a+2 >= int64(len(m.Mem)) || m.Mem[a+1] != 300 {
			p.t.Fatalf("major %d: aliased slot holds %d, not Outer's list", i+1, a)
		}
		if next := m.Mem[*slot+2]; next <= 0 || next+1 >= int64(len(m.Mem)) || m.Mem[next+1] != 5 {
			p.t.Fatalf("major %d: Outer's list lost its second record (next = %d)", i+1, next)
		}
	}
	return nil
}
