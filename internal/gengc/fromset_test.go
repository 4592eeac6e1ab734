package gengc_test

import (
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gengc"
	"repro/internal/types"
	"repro/internal/vmachine"
)

// heapValues appends the address of every object laid out end to end
// in [lo, hi), and the value of each of its pointer slots.
func heapValues(mem []int64, dt *types.DescTable, lo, hi int64, out []int64) []int64 {
	var offs []int64
	for a := lo; a < hi; a += dt.SizeAt(mem, a) {
		out = append(out, a)
		offs = dt.PointerOffsets(mem, a, offs[:0])
		for _, off := range offs {
			out = append(out, mem[a+off])
		}
	}
	return out
}

// genValues appends every root value of m and every object address and
// pointer-slot value in both generations of h.
func genValues(t *testing.T, m *vmachine.Machine, col *gengc.Collector, out []int64) []int64 {
	t.Helper()
	var w gc.Walk
	if err := w.Machine(m, col.Dec); err != nil {
		t.Fatal(err)
	}
	for _, r := range w.Roots(m, nil) {
		out = append(out, *r)
	}
	h := col.Heap
	nLo, nHi, oLo, oHi := h.Occupied()
	out = heapValues(h.Mem, h.Descs, nLo, nHi, out)
	return heapValues(h.Mem, h.Descs, oLo, oHi, out)
}

// genFromSetProbe checks, around every collection, that the engine's
// address rule (CopySpace.InFrom, with the span and copy target that
// collection used) answers exactly as the heap's own predicate as it
// stood when the pause began — InNursery for a minor, the major's
// inFrom for a major — on every pointer value the collection can test:
// each root, each object of either generation and each of its pointer
// slots, and each object address after the collection (a survivor's
// copy is what an aliased root slot holds once patched). Every
// forceEvery-th stop-the-world collection is made a major.
type genFromSetProbe struct {
	*gengc.Collector
	t          *testing.T
	forceEvery int
	vals       []int64
	calls      int

	minors, majors, finals int
	// targetInSpan counts majors whose copy target lay inside their
	// span, the case the rule's to-space exclusion exists for.
	targetInSpan int
}

func (p *genFromSetProbe) around(m *vmachine.Machine, collect func(*vmachine.Machine) error) error {
	h := p.Heap
	pre := *h
	minor0, major0 := p.Minor, p.Major
	vals := genValues(p.t, m, p.Collector, p.vals[:0])
	if err := collect(m); err != nil {
		return err
	}
	minorSp, majorSp := p.Spaces()
	sp, inFrom := minorSp, pre.InNursery
	switch {
	case p.Major > major0:
		sp, inFrom = majorSp, pre.InFrom
		p.majors++
		if sp.ToBase >= sp.SpanLo && sp.ToBase < sp.SpanHi {
			p.targetInSpan++
		}
	case p.Minor > minor0:
		p.minors++
	default:
		return nil
	}
	vals = genValues(p.t, m, p.Collector, vals)
	for _, v := range vals {
		if v != 0 && sp.InFrom(v) != inFrom(v) {
			p.t.Fatalf("collection %d: value %d: engine rule says %v, heap says %v (span [%d, %d), target [%d, %d))",
				p.Minor+p.Major, v, sp.InFrom(v), inFrom(v), sp.SpanLo, sp.SpanHi, sp.ToBase, sp.ToLimit)
		}
	}
	p.vals = vals
	return nil
}

func (p *genFromSetProbe) Collect(m *vmachine.Machine) error {
	if p.calls++; p.forceEvery > 0 && p.calls%p.forceEvery == 0 {
		p.Heap.ForceMajor()
	}
	return p.around(m, p.Collector.Collect)
}

func (p *genFromSetProbe) FinishCycle(m *vmachine.Machine) error {
	p.finals++
	return p.around(m, p.Collector.FinishCycle)
}

// TestFromSetRuleAgrees pins the engine's from-set rule to the
// generational heap's predicates on the four-thread soak program:
// stop-the-world minors and majors (every third collection forced to a
// major, so majors run on both old semispaces, the copy target inside
// the span after every odd flip), and concurrent majors driven by the
// scheduler, whose span is the whole heap.
func TestFromSetRuleAgrees(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := "stw"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			opts := driver.NewOptions()
			opts.Generational = true
			opts.Multithreaded = true
			opts.ConcurrentMark = concurrent
			c, err := driver.Compile("gensoak.m3", genSoakSrc, opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := vmachine.Config{HeapWords: 4096, StackWords: 4096, MaxThreads: 8, Quantum: 53}
			var sb strings.Builder
			cfg.Out = &sb
			m, col, err := c.NewGenerationalMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			col.MarkBudget = 8
			for _, name := range []string{"W1", "W2", "W3"} {
				if _, err := m.Spawn(c.Prog.FindProc(name)); err != nil {
					t.Fatal(err)
				}
			}
			p := &genFromSetProbe{Collector: col, t: t}
			if !concurrent {
				p.forceEvery = 3
			}
			m.Collector = p
			if err := m.Run(1_000_000_000); err != nil {
				t.Fatalf("%v (out=%q)", err, sb.String())
			}
			if sb.String() != genSoakWant {
				t.Fatalf("output %q, want %q", sb.String(), genSoakWant)
			}
			if p.minors == 0 || p.majors < 2 || p.targetInSpan == 0 {
				t.Fatalf("checked %d minors and %d majors, %d with the copy target inside the span; want minors, two majors and one such",
					p.minors, p.majors, p.targetInSpan)
			}
			if concurrent && (p.finals == 0 || col.Cycles == 0 || col.Bursts == 0) {
				t.Fatalf("%d final pauses, %d cycles and %d mark bursts from the scheduler, want some of each", p.finals, col.Cycles, col.Bursts)
			}
			t.Logf("checked %d minors and %d majors (%d with the target inside the span, %d scheduler-driven final pauses)",
				p.minors, p.majors, p.targetInSpan, p.finals)
		})
	}
}
