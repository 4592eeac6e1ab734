package gc_test

import (
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/types"
	"repro/internal/vmachine"
)

// rootValues appends the value of every root slot of m's stacks and
// globals.
func rootValues(t *testing.T, m *vmachine.Machine, dec gctab.TableDecoder, out []int64) []int64 {
	t.Helper()
	var w gc.Walk
	if err := w.Machine(m, dec); err != nil {
		t.Fatal(err)
	}
	for _, r := range w.Roots(m, nil) {
		out = append(out, *r)
	}
	return out
}

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

// fromSetProbe checks, around every collection the machine runs —
// a stop-the-world Collect, or a final pause the scheduler drives —
// that the engine's address rule (CopySpace.InFrom, with the span and
// copy target that collection used) answers exactly as the heap's own
// predicate (Contains, as it stood when the pause began) on every
// pointer value the collection can test: each root, each object in
// the from-space and each of its pointer slots, and each survivor's
// to-space address (what an aliased root slot holds once patched).
type fromSetProbe struct {
	*gc.Collector
	t               *testing.T
	vals            []int64
	checked, finals int
}

func (p *fromSetProbe) around(m *vmachine.Machine, collect func(*vmachine.Machine) error) error {
	h := p.Heap
	pre := *h
	before := p.Collections
	vals := rootValues(p.t, m, p.Dec, p.vals[:0])
	vals = heapValues(h.Mem, h.Descs, h.FromLo, h.Alloc, vals)
	if err := collect(m); err != nil {
		return err
	}
	if p.Collections == before {
		return nil
	}
	vals = heapValues(h.Mem, h.Descs, h.FromLo, h.Alloc, vals)
	sp := gc.SpaceOf(p.Collector)
	for _, v := range vals {
		if v != 0 && sp.InFrom(v) != pre.Contains(v) {
			p.t.Fatalf("collection %d: value %d: engine rule says %v, Contains says %v (span [%d, %d), target [%d, %d), from [%d, %d))",
				p.Collections, v, sp.InFrom(v), pre.Contains(v), sp.SpanLo, sp.SpanHi, sp.ToBase, sp.ToLimit, pre.FromLo, pre.Alloc)
		}
	}
	p.checked++
	p.vals = vals
	return nil
}

func (p *fromSetProbe) Collect(m *vmachine.Machine) error {
	return p.around(m, p.Collector.Collect)
}

func (p *fromSetProbe) FinishCycle(m *vmachine.Machine) error {
	p.finals++
	return p.around(m, p.Collector.FinishCycle)
}

// TestFromSetRuleAgrees pins the engine's from-set rule to the
// semispace heap's predicate on the hostile shuffle's four threads:
// stop-the-world, and with concurrent marking driven by the scheduler
// (initial pause, mark bursts, final pause), where the span runs to
// the allocation limit rather than the watermark.
func TestFromSetRuleAgrees(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := "stw"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			c := concCompile(t, hostileSrc, func(o *driver.Options) { o.ConcurrentMark = concurrent })
			cfg := vmachine.Config{HeapWords: 768, StackWords: 4096, MaxThreads: 8, Quantum: 41}
			var sb strings.Builder
			cfg.Out = &sb
			m, col, err := c.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			col.MarkBudget = 4
			spawnWorkers(t, c, m, "W1", "W2", "W3")
			p := &fromSetProbe{Collector: col, t: t}
			m.Collector = p
			if err := m.Run(1_000_000_000); err != nil {
				t.Fatalf("%v (out=%q)", err, sb.String())
			}
			if want := "12345\n"; sb.String() != want {
				t.Fatalf("output %q, want %q", sb.String(), want)
			}
			if p.checked < 10 {
				t.Fatalf("checked %d collections, want at least 10", p.checked)
			}
			if concurrent && (p.finals == 0 || col.Bursts == 0) {
				t.Fatalf("%d final pauses and %d mark bursts from the scheduler, want some of each", p.finals, col.Bursts)
			}
			t.Logf("%d collections checked, %d of them scheduler-driven final pauses", p.checked, p.finals)
		})
	}
}
