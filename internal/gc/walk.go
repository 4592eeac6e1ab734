package gc

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/gctab"
	"repro/internal/vmachine"
)

// Frame is one walked stack frame: where it is, and the frame program
// of the gc-point it is suspended at. Frames live by value in their
// thread's slab and are valid until the Walk is next used. The
// generational collector reuses this machinery.
type Frame struct {
	PC     int
	FP, SP int64
	Prog   *gctab.FrameProgram
}

// ThreadWalk is one live thread's walked stack.
type ThreadWalk struct {
	T      *vmachine.Thread
	Frames []Frame // innermost first
}

// derivation is one derived value of the current pause with its table
// slots resolved to the words they name in that frame: the target, the
// path variable (nil when unambiguous), and every variant's bases, in
// Walk.bases from first on, variant v ending at Walk.ends[end+v].
// AdjustDerived records the adjusted value E and the chosen variant's
// bases [lo, hi) for RederiveAll.
type derivation struct {
	target, sel *int64
	n           int32
	first, end  int32
	lo, hi      int32
	e           int64
}

// base is one resolved base of a derivation variant.
type base struct {
	at   *int64
	sign int64
}

// Walk is a collector's stack-walk state for the current pause: per
// live thread, in m.Threads order, the frames; the root buffer; and
// the derivations with their slots resolved. It starts empty, grows to
// the deepest stacks it has met, and is reused at every pause, so a
// steady-state walk allocates nothing. The zero value is ready to use.
type Walk struct {
	Threads []ThreadWalk

	// roots holds the global pointer slots, then each frame's root
	// slots in walk order; the first fixed entries are the walk's, and
	// Roots appends its extra slots after them.
	roots []*int64
	fixed int

	// derivs are in adjust order: threads in walk order, callee frames
	// before callers, table order within a frame (a derived value before
	// its bases). adjusted is how many AdjustDerived has adjusted.
	derivs   []derivation
	bases    []base
	ends     []int32
	adjusted int
}

// Machine walks every live thread's stack in one outward sweep,
// innermost frame first, and replaces whatever the Walk held. The sweep
// keeps where each hard register lives while the current frame is
// suspended — the thread's register, or the save slot of the nearest
// callee that spilled it — moving a register to its save slot at each
// frame that saved it. Each frame's root slots go straight into the
// root buffer and its derivations' slots are resolved to addresses, so
// Roots, AdjustDerived and RederiveAll never revisit a frame. The walk
// itself writes nothing, so an error leaves every derived value
// unadjusted.
func (w *Walk) Machine(m *vmachine.Machine, dec gctab.TableDecoder) error {
	w.Threads = w.Threads[:0]
	w.derivs, w.bases, w.ends, w.adjusted = w.derivs[:0], w.bases[:0], w.ends[:0], 0
	w.roots, w.fixed = w.roots[:0], 0
	for _, off := range m.Prog.GlobalPtrOffs {
		w.roots = append(w.roots, &m.Mem[m.GlobalBase+off])
	}
	for _, t := range m.Threads {
		if t.Done {
			continue
		}
		// Re-slicing (not appending a zero value) keeps the slab's
		// frame buffer from the last pause.
		n := len(w.Threads)
		if n < cap(w.Threads) {
			w.Threads = w.Threads[:n+1]
		} else {
			w.Threads = append(w.Threads, ThreadWalk{})
		}
		tw := &w.Threads[n]
		tw.T = t
		if err := w.sweep(m, dec, tw); err != nil {
			return err
		}
	}
	w.fixed = len(w.roots)
	return nil
}

// sweep follows tw.T's saved-FP chain from its current gc-point.
func (w *Walk) sweep(m *vmachine.Machine, dec gctab.TableDecoder, tw *ThreadWalk) error {
	t := tw.T
	tw.Frames = tw.Frames[:0]
	var live [16]*int64
	for r := range live {
		live[r] = &t.Regs[r]
	}
	pc := t.CurrentGCPointPC(m.Prog)
	fp, sp := t.FP, t.SP
	for {
		prog, err := dec.Program(pc)
		if err != nil {
			return fmt.Errorf("gc: thread %d: %w", t.ID, err)
		}
		if prog == nil {
			return fmt.Errorf("gc: no tables for gc-point pc %d (thread %d)", pc, t.ID)
		}
		tw.Frames = append(tw.Frames, Frame{PC: pc, FP: fp, SP: sp, Prog: prog})
		for _, off := range prog.FPRoots {
			w.roots = append(w.roots, &m.Mem[fp+int64(off)])
		}
		for _, off := range prog.SPRoots {
			w.roots = append(w.roots, &m.Mem[sp+int64(off)])
		}
		for mask := prog.RegPtrs; mask != 0; mask &= mask - 1 {
			w.roots = append(w.roots, live[bits.TrailingZeros16(mask)])
		}
		if len(prog.Derivs) > 0 {
			w.resolve(m, prog, fp, sp, &live)
		}
		// The caller sees the registers this frame saved in its save
		// slots.
		for _, sv := range prog.Saves {
			live[sv.Reg] = &m.Mem[fp+int64(sv.Off)]
		}
		savedFP := m.Mem[fp]
		if savedFP == 0 {
			return nil
		}
		// A caller's frame lies strictly above its callee's, and its
		// saved-FP/return-address pair inside the thread's stack. A
		// chain that breaks either rule is damaged; following it would
		// loop or read another thread's memory.
		if savedFP <= fp || savedFP+1 >= t.StackHi {
			return fmt.Errorf("gc: thread %d: frame at pc %d (fp %d) has saved FP %d outside (%d, %d): corrupt frame chain",
				t.ID, pc, fp, savedFP, fp, t.StackHi-1)
		}
		pc = int(m.Mem[fp+1])
		sp = fp + 2
		fp = savedFP
	}
}

// resolve appends prog's derivations, with their slots resolved
// against the frame at fp/sp and the registers in live.
func (w *Walk) resolve(m *vmachine.Machine, prog *gctab.FrameProgram, fp, sp int64, live *[16]*int64) {
	at := func(s gctab.Slot) *int64 {
		if r, ok := s.Reg(); ok {
			return live[r]
		}
		off, fromSP := s.Stack()
		if fromSP {
			return &m.Mem[sp+off]
		}
		return &m.Mem[fp+off]
	}
	for di := range prog.Derivs {
		op := &prog.Derivs[di]
		d := derivation{target: at(op.Target), n: op.N, first: int32(len(w.bases)), end: int32(len(w.ends))}
		if op.Sel != gctab.NoSlot {
			d.sel = at(op.Sel)
		}
		for v := 0; v < int(op.N); v++ {
			for _, b := range prog.Variant(op, v) {
				w.bases = append(w.bases, base{at: at(b.Slot), sign: int64(b.Sign)})
			}
			w.ends = append(w.ends, int32(len(w.bases)))
		}
		w.derivs = append(w.derivs, d)
	}
}

// NumFrames returns the number of frames the last walk found.
func (w *Walk) NumFrames() int {
	n := 0
	for i := range w.Threads {
		n += len(w.Threads[i].Frames)
	}
	return n
}

// NumDerivs returns the number of derived values AdjustDerived adjusted
// (and RederiveAll re-derives) in the current pause.
func (w *Walk) NumDerivs() int { return w.adjusted }

// String lists the walked frames as "proc@pc fp=… sp=…;" in walk order:
// a signature two walks of one machine state can be compared by.
func (w *Walk) String() string {
	var b strings.Builder
	for i := range w.Threads {
		for _, f := range w.Threads[i].Frames {
			fmt.Fprintf(&b, "%s@%d fp=%d sp=%d;", f.Prog.View.ProcName, f.PC, f.FP, f.SP)
		}
	}
	return b.String()
}

// AdjustDerived is phase 1 of the derived-value protocol: callee frames
// before callers and, within a frame, derived values before their
// bases, it replaces each derived value by E = a − Σ sign·base, the
// variant chosen by the path variable's value now.
func (w *Walk) AdjustDerived() error {
	for i := range w.derivs {
		d := &w.derivs[i]
		v := 0
		if d.sel != nil {
			v = int(*d.sel)
			if v < 0 || v >= int(d.n) {
				return fmt.Errorf("gc: path variable selects variant %d of %d", v, d.n)
			}
		}
		d.lo, d.hi = d.first, w.ends[int(d.end)+v]
		if v > 0 {
			d.lo = w.ends[int(d.end)+v-1]
		}
		e := *d.target
		for _, b := range w.bases[d.lo:d.hi] {
			e -= b.sign * *b.at
		}
		*d.target, d.e = e, e
	}
	w.adjusted = len(w.derivs)
	return nil
}

// RederiveAll is phase 2: in exactly the reverse order, recompute each
// adjusted value from its (possibly moved) bases.
func (w *Walk) RederiveAll() {
	for i := w.adjusted - 1; i >= 0; i-- {
		d := &w.derivs[i]
		a := d.e
		for _, b := range w.bases[d.lo:d.hi] {
			a += b.sign * *b.at
		}
		*d.target = a
	}
}

// Roots returns the address of every root slot — global pointer slots,
// then each frame's live stack slots and live pointer registers, then
// the extra Mem words the caller names (a remembered set) — for the
// trace-copy engine. The list may contain aliases (one callee-save slot
// is where a register lives for several frames); the engine is
// alias-safe. Each call replaces the previous call's extra slots; the
// list is valid until the Walk is next used.
func (w *Walk) Roots(m *vmachine.Machine, extra []int64) []*int64 {
	w.roots = w.roots[:w.fixed]
	for _, slot := range extra {
		w.roots = append(w.roots, &m.Mem[slot])
	}
	return w.roots
}
