package gc

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

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

	regs  int32 // this frame's register file in ThreadWalk.regs
	deriv int32 // its first entry in ThreadWalk.derivs
}

// regFile says where each hard register's value lives while a frame is
// suspended, without holding a pointer: a word index into Machine.Mem
// (a callee's save slot), or ^r for the thread's own register r.
type regFile [16]int64

// derivState is what phase 1 of the derived-value protocol leaves for
// phase 2: the adjusted value E and the variant the path variable chose.
type derivState struct {
	e       int64
	variant int32
}

// ThreadWalk is one live thread's walked stack. Frames of one thread
// may alias storage (a callee-save slot reconstructed into several
// register files); frames of different threads never do, which is what
// lets the walk and the derived-value phases run whole threads in
// parallel.
type ThreadWalk struct {
	T      *vmachine.Thread
	Frames []Frame // innermost first

	// regs[0] is the thread's own registers; each frame whose callee
	// saved registers gets a copy with those redirected to the save
	// slots, and every other frame shares its callee's.
	regs   []regFile
	derivs []derivState
}

// Walk is a collector's stack-walk state: per live thread, in
// m.Threads order, the frames, reconstructed register files and
// derived-value scratch of the current pause, plus the root buffer. It
// starts empty, grows to the deepest stacks it has met, and is reused
// at every pause, so a steady-state walk allocates nothing. The zero
// value is ready to use.
type Walk struct {
	Threads []ThreadWalk
	roots   []*int64
}

// DefaultWalkWorkers, when positive, overrides the width of the
// stack-walk worker pool for callers that do not pick one (workers <=
// 0). Zero asks the runtime at each walk: walking is CPU-bound, so
// GOMAXPROCS is the natural cap, and a host may change it after this
// package is initialised.
var DefaultWalkWorkers = 0

// Machine walks every live thread's stack, innermost frame first,
// reconstructing per-frame register files from the callee-save maps,
// and replaces whatever the Walk held. workers <= 0 means
// DefaultWalkWorkers, 1 forces the serial walk. A pool worker walks
// whole threads into their own slabs through its own forked decoder
// handle, so frame order, decode results, and the first error reported
// (the lowest-indexed failing thread's) are all deterministic
// regardless of width.
func (w *Walk) Machine(m *vmachine.Machine, dec gctab.TableDecoder, workers int) error {
	w.Threads = w.Threads[:0]
	for _, t := range m.Threads {
		if t.Done {
			continue
		}
		// Re-slicing (not appending a zero value) keeps the slab's
		// buffers from the last pause.
		n := len(w.Threads)
		if n < cap(w.Threads) {
			w.Threads = w.Threads[:n+1]
		} else {
			w.Threads = append(w.Threads, ThreadWalk{})
		}
		w.Threads[n].T = t
	}
	if workers = w.width(workers, DefaultWalkWorkers); workers <= 1 {
		for i := range w.Threads {
			if err := w.Threads[i].walk(m, dec); err != nil {
				return err
			}
		}
		return nil
	}
	decs := make([]gctab.TableDecoder, workers)
	for k := range decs {
		decs[k] = dec.Fork()
	}
	return w.pooled(workers, func(k int, tw *ThreadWalk) error { return tw.walk(m, decs[k]) })
}

// width resolves a pool width against the number of walked threads.
func (w *Walk) width(workers, override int) int {
	if workers = poolWidth(workers, override); workers > len(w.Threads) {
		workers = len(w.Threads)
	}
	return workers
}

// pooled runs fn over every thread slab on a pool of the given width,
// telling it which worker it runs on, and returns the lowest-indexed
// thread's error.
func (w *Walk) pooled(workers int, fn func(worker int, tw *ThreadWalk) error) error {
	errs := make([]error, len(w.Threads))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.Threads) {
					return
				}
				errs[i] = fn(k, &w.Threads[i])
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
func (w *Walk) NumDerivs() int {
	n := 0
	for i := range w.Threads {
		n += len(w.Threads[i].derivs)
	}
	return n
}

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

// walk follows t's saved-FP chain from its current gc-point.
func (tw *ThreadWalk) walk(m *vmachine.Machine, dec gctab.TableDecoder) error {
	t := tw.T
	tw.Frames, tw.derivs = tw.Frames[:0], tw.derivs[:0]
	var own regFile
	for r := range own {
		own[r] = ^int64(r)
	}
	tw.regs = append(tw.regs[:0], own)
	cur := int32(0)

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
		tw.Frames = append(tw.Frames, Frame{PC: pc, FP: fp, SP: sp, Prog: prog, regs: cur})
		// Restore the caller's register view through this frame's
		// callee-save slots.
		if len(prog.Saves) > 0 {
			tw.regs = append(tw.regs, tw.regs[cur])
			cur = int32(len(tw.regs) - 1)
			for _, sv := range prog.Saves {
				tw.regs[cur][sv.Reg] = fp + int64(sv.Off)
			}
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

// ref resolves a register-file entry to the word it names.
func (tw *ThreadWalk) ref(m *vmachine.Machine, at int64) *int64 {
	if at < 0 {
		return &tw.T.Regs[^at]
	}
	return &m.Mem[at]
}

// RegPtr returns where hard register r's value lives while f is
// suspended: the thread's register, or the save slot of the nearest
// callee that spilled it.
func (tw *ThreadWalk) RegPtr(m *vmachine.Machine, f *Frame, r int) *int64 {
	return tw.ref(m, tw.regs[f.regs][r])
}

// SlotPtr resolves a frame-program location against f.
func (tw *ThreadWalk) SlotPtr(m *vmachine.Machine, f *Frame, s gctab.Slot) *int64 {
	if r, ok := s.Reg(); ok {
		return tw.RegPtr(m, f, r)
	}
	off, fromSP := s.Stack()
	if fromSP {
		return &m.Mem[f.SP+off]
	}
	return &m.Mem[f.FP+off]
}

// AdjustDerived is phase 1 of the derived-value protocol: walking callee
// frames before callers and, within a frame, derived values before their
// bases, it replaces each derived value by E = a − Σ sign·base. The §3
// ordering constraint only binds within a thread, because frames of
// different threads share no storage, so threads are batched over a
// worker pool (workers <= 0 means the TraceCopy default, 1 is serial)
// and the result is identical at any width.
func (w *Walk) AdjustDerived(m *vmachine.Machine, workers int) error {
	if workers = w.width(workers, DefaultTraceWorkers); workers <= 1 {
		for i := range w.Threads {
			if err := w.Threads[i].adjustDerived(m); err != nil {
				return err
			}
		}
		return nil
	}
	return w.pooled(workers, func(_ int, tw *ThreadWalk) error { return tw.adjustDerived(m) })
}

func (tw *ThreadWalk) adjustDerived(m *vmachine.Machine) error {
	for fi := range tw.Frames {
		f := &tw.Frames[fi]
		p := f.Prog
		f.deriv = int32(len(tw.derivs))
		for di := range p.Derivs {
			op := &p.Derivs[di]
			v := 0
			if op.Sel != gctab.NoSlot {
				v = int(*tw.SlotPtr(m, f, op.Sel))
				if v < 0 || v >= int(op.N) {
					return fmt.Errorf("gc: path variable selects variant %d of %d", v, op.N)
				}
			}
			target := tw.SlotPtr(m, f, op.Target)
			e := *target
			for _, b := range p.Variant(op, v) {
				e -= int64(b.Sign) * *tw.SlotPtr(m, f, b.Slot)
			}
			*target = e
			tw.derivs = append(tw.derivs, derivState{e: e, variant: int32(v)})
		}
	}
	return nil
}

// RederiveAll is phase 2: in exactly the reverse order, recompute each
// derived value from its (possibly moved) bases. Batched per thread
// like AdjustDerived.
func (w *Walk) RederiveAll(m *vmachine.Machine, workers int) {
	if workers = w.width(workers, DefaultTraceWorkers); workers <= 1 {
		for i := range w.Threads {
			w.Threads[i].rederiveAll(m)
		}
		return
	}
	w.pooled(workers, func(_ int, tw *ThreadWalk) error {
		tw.rederiveAll(m)
		return nil
	})
}

func (tw *ThreadWalk) rederiveAll(m *vmachine.Machine) {
	for fi := len(tw.Frames) - 1; fi >= 0; fi-- {
		f := &tw.Frames[fi]
		p := f.Prog
		for di := len(p.Derivs) - 1; di >= 0; di-- {
			op := &p.Derivs[di]
			st := tw.derivs[int(f.deriv)+di]
			a := st.e
			for _, b := range p.Variant(op, int(st.variant)) {
				a += int64(b.Sign) * *tw.SlotPtr(m, f, b.Slot)
			}
			*tw.SlotPtr(m, f, op.Target) = a
		}
	}
}

// Roots gathers the address of every root slot — global pointer slots,
// then each frame's live stack slots and live pointer registers, then
// the extra Mem words the caller names (a remembered set) — into the
// Walk's buffer for the trace-copy engine. The list may contain aliases
// (the same callee-save slot reconstructed into several frames); the
// engine is alias-safe. It is valid until the Walk is next used.
func (w *Walk) Roots(m *vmachine.Machine, extra []int64) []*int64 {
	roots := w.roots[:0]
	for _, off := range m.Prog.GlobalPtrOffs {
		roots = append(roots, &m.Mem[m.GlobalBase+off])
	}
	for ti := range w.Threads {
		tw := &w.Threads[ti]
		for fi := range tw.Frames {
			f := &tw.Frames[fi]
			p := f.Prog
			for _, off := range p.FPRoots {
				roots = append(roots, &m.Mem[f.FP+int64(off)])
			}
			for _, off := range p.SPRoots {
				roots = append(roots, &m.Mem[f.SP+int64(off)])
			}
			if p.RegPtrs != 0 {
				file := &tw.regs[f.regs]
				for mask := p.RegPtrs; mask != 0; mask &= mask - 1 {
					roots = append(roots, tw.ref(m, file[bits.TrailingZeros16(mask)]))
				}
			}
		}
	}
	for _, slot := range extra {
		roots = append(roots, &m.Mem[slot])
	}
	w.roots = roots
	return roots
}
