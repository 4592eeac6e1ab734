package gc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/gctab"
	"repro/internal/vmachine"
)

// Frame is one walked stack frame with its decoded tables and the
// reconstructed register file (addresses, so updates write through).
// The generational collector reuses this machinery.
type Frame struct {
	PC      int
	FP, SP  int64
	View    *gctab.PointView
	RegAddr [16]*int64

	// Thread is the VM thread this frame belongs to. Frames of one
	// thread may alias storage (callee-save slots reconstructed into
	// several register files); frames of different threads never do,
	// which is what lets the derived-value phases run per-thread
	// batches in parallel.
	Thread int32

	derivE  []int64
	variant []int
}

// DefaultWalkWorkers, when positive, overrides the width of the
// stack-walk worker pool for callers that do not pick one (WalkMachine,
// or WalkMachineN with workers <= 0). Zero asks the runtime at each
// walk: walking is CPU-bound table decoding, so GOMAXPROCS is the
// natural cap, and a host may change it after this package is
// initialised.
var DefaultWalkWorkers = 0

// WalkMachine walks every live thread's stack, innermost frame first,
// reconstructing per-frame register files from the callee-save maps.
// Multi-thread machines are walked by a bounded worker pool; the result
// is identical to a serial walk (frames ordered by the thread's
// position in m.Threads, then innermost first).
func WalkMachine(m *vmachine.Machine, dec gctab.TableDecoder) ([]*Frame, error) {
	return WalkMachineN(m, dec, 0)
}

// WalkMachineN is WalkMachine with an explicit worker-pool width:
// workers <= 0 means DefaultWalkWorkers, 1 forces the serial walk.
// Each worker walks whole threads through its own forked decoder
// handle, and the per-thread frame lists are merged in m.Threads order,
// so frame order, decode results, and the first error reported (the
// lowest-indexed failing thread's) are all deterministic regardless of
// width.
func WalkMachineN(m *vmachine.Machine, dec gctab.TableDecoder, workers int) ([]*Frame, error) {
	var live []*vmachine.Thread
	for _, t := range m.Threads {
		if t.Done {
			continue
		}
		live = append(live, t)
	}
	if workers = poolWidth(workers, DefaultWalkWorkers); workers > len(live) {
		workers = len(live)
	}
	if workers <= 1 {
		var frames []*Frame
		for _, t := range live {
			fs, err := walkThread(m, dec, t)
			if err != nil {
				return nil, err
			}
			frames = append(frames, fs...)
		}
		return frames, nil
	}

	perThread := make([][]*Frame, len(live))
	errs := make([]error, len(live))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(dec gctab.TableDecoder) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(live) {
					return
				}
				perThread[i], errs[i] = walkThread(m, dec, live[i])
			}
		}(dec.Fork())
	}
	wg.Wait()

	var frames []*Frame
	for i := range live {
		if errs[i] != nil {
			return nil, errs[i]
		}
		frames = append(frames, perThread[i]...)
	}
	return frames, nil
}

func walkThread(m *vmachine.Machine, dec gctab.TableDecoder, t *vmachine.Thread) ([]*Frame, error) {
	var frames []*Frame
	var regAddr [16]*int64
	for r := 0; r < 16; r++ {
		regAddr[r] = &t.Regs[r]
	}
	pc := t.CurrentGCPointPC(m.Prog)
	fp := t.FP
	sp := t.SP
	for {
		view, err := dec.Decode(pc)
		if err != nil {
			return nil, fmt.Errorf("gc: thread %d: %w", t.ID, err)
		}
		if view == nil {
			return nil, fmt.Errorf("gc: no tables for gc-point pc %d (thread %d)", pc, t.ID)
		}
		f := &Frame{PC: pc, FP: fp, SP: sp, View: view, RegAddr: regAddr, Thread: int32(t.ID)}
		frames = append(frames, f)
		// Restore the caller's register view through this frame's
		// callee-save slots.
		for _, sv := range view.Saves {
			regAddr[sv.Reg] = &m.Mem[fp+int64(sv.Off)]
		}
		savedFP := m.Mem[fp]
		if savedFP == 0 {
			return frames, nil
		}
		pc = int(m.Mem[fp+1])
		sp = fp + 2
		fp = savedFP
	}
}

// LocPtr resolves a table location against the frame to a word address.
func (f *Frame) LocPtr(m *vmachine.Machine, l gctab.Location) *int64 {
	if l.InReg {
		return f.RegAddr[l.Reg]
	}
	base := f.FP
	if l.Base == gctab.BaseSP {
		base = f.SP
	}
	return &m.Mem[base+int64(l.Off)]
}

// threadGroups splits a merged frame list (m.Threads order, innermost
// first within a thread) into its per-thread runs.
func threadGroups(frames []*Frame) [][]*Frame {
	var groups [][]*Frame
	start := 0
	for i := 1; i <= len(frames); i++ {
		if i == len(frames) || frames[i].Thread != frames[start].Thread {
			groups = append(groups, frames[start:i])
			start = i
		}
	}
	return groups
}

// AdjustDerivedN is AdjustDerived batched per thread over a worker
// pool of the given width (<= 0 means the TraceCopy default, 1 is the
// serial protocol). The §3 ordering constraint — callee frames before
// callers, derived values before their bases — only binds within a
// thread, because frames of different threads share no storage; each
// batch runs the serial protocol over one thread's frames, so the
// result is identical at any width.
func AdjustDerivedN(m *vmachine.Machine, frames []*Frame, workers int) error {
	groups := threadGroups(frames)
	if workers = poolWidth(workers, DefaultTraceWorkers); workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		return AdjustDerived(m, frames)
	}
	errs := make([]error, len(groups))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(groups) {
					return
				}
				errs[i] = AdjustDerived(m, groups[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RederiveAllN is RederiveAll batched per thread on the same pool
// shape as AdjustDerivedN.
func RederiveAllN(m *vmachine.Machine, frames []*Frame, workers int) {
	groups := threadGroups(frames)
	if workers = poolWidth(workers, DefaultTraceWorkers); workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		RederiveAll(m, frames)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(groups) {
					return
				}
				RederiveAll(m, groups[i])
			}
		}()
	}
	wg.Wait()
}

// AdjustDerived is phase 1 of the derived-value protocol: walking callee
// frames before callers and, within a frame, derived values before their
// bases, it replaces each derived value by E = a − Σ sign·base.
func AdjustDerived(m *vmachine.Machine, frames []*Frame) error {
	for _, f := range frames {
		f.derivE = make([]int64, len(f.View.Derivs))
		f.variant = make([]int, len(f.View.Derivs))
		for di := range f.View.Derivs {
			de := &f.View.Derivs[di]
			v := 0
			if de.Sel != nil {
				v = int(*f.LocPtr(m, *de.Sel))
				if v < 0 || v >= len(de.Variants) {
					return fmt.Errorf("gc: path variable selects variant %d of %d", v, len(de.Variants))
				}
			}
			f.variant[di] = v
			e := *f.LocPtr(m, de.Target)
			for _, b := range de.Variants[v] {
				e -= int64(b.Sign) * *f.LocPtr(m, b.Loc)
			}
			f.derivE[di] = e
			*f.LocPtr(m, de.Target) = e
		}
	}
	return nil
}

// RederiveAll is phase 2: in exactly the reverse order, recompute each
// derived value from its (possibly moved) bases.
func RederiveAll(m *vmachine.Machine, frames []*Frame) {
	for fi := len(frames) - 1; fi >= 0; fi-- {
		f := frames[fi]
		for di := len(f.View.Derivs) - 1; di >= 0; di-- {
			de := &f.View.Derivs[di]
			a := f.derivE[di]
			for _, b := range de.Variants[f.variant[di]] {
				a += int64(b.Sign) * *f.LocPtr(m, b.Loc)
			}
			*f.LocPtr(m, de.Target) = a
		}
	}
}

// CollectRoots gathers the address of every root slot — global
// pointer slots, live stack slots, and live pointer registers of every
// frame — into a slice for the trace-copy engine. The list may contain
// aliases (the same callee-save slot reconstructed into several
// frames); the engine is alias-safe.
func CollectRoots(m *vmachine.Machine, frames []*Frame) []*int64 {
	roots := make([]*int64, 0, 64)
	ForEachRoot(m, frames, func(p *int64) error {
		roots = append(roots, p)
		return nil
	})
	return roots
}

// ForEachRoot applies fn to the address of every root: global pointer
// slots, live stack slots, and live pointer registers of every frame.
func ForEachRoot(m *vmachine.Machine, frames []*Frame, fn func(p *int64) error) error {
	for _, off := range m.Prog.GlobalPtrOffs {
		if err := fn(&m.Mem[m.GlobalBase+off]); err != nil {
			return err
		}
	}
	for _, f := range frames {
		for _, loc := range f.View.Live {
			if err := fn(f.LocPtr(m, loc)); err != nil {
				return err
			}
		}
		for r := 0; r < 16; r++ {
			if f.View.RegPtrs&(1<<uint(r)) != 0 {
				if err := fn(f.RegAddr[r]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
