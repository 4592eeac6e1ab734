package vmachine

import (
	"fmt"

	"repro/internal/telemetry"
)

// stepSwitch executes one instruction on thread t: the reference
// interpreter the threaded table in dispatch.go is checked against. It
// does the scheduler's per-step work, then makes one call through the
// op table. It returns an error for traps; thread state (Done/Blocked)
// signals everything else.
func (m *Machine) stepSwitch(t *Thread) error {
	in := &m.Prog.Code[t.PC]

	// Rendezvous: while a collection is pending, other threads park at
	// their next blocking gc-point (allocations and polls) without
	// executing it; the requester is already parked.
	if m.GCRequested && t != m.Requester && in.IsPollPoint() {
		m.park(t)
		return nil
	}

	// Stress mode: collect at every allocation/poll gc-point before
	// executing it (the machine state then matches the point's tables
	// exactly). Calls are excluded: a collection "at a call" only ever
	// happens during the callee, whose tables describe the argument
	// slots — before the call executes, no frame describes them.
	if m.StressGC && in.IsGCPoint() && in.Op != OpCall && !t.stressed {
		m.Cur = t
		if err := m.collectNow(); err != nil {
			return err
		}
		m.GCCount++
		t.stressed = true
	}

	m.Steps++
	if m.Tel != nil {
		m.observe(t, in.Op)
	}
	return opFn(in.Op)(m, t, in)
}

// observe records one step about to execute op in the telemetry
// profile: the opcode count and, every pcSampleEvery steps, the byte PC
// and the opcode bigram.
func (m *Machine) observe(t *Thread, op Op) {
	m.opCounts[op]++
	if m.pcSampleEvery > 0 && m.Steps%m.pcSampleEvery == 0 {
		m.Tel.SamplePC(int64(m.Prog.PCOf[t.PC]))
		m.Tel.SamplePair(int64(t.prevOp), int64(op))
	}
	t.prevOp = op
}

// reuseCell implements OpReuse: in-place reinitialization of a cell
// the compiler proved dead — keep the header
// (same descriptor by construction), zero the payload to match
// TryAlloc's zeroed-memory contract. Not a gc-point — the heap is never
// exhausted here. During a concurrent mark cycle the cell's old pointer
// fields are SATB-logged before being zeroed (they are part of the
// snapshot) and the cell itself is black-allocated like any other
// allocation, since its new contents will only be seen by the barrier.
func (m *Machine) reuseCell(t *Thread, in *Instr) error {
	addr := t.Regs[in.Ra]
	if addr == 0 {
		return m.trap(TrapNilDeref, "reuse of NIL")
	}
	if addr < m.HeapLo || addr >= m.HeapHi || m.Mem[addr] != int64(in.Desc) {
		return m.trap(TrapBadAddress, fmt.Sprintf("reuse of non-desc%d cell at %d", in.Desc, addr))
	}
	d := m.Prog.Descs.Get(in.Desc)
	if m.SATB != nil {
		for _, off := range d.PtrOffsets {
			m.SATB(m.Mem[addr+1+off])
		}
	}
	for i := int64(0); i < d.DataWords; i++ {
		m.Mem[addr+1+i] = 0
	}
	if m.AllocMark != nil {
		m.AllocMark(addr)
	}
	t.Regs[in.Rd] = addr
	m.Reuses++
	t.PC++
	t.stressed = false
	return nil
}

// allocFailure distinguishes a tenant-quota failure from true space
// exhaustion once an allocation has failed even after a collection.
func (m *Machine) allocFailure(desc int, n int64) error {
	if qc, ok := m.Alloc.(QuotaChecker); ok && qc.QuotaBlocked(desc, n) {
		return m.trap(TrapQuotaExceeded, "")
	}
	return m.trap(TrapOutOfMemory, "")
}

// allocate implements the NEW instructions, triggering collection when
// the heap is exhausted.
func (m *Machine) allocate(t *Thread, rd uint8, desc int, n int64) error {
	return m.allocCommon(t, rd, desc, n, nil)
}

// allocateText allocates and fills text literal lit (an ARRAY OF CHAR
// object) through the same collect-and-retry state machine.
func (m *Machine) allocateText(t *Thread, rd uint8, lit int) error {
	s := m.Prog.TextLits[lit]
	return m.allocCommon(t, rd, m.Prog.TextDesc, int64(len(s)), func(addr int64) {
		for i := 0; i < len(s); i++ {
			m.Mem[addr+2+int64(i)] = int64(s[i])
		}
	})
}

// allocCommon is the collect-and-retry state machine shared by every
// allocation site (records, arrays, text literals; the threaded
// dispatcher's bump-pointer fast path falls back here on overflow).
// fill, when non-nil, initializes the payload of a fresh object before
// the register is written.
//
// The allocRetried flag on the thread tracks a rendezvous retry: a
// failed allocation in a multi-threaded machine requests a rendezvous
// and re-executes after the collection (PC unchanged). Under a
// stop-the-world collector, failing again on the retry is a quota or
// out-of-memory trap, never a second collection — the collection was
// complete. A concurrent cycle is not: objects allocated during its
// marking survive it black, so a failed retry is owed one complete
// synchronous collection (allocSynced + syncGC) before the trap.
func (m *Machine) allocCommon(t *Thread, rd uint8, desc int, n int64, fill func(addr int64)) error {
	if addr, ok := m.Alloc.TryAlloc(desc, n); ok {
		if m.AllocMark != nil {
			m.AllocMark(addr)
		}
		if fill != nil {
			fill(addr)
		}
		t.Regs[rd] = addr
		t.PC++
		t.allocRetried = false
		t.allocSynced = false
		return nil
	}
	if t.allocRetried {
		t.allocRetried = false
		if m.concCollector() != nil {
			if m.othersRunnable(t) {
				// The collection just waited through may have been a
				// concurrent cycle that retained its floating garbage;
				// rendezvous again with syncGC set so the next one
				// collects synchronously and completely. Stay in this
				// state while syncGC is pending — an unrelated cycle's
				// final pause can consume a rendezvous without
				// honoring it.
				if !t.allocSynced || m.syncGC {
					t.allocSynced = true
					m.syncGC = true
					m.requestGC(t)
					t.allocRetried = true
					return nil
				}
			} else if !t.allocSynced {
				// Sole runnable thread: nothing to rendezvous with.
				// Finish any active cycle and collect completely inline.
				m.Cur = t
				if err := m.collectFully(); err != nil {
					return err
				}
				if addr, ok := m.Alloc.TryAlloc(desc, n); ok {
					if m.AllocMark != nil {
						m.AllocMark(addr)
					}
					if fill != nil {
						fill(addr)
					}
					t.Regs[rd] = addr
					t.PC++
					t.allocSynced = false
					return nil
				}
			}
		}
		t.allocSynced = false
		return m.allocFailure(desc, n)
	}
	if m.othersRunnable(t) {
		// Multi-threaded: request a rendezvous and retry the
		// allocation after the collection (PC unchanged).
		m.requestGC(t)
		t.allocRetried = true
		return nil
	}
	m.Cur = t
	wasConc := m.concActive
	if err := m.collectNow(); err != nil {
		return err
	}
	m.GCCount++
	if addr, ok := m.Alloc.TryAlloc(desc, n); ok {
		if m.AllocMark != nil {
			m.AllocMark(addr)
		}
		if fill != nil {
			fill(addr)
		}
		t.Regs[rd] = addr
		t.PC++
		return nil
	}
	if wasConc {
		// The finished cycle retained its black-allocated garbage; a
		// complete collection (no cycle is active now) gets one more
		// chance before the trap.
		if err := m.collectNow(); err != nil {
			return err
		}
		m.GCCount++
		if addr, ok := m.Alloc.TryAlloc(desc, n); ok {
			if m.AllocMark != nil {
				m.AllocMark(addr)
			}
			if fill != nil {
				fill(addr)
			}
			t.Regs[rd] = addr
			t.PC++
			return nil
		}
	}
	return m.allocFailure(desc, n)
}

func (m *Machine) putText(addr int64) error {
	if addr == 0 {
		return m.trap(TrapNilDeref, "PutText(NIL)")
	}
	n, err := m.read(addr + 1)
	if err != nil {
		return err
	}
	// A corrupt or adversarial length word must not reach make(): a
	// negative count panics and a huge one balloons host memory. Any
	// length whose payload cannot lie inside machine memory is a range
	// trap. (n is checked against len(Mem) on its own first so addr+2+n
	// cannot overflow.)
	if n < 0 || n > int64(len(m.Mem)) || addr+2+n > int64(len(m.Mem)) {
		return m.trap(TrapRangeError, fmt.Sprintf("text length %d", n))
	}
	b := make([]byte, n)
	for i := int64(0); i < n; i++ {
		v, err := m.read(addr + 2 + i)
		if err != nil {
			return err
		}
		b[i] = byte(v)
	}
	if _, werr := m.Out.Write(b); werr != nil {
		return fmt.Errorf("vmachine: PutText write: %w", werr)
	}
	return nil
}

// othersRunnable reports whether any thread other than t is neither
// done nor parked: whether a collection t needs must rendezvous.
func (m *Machine) othersRunnable(t *Thread) bool {
	for _, o := range m.Threads {
		if o != t && !o.Done && !o.Blocked {
			return true
		}
	}
	return false
}

// Run executes until every thread halts, a trap occurs, or maxSteps
// instructions have executed (0 means no limit).
func (m *Machine) Run(maxSteps int64) error {
	_, err := m.run(maxSteps, 0)
	return err
}

// RunFuel executes at most roughly fuel instructions (0 uses
// Config.Fuel; if that is also 0 it runs to completion), then yields at
// the current thread's next blocking gc-point: done=false, err=nil, and
// Yielded set, with the machine resumable by another RunFuel call. The
// overrun past the budget is bounded by the paper's §5.3 gc-point
// density guarantee — compile with Options.Multithreaded so loops carry
// gc-polls. The round-robin position survives the yield, so output and
// final state are identical no matter how the budget is sliced.
func (m *Machine) RunFuel(fuel int64) (done bool, err error) {
	if fuel <= 0 {
		fuel = m.fuel
	}
	return m.run(0, fuel)
}

// Halted reports whether every thread has finished.
func (m *Machine) Halted() bool {
	for _, t := range m.Threads {
		if !t.Done {
			return false
		}
	}
	return true
}

// run is the scheduler shared by Run and RunFuel. The round-robin
// position (passIdx, passQ) and the pass progress flag live on the
// Machine, not the stack, so a fuel yield mid-pass resumes exactly
// where it stopped — the interleaving, and therefore every observable
// result, is independent of budget slicing.
func (m *Machine) run(maxSteps, fuel int64) (bool, error) {
	m.Yielded = false
	executed := int64(0)
	if m.Tel != nil {
		stepsBefore := m.Steps
		defer func() { m.mSteps.Add(m.Steps - stepsBefore) }()
	}
	for {
		for ; m.passIdx < len(m.Threads); m.passIdx, m.passQ = m.passIdx+1, 0 {
			t := m.Threads[m.passIdx]
			if t.Done || t.Blocked {
				continue
			}
			m.Cur = t
			for m.passQ < m.quantum {
				if fuel > 0 && executed >= fuel && m.Prog.Code[t.PC].IsPollPoint() {
					m.Yielded = true
					return false, nil
				}
				var n int64
				var err error
				if m.threaded != nil {
					// Threaded dispatch executes a whole slice per call;
					// the budget encodes every boundary (quantum, step
					// limit, fuel) so the slice can never overrun one,
					// and the per-step accounting below stays exact.
					budget := m.quantum - m.passQ
					if maxSteps > 0 && maxSteps-m.Steps < budget {
						budget = maxSteps - m.Steps
					}
					if fuel > 0 && fuel-executed < budget {
						budget = fuel - executed
					}
					if budget < 1 {
						budget = 1
					}
					n, err = m.stepSlice(t, budget)
				} else {
					n, err = 1, m.stepSwitch(t)
				}
				if err != nil {
					return false, err
				}
				executed += n
				m.passQ += n
				m.passRan = true
				if t.Done || t.Blocked {
					break
				}
				if maxSteps > 0 && m.Steps >= maxSteps {
					return false, fmt.Errorf("vmachine: step limit %d exceeded", maxSteps)
				}
			}
		}
		ran := m.passRan
		m.passIdx, m.passQ, m.passRan = 0, 0, false
		if m.Halted() {
			if m.concActive {
				// The program ended mid-cycle: finish it so the heap is
				// consistent (hooks disarmed, survivors compacted) for
				// post-run inspection.
				if err := m.finishConcCycle(); err != nil {
					return false, err
				}
				m.GCCount++
			}
			return true, nil
		}
		if m.concActive {
			// A cycle is marking while mutators run: one bounded mark
			// increment per completed scheduler pass. Pass boundaries are
			// invariant under fuel slicing (passIdx/passQ persist across
			// yields), so the burst schedule — and therefore every
			// observable result — is too.
			if !m.allParked() {
				done, err := m.concCollector().MarkStep(m)
				if err != nil {
					return false, err
				}
				if done && !m.GCRequested {
					// Marking is complete: rendezvous for the final pause.
					m.GCRequested = true
					m.Requester = m.concRequester
					if m.Tel != nil {
						m.gcRequestNs = m.Tel.Now()
					}
				}
			}
			if m.allParked() {
				// Final pause: drain the barrier buffer, then
				// assign/copy/fixup only.
				if m.Tel != nil && m.GCRequested && m.Requester != nil {
					m.emitRendezvous()
				}
				if m.Requester != nil {
					m.Cur = m.Requester
				}
				if err := m.finishConcCycle(); err != nil {
					return false, err
				}
				m.GCCount++
				m.GCRequested = false
				m.unparkBlocked(nil)
				m.Requester = nil
				continue
			}
			if !ran {
				return false, fmt.Errorf("vmachine: no runnable thread (deadlock)")
			}
			continue
		}
		if m.GCRequested && m.allParked() {
			if m.Tel != nil {
				m.emitRendezvous()
			}
			m.Cur = m.Requester
			if cc := m.concCollector(); cc != nil && cc.ShouldStartCycle() && !m.syncGC {
				// Initial pause: scan roots, arm the barrier, and let
				// mutators run again while marking proceeds. Threads that
				// parked passively at poll points resume now; threads
				// whose park IS a pending collection (a failed allocation
				// retry, a forced OpGcCollect) stay parked until the
				// cycle finishes and memory is actually reclaimed.
				if err := cc.StartCycle(m); err != nil {
					return false, err
				}
				m.concActive = true
				m.concRequester = m.Requester
				m.GCRequested = false
				m.Requester = nil
				m.unparkBlocked(func(t *Thread) bool {
					return !t.allocRetried && !t.resumeSkip
				})
				continue
			}
			if err := m.Collector.Collect(m); err != nil {
				return false, err
			}
			m.GCCount++
			m.syncGC = false
			m.GCRequested = false
			m.unparkBlocked(nil)
			m.Requester = nil
			continue
		}
		if !ran {
			return false, fmt.Errorf("vmachine: no runnable thread (deadlock)")
		}
	}
}

// emitRendezvous records the latency from the GC request to the moment
// every live thread has reached a gc-point (the paper's worry about
// gc-point density, §5). Caller guarantees Tel is set.
func (m *Machine) emitRendezvous() {
	parked := int64(0)
	for _, t := range m.Threads {
		if t.Blocked {
			parked++
		}
	}
	tid := int32(-1)
	if m.Requester != nil {
		tid = int32(m.Requester.ID)
	}
	m.Tel.Emit(telemetry.EvRendezvous, tid,
		m.Tel.Now()-m.gcRequestNs, parked, 0, 0)
}

// unparkBlocked resumes blocked threads (all of them when keep is nil,
// else those keep approves), observing each thread's gc-point wait and
// advancing past a forced collection's instruction.
func (m *Machine) unparkBlocked(keep func(*Thread) bool) {
	for _, t := range m.Threads {
		if !t.Blocked || (keep != nil && !keep(t)) {
			continue
		}
		t.Blocked = false
		if m.Tel != nil {
			wait := m.Tel.Now() - t.parkNs
			m.Tel.Emit(telemetry.EvGCWait, int32(t.ID), wait, 0, 0, 0)
			m.hWait.Observe(wait)
			t.parkNs = 0
		}
		if t.resumeSkip {
			t.resumeSkip = false
			t.PC++
		}
	}
}

// allParked reports whether every live thread is blocked at a gc-point.
func (m *Machine) allParked() bool {
	for _, t := range m.Threads {
		if !t.Done && !t.Blocked {
			return false
		}
	}
	return true
}

func floorDiv(x, y int64) int64 {
	q := x / y
	if (x%y != 0) && ((x < 0) != (y < 0)) {
		q--
	}
	return q
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
