package vmachine

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// Threaded dispatch: instead of re-decoding each instruction through
// the 50-case switch in stepSwitch, NewDispatchTable resolves a
// per-instruction handler table once per program. Each entry is a
// func value (Ertl/Gregg-style indirect threading), with three extra
// levers the switch cannot pull:
//
//   - branch, jump, and call targets are resolved to instruction
//     indices at build time (the switch does an IdxOf map lookup on
//     every taken branch), and RET goes through a dense byte-PC →
//     index side array instead of the map;
//   - NEWREC/NEWARR precompute their allocation size from the
//     descriptor table and, when the machine's allocator is the
//     concrete semispace *heap.Heap, bump the pointer directly — one
//     compare, no interface call — falling back to the shared slow
//     path (collect-and-retry, traps, quotas) only on overflow;
//   - adjacent instruction pairs matching a Fusion list are combined
//     into superinstructions, skipping one full round of scheduler
//     bookkeeping (fuel/quantum/rendezvous/telemetry checks) per pair.
//
// Every handler mirrors the switch body instruction for instruction —
// including PC advancement, the stress-mode `stressed` flag, and trap
// ordering — so both dispatchers are bitwise interchangeable; the
// difftest matrix runs both to prove it.

// handlerFn executes one (or one fused pair of) instruction(s).
type handlerFn func(*Machine, *Thread, *Instr) error

// tentry is one slot of the threaded-dispatch table.
type tentry struct {
	fn handlerFn
	// alt is the unfused single-instruction handler, used when a fused
	// entry cannot run (PC sampling on, or a quantum, fuel or step-limit
	// boundary inside the pair). nil for n==1 entries.
	alt handlerFn
	// ip caches &Prog.Code[i] so the hot loop does one table load.
	ip *Instr
	// n is the instruction count the fn consumes (1, or 2 when fused).
	n uint8
	// poll and stress cache IsPollPoint / stress-collection eligibility
	// so the per-step rendezvous and stress checks need no re-decoding.
	poll   bool
	stress bool
}

// Fusion names an adjacent opcode pair to combine into a
// superinstruction. Pairs are only fused where it is semantically
// invisible: the first opcode must fall through (no control transfer,
// no gc-point), the second must not be a blocking gc-point (a thread
// must still be able to park there when entered directly).
type Fusion struct{ First, Second Op }

// DefaultFusions is the production fusion list: the hottest fusible
// opcode bigrams measured by the telemetry PC sampler over the
// paperbench kernels (see `paperbench -dispatch` for the live report).
// Comparison+branch pairs dominate loop headers; Ld/St runs and
// ChkNil+Ld dominate field access; MovI+Cmp* pairs dominate constant
// tests; St+Call / MovI+Call dominate argument setup; Enter+Ld and
// Mov+Ret bracket procedure bodies.
func DefaultFusions() []Fusion {
	return []Fusion{
		{OpCmpLT, OpBT}, {OpCmpLE, OpBT}, {OpCmpGT, OpBT}, {OpCmpGE, OpBT},
		{OpCmpEQ, OpBT}, {OpCmpNE, OpBT},
		{OpCmpLT, OpBF}, {OpCmpLE, OpBF}, {OpCmpGT, OpBF}, {OpCmpGE, OpBF},
		{OpCmpEQ, OpBF}, {OpCmpNE, OpBF},
		{OpMovI, OpCmpEQ}, {OpMovI, OpCmpNE}, {OpMovI, OpCmpLT},
		{OpMovI, OpCmpLE}, {OpMovI, OpCmpGT}, {OpMovI, OpCmpGE},
		{OpLd, OpLd}, {OpSt, OpSt}, {OpLd, OpSt}, {OpSt, OpLd},
		{OpChkNil, OpLd}, {OpLd, OpChkNil}, {OpEnter, OpLd},
		{OpAddI, OpLd}, {OpAddI, OpSt}, {OpLd, OpAddI}, {OpAddI, OpAddI},
		{OpMovI, OpCall}, {OpSt, OpCall}, {OpLd, OpCall}, {OpMov, OpCall},
		{OpMovI, OpSt}, {OpSt, OpMovI}, {OpLd, OpMovI},
		{OpMov, OpMov}, {OpMov, OpRet},
		// Barriered stores fuse like plain ones (generational and
		// concurrent-mark compiles replace most OpSt with OpStB, so
		// store-heavy code keeps its superinstructions there too).
		{OpStB, OpStB}, {OpLd, OpStB}, {OpStB, OpLd},
		{OpMovI, OpStB}, {OpAddI, OpStB}, {OpStB, OpMovI},
	}
}

// FusionsFromPairs converts the telemetry sampler's hot opcode bigrams
// into a fusion list, dropping unfusible pairs and keeping at most max
// (0 = no limit), hottest first.
func FusionsFromPairs(pairs []telemetry.PairSample, max int) []Fusion {
	var out []Fusion
	for _, p := range pairs {
		if p.A < 0 || p.A >= int64(numOps) || p.B < 0 || p.B >= int64(numOps) {
			continue
		}
		f := Fusion{First: Op(p.A), Second: Op(p.B)}
		if !canFuseFirst(f.First) || !canFuseSecond(f.Second) {
			continue
		}
		out = append(out, f)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// canFuseFirst reports whether op may start a superinstruction: it
// must fall through to PC+1 on success (no jumps, calls, returns) and
// must not be a gc-point (the rendezvous and stress checks run once,
// before the pair).
func canFuseFirst(op Op) bool {
	switch op {
	case OpHalt, OpJmp, OpBT, OpBF, OpCall, OpRet,
		OpNewRec, OpNewArr, OpNewText, OpGcPoll, OpGcCollect, OpTrap:
		return false
	}
	return op < numOps
}

// canFuseSecond reports whether op may end a superinstruction: any
// opcode except a blocking gc-point, where a rendezvousing thread must
// be able to park before executing (OpCall is a gc-point but not a
// poll point, so it may end a pair).
func canFuseSecond(op Op) bool {
	switch op {
	case OpNewRec, OpNewArr, OpNewText, OpGcPoll, OpGcCollect:
		return false
	}
	return op < numOps
}

// DispatchTable is one program's threaded-dispatch table. Handlers take
// the machine as an argument and capture only program constants
// (resolved targets, descriptor sizes, operand fields), so the table is
// immutable once built and every machine running the program shares it:
// build it once per program (driver.Compiled does), not once per
// machine.
type DispatchTable struct {
	prog    *Program
	entries []tentry
	// retIdx maps byte PCs to instruction indices for RET (-1 = not an
	// instruction start), replacing the switch's IdxOf map lookup on
	// every return; RET traps on -1 exactly like the map miss.
	retIdx []int32
	// fused counts the superinstruction sites.
	fused int
}

// NewDispatchTable resolves p's per-instruction handlers and combines
// the adjacent pairs named by fusions (nil = no superinstructions).
func NewDispatchTable(p *Program, fusions []Fusion) *DispatchTable {
	tab := &DispatchTable{prog: p, retIdx: make([]int32, len(p.CodeBytes)+1)}
	for i := range tab.retIdx {
		tab.retIdx[i] = -1
	}
	for pc, idx := range p.IdxOf {
		if pc >= 0 && pc < len(tab.retIdx) {
			tab.retIdx[pc] = int32(idx)
		}
	}

	entries := make([]tentry, len(p.Code))
	for i := range p.Code {
		in := &p.Code[i]
		h, _ := buildHandler(p, i)
		entries[i] = tentry{
			fn:     h,
			ip:     in,
			n:      1,
			poll:   in.IsPollPoint(),
			stress: in.IsGCPoint() && in.Op != OpCall,
		}
	}
	fset := make(map[Fusion]bool, len(fusions))
	for _, f := range fusions {
		fset[f] = true
	}
	for i := 0; i+1 < len(p.Code); i++ {
		op1, op2 := p.Code[i].Op, p.Code[i+1].Op
		if !fset[Fusion{op1, op2}] || !canFuseFirst(op1) || !canFuseSecond(op2) {
			continue
		}
		single := entries[i].fn
		entries[i].alt = single
		entries[i].fn = buildFused(p, i, single, entries[i+1].fn)
		entries[i].n = 2
		tab.fused++
	}
	tab.entries = entries
	return tab
}

// EnableThreadedDispatch switches the machine onto tab, which must have
// been built for the machine's program. Call after the allocator is
// attached: whether m.Alloc is the concrete semispace heap, which arms
// the allocation fast path, is the one thing decided per machine. The
// zero-value machine keeps the switch interpreter, so differential runs
// can compare both.
func (m *Machine) EnableThreadedDispatch(tab *DispatchTable) {
	if tab.prog != m.Prog {
		panic("vmachine: dispatch table built for another program")
	}
	m.fastHeap, _ = m.Alloc.(*heap.Heap)
	m.threaded, m.retIdx, m.Fused = tab.entries, tab.retIdx, tab.fused
}

// ThreadedDispatch reports whether the machine runs on the threaded
// table (false = the plain switch interpreter).
func (m *Machine) ThreadedDispatch() bool { return m.threaded != nil }

// stepSlice executes up to budget instructions of thread t through the
// dispatch table in one tight loop, returning the number consumed. The
// scheduler computes budget so that the slice can never straddle a
// quantum, fuel, or step-limit boundary — the loop itself only has to
// re-check the per-instruction conditions the switch interpreter
// checks: rendezvous parking, stress-mode collection, and telemetry
// sampling. Every early exit (park, Done/Blocked, trap) matches the
// switch interpreter's accounting instruction for instruction; what
// the batch saves is the per-step scheduler round trip, which the
// switch pays on every instruction.
func (m *Machine) stepSlice(t *Thread, budget int64) (int64, error) {
	consumed := int64(0)
	for consumed < budget {
		e := &m.threaded[t.PC]

		if m.GCRequested && t != m.Requester && e.poll {
			// Parking charges one unit without executing, exactly like
			// the switch prologue.
			m.park(t)
			return consumed + 1, nil
		}
		if m.StressGC && e.stress && !t.stressed {
			m.Cur = t
			if err := m.collectNow(); err != nil {
				return consumed, err
			}
			m.GCCount++
			t.stressed = true
		}

		n := int64(e.n)
		fn := e.fn
		if n == 2 && (consumed+2 > budget || (m.pcSampleEvery > 0 && m.Tel != nil)) {
			// The pair would straddle the slice boundary (quantum, fuel,
			// or step limit), or the PC sampler needs every Steps value
			// to pass through here: take the single-instruction handler
			// so accounting matches the switch exactly. A tracer alone
			// keeps the fusion; both opcodes are counted below.
			fn, n = e.alt, 1
		}
		m.Steps += n
		if m.Tel != nil {
			op := e.ip.Op
			m.opCounts[op]++
			if m.pcSampleEvery > 0 && m.Steps%m.pcSampleEvery == 0 {
				m.Tel.SamplePC(int64(m.Prog.PCOf[t.PC]))
				m.Tel.SamplePair(int64(t.prevOp), int64(op))
			}
			m.pairAt = 0
			if n == 2 {
				op = m.threaded[t.PC+1].ip.Op
				m.opCounts[op]++
				m.pairAt = t.PC + 1
			}
			t.prevOp = op
		}
		consumed += n
		if err := fn(m, t, e.ip); err != nil {
			if m.pairAt == t.PC+1 {
				// A counted pair trapped in its first half (PC never
				// left it) and gave its second step back: give back the
				// count too. Reads only m and t, so nothing more stays
				// live across the handler call on the hot path.
				m.opCounts[m.threaded[t.PC+1].ip.Op]--
			}
			return consumed, err
		}
		if t.Done || t.Blocked {
			return consumed, nil
		}
	}
	return consumed, nil
}

// buildHandler resolves the single-instruction handler for p.Code[i].
// known=false means the opcode has no handler and the entry traps
// TrapUnreachable, mirroring the switch default (the completeness test
// asserts known for every named opcode, so a new opcode can never hit
// the default in only one dispatcher).
func buildHandler(p *Program, i int) (h handlerFn, known bool) {
	in := &p.Code[i]
	switch in.Op {
	case OpJmp:
		tgt := p.IdxOf[in.Target]
		return func(m *Machine, t *Thread, _ *Instr) error {
			t.PC = tgt
			return nil
		}, true
	case OpBT:
		tgt := p.IdxOf[in.Target]
		return func(m *Machine, t *Thread, in *Instr) error {
			if t.Regs[in.Ra] != 0 {
				t.PC = tgt
				return nil
			}
			t.PC++
			t.stressed = false
			return nil
		}, true
	case OpBF:
		tgt := p.IdxOf[in.Target]
		return func(m *Machine, t *Thread, in *Instr) error {
			if t.Regs[in.Ra] == 0 {
				t.PC = tgt
				return nil
			}
			t.PC++
			t.stressed = false
			return nil
		}, true
	case OpCall:
		tgt := p.IdxOf[in.Target]
		if i+1 >= len(p.PCOf) {
			// Call as the final instruction (hand-assembled programs):
			// defer to the runtime lookup, which fails exactly like the
			// switch would.
			return func(m *Machine, t *Thread, _ *Instr) error {
				t.SP--
				if err := m.write(t.SP, int64(m.Prog.PCOf[t.PC+1])); err != nil {
					return err
				}
				t.PC = tgt
				t.stressed = false
				return nil
			}, true
		}
		retPC := int64(p.PCOf[i+1])
		return func(m *Machine, t *Thread, _ *Instr) error {
			t.SP--
			if err := m.write(t.SP, retPC); err != nil {
				return err
			}
			t.PC = tgt
			t.stressed = false
			return nil
		}, true
	case OpNewRec:
		if in.Desc >= 0 && in.Desc < p.Descs.Len() &&
			p.Descs.Get(in.Desc).Kind != types.DescOpenArray {
			size := 1 + p.Descs.Get(in.Desc).DataWords
			hdr := int64(in.Desc)
			return func(m *Machine, t *Thread, in *Instr) error {
				if h := m.fastHeap; h != nil {
					if addr, ok := h.BumpRec(hdr, size); ok {
						if m.AllocMark != nil {
							m.AllocMark(addr)
						}
						t.Regs[in.Rd] = addr
						t.PC++
						t.allocRetried = false
						t.allocSynced = false
						return nil
					}
				}
				return m.allocate(t, in.Rd, in.Desc, 0)
			}, true
		}
		return hNewRecSlow, true
	case OpNewArr:
		if in.Desc >= 0 && in.Desc < p.Descs.Len() &&
			p.Descs.Get(in.Desc).Kind == types.DescOpenArray {
			elemWords := p.Descs.Get(in.Desc).ElemWords
			hdr := int64(in.Desc)
			return func(m *Machine, t *Thread, in *Instr) error {
				n := t.Regs[in.Ra]
				if n < 0 {
					return m.trap(TrapRangeError, fmt.Sprintf("array length %d", n))
				}
				if h := m.fastHeap; h != nil {
					if addr, ok := h.BumpArr(hdr, n, elemWords); ok {
						if m.AllocMark != nil {
							m.AllocMark(addr)
						}
						t.Regs[in.Rd] = addr
						t.PC++
						t.allocRetried = false
						t.allocSynced = false
						return nil
					}
				}
				return m.allocate(t, in.Rd, in.Desc, n)
			}, true
		}
		return hNewArrSlow, true
	}
	if in.Op < numOps {
		if h := opHandlers[in.Op]; h != nil {
			return h, true
		}
	}
	return hUnreachable, false
}

// buildFused combines the handlers of p.Code[i] and p.Code[i+1] into
// one superinstruction. The hottest measured pairs get monomorphic
// bodies (one closure call instead of three); every other pair
// composes the two single handlers (the first leaves PC at i+1,
// exactly where the second expects it).
//
// A monomorphic body must reproduce the switch interpreter's state at
// every trap site: the first half traps with PC still at i (and gives
// back the pre-charged second step), the boundary between halves sets
// PC=i+1 and clears stressed, the second half traps with PC=i+1, and
// success lands at PC=i+2 with stressed clear.
func buildFused(p *Program, i int, h1, h2 handlerFn) handlerFn {
	in1, in2 := &p.Code[i], &p.Code[i+1]
	if (in2.Op == OpBT || in2.Op == OpBF) && in2.Ra == in1.Rd {
		if cmp := cmpFn(in1.Op); cmp != nil {
			tgt := p.IdxOf[in2.Target]
			branchOn := in2.Op == OpBT
			rd, ra, rb := in1.Rd, in1.Ra, in1.Rb
			return func(m *Machine, t *Thread, _ *Instr) error {
				c := cmp(t.Regs[ra], t.Regs[rb])
				t.Regs[rd] = b2i(c)
				t.stressed = false
				if c == branchOn {
					t.PC = tgt
					return nil
				}
				t.PC += 2
				return nil
			}
		}
	}
	if f := buildFusedPair(in1, in2, i+1, i+2); f != nil {
		return f
	}
	return func(m *Machine, t *Thread, in *Instr) error {
		if err := h1(m, t, in); err != nil {
			// The second instruction never ran: the caller charged the
			// pair to Steps up front, so give one back to keep the trap-
			// time step count identical to the switch interpreter.
			m.Steps--
			return err
		}
		return h2(m, t, in2)
	}
}

// buildFusedPair returns a monomorphic body for the hot memory/ALU
// pairs of the bigram profile, or nil to fall back to composition.
// mid and next are the instruction indices of the second half and the
// fall-through successor.
func buildFusedPair(in1, in2 *Instr, mid, next int) handlerFn {
	switch in1.Op {
	case OpLd:
		b1, o1, rd1 := in1.Base, in1.Imm, in1.Rd
		switch in2.Op {
		case OpLd:
			b2, o2, rd2 := in2.Base, in2.Imm, in2.Rd
			return func(m *Machine, t *Thread, _ *Instr) error {
				v, err := m.read(baseOf(t, b1) + o1)
				if err != nil {
					m.Steps--
					return err
				}
				t.Regs[rd1] = v
				t.PC = mid
				t.stressed = false
				w, err := m.read(baseOf(t, b2) + o2)
				if err != nil {
					return err
				}
				t.Regs[rd2] = w
				t.PC = next
				return nil
			}
		case OpSt:
			b2, o2, ra2 := in2.Base, in2.Imm, in2.Ra
			return func(m *Machine, t *Thread, _ *Instr) error {
				v, err := m.read(baseOf(t, b1) + o1)
				if err != nil {
					m.Steps--
					return err
				}
				t.Regs[rd1] = v
				t.PC = mid
				t.stressed = false
				if err := m.write(baseOf(t, b2)+o2, t.Regs[ra2]); err != nil {
					return err
				}
				t.PC = next
				return nil
			}
		case OpMovI:
			rd2, imm2 := in2.Rd, in2.Imm
			return func(m *Machine, t *Thread, _ *Instr) error {
				v, err := m.read(baseOf(t, b1) + o1)
				if err != nil {
					m.Steps--
					return err
				}
				t.Regs[rd1] = v
				t.Regs[rd2] = imm2
				t.PC = next
				t.stressed = false
				return nil
			}
		case OpAddI:
			rd2, ra2, imm2 := in2.Rd, in2.Ra, in2.Imm
			return func(m *Machine, t *Thread, _ *Instr) error {
				v, err := m.read(baseOf(t, b1) + o1)
				if err != nil {
					m.Steps--
					return err
				}
				t.Regs[rd1] = v
				t.Regs[rd2] = t.Regs[ra2] + imm2
				t.PC = next
				t.stressed = false
				return nil
			}
		case OpChkNil:
			ra2 := in2.Ra
			return func(m *Machine, t *Thread, _ *Instr) error {
				v, err := m.read(baseOf(t, b1) + o1)
				if err != nil {
					m.Steps--
					return err
				}
				t.Regs[rd1] = v
				t.PC = mid
				t.stressed = false
				if t.Regs[ra2] == 0 {
					return m.trap(TrapNilDeref, "")
				}
				t.PC = next
				return nil
			}
		case OpStB:
			b2, o2, ra2 := in2.Base, in2.Imm, in2.Ra
			return func(m *Machine, t *Thread, _ *Instr) error {
				v, err := m.read(baseOf(t, b1) + o1)
				if err != nil {
					m.Steps--
					return err
				}
				t.Regs[rd1] = v
				t.PC = mid
				t.stressed = false
				if err := m.storeBarriered(baseOf(t, b2)+o2, t.Regs[ra2]); err != nil {
					return err
				}
				t.PC = next
				return nil
			}
		}
	case OpSt:
		b1, o1, ra1 := in1.Base, in1.Imm, in1.Ra
		switch in2.Op {
		case OpSt:
			b2, o2, ra2 := in2.Base, in2.Imm, in2.Ra
			return func(m *Machine, t *Thread, _ *Instr) error {
				if err := m.write(baseOf(t, b1)+o1, t.Regs[ra1]); err != nil {
					m.Steps--
					return err
				}
				t.PC = mid
				t.stressed = false
				if err := m.write(baseOf(t, b2)+o2, t.Regs[ra2]); err != nil {
					return err
				}
				t.PC = next
				return nil
			}
		case OpLd:
			b2, o2, rd2 := in2.Base, in2.Imm, in2.Rd
			return func(m *Machine, t *Thread, _ *Instr) error {
				if err := m.write(baseOf(t, b1)+o1, t.Regs[ra1]); err != nil {
					m.Steps--
					return err
				}
				t.PC = mid
				t.stressed = false
				v, err := m.read(baseOf(t, b2) + o2)
				if err != nil {
					return err
				}
				t.Regs[rd2] = v
				t.PC = next
				return nil
			}
		case OpMovI:
			rd2, imm2 := in2.Rd, in2.Imm
			return func(m *Machine, t *Thread, _ *Instr) error {
				if err := m.write(baseOf(t, b1)+o1, t.Regs[ra1]); err != nil {
					m.Steps--
					return err
				}
				t.Regs[rd2] = imm2
				t.PC = next
				t.stressed = false
				return nil
			}
		}
	case OpMovI:
		rd1, imm1 := in1.Rd, in1.Imm
		if cmp := cmpFn(in2.Op); cmp != nil {
			rd2, ra2, rb2 := in2.Rd, in2.Ra, in2.Rb
			return func(m *Machine, t *Thread, _ *Instr) error {
				t.Regs[rd1] = imm1
				t.Regs[rd2] = b2i(cmp(t.Regs[ra2], t.Regs[rb2]))
				t.PC = next
				t.stressed = false
				return nil
			}
		}
		if in2.Op == OpSt {
			b2, o2, ra2 := in2.Base, in2.Imm, in2.Ra
			return func(m *Machine, t *Thread, _ *Instr) error {
				t.Regs[rd1] = imm1
				t.PC = mid
				t.stressed = false
				if err := m.write(baseOf(t, b2)+o2, t.Regs[ra2]); err != nil {
					return err
				}
				t.PC = next
				return nil
			}
		}
		if in2.Op == OpStB {
			b2, o2, ra2 := in2.Base, in2.Imm, in2.Ra
			return func(m *Machine, t *Thread, _ *Instr) error {
				t.Regs[rd1] = imm1
				t.PC = mid
				t.stressed = false
				if err := m.storeBarriered(baseOf(t, b2)+o2, t.Regs[ra2]); err != nil {
					return err
				}
				t.PC = next
				return nil
			}
		}
	case OpAddI:
		rd1, ra1, imm1 := in1.Rd, in1.Ra, in1.Imm
		switch in2.Op {
		case OpLd:
			b2, o2, rd2 := in2.Base, in2.Imm, in2.Rd
			return func(m *Machine, t *Thread, _ *Instr) error {
				t.Regs[rd1] = t.Regs[ra1] + imm1
				t.PC = mid
				t.stressed = false
				v, err := m.read(baseOf(t, b2) + o2)
				if err != nil {
					return err
				}
				t.Regs[rd2] = v
				t.PC = next
				return nil
			}
		case OpSt:
			b2, o2, ra2 := in2.Base, in2.Imm, in2.Ra
			return func(m *Machine, t *Thread, _ *Instr) error {
				t.Regs[rd1] = t.Regs[ra1] + imm1
				t.PC = mid
				t.stressed = false
				if err := m.write(baseOf(t, b2)+o2, t.Regs[ra2]); err != nil {
					return err
				}
				t.PC = next
				return nil
			}
		case OpAddI:
			rd2, ra2, imm2 := in2.Rd, in2.Ra, in2.Imm
			return func(m *Machine, t *Thread, _ *Instr) error {
				t.Regs[rd1] = t.Regs[ra1] + imm1
				t.Regs[rd2] = t.Regs[ra2] + imm2
				t.PC = next
				t.stressed = false
				return nil
			}
		case OpStB:
			b2, o2, ra2 := in2.Base, in2.Imm, in2.Ra
			return func(m *Machine, t *Thread, _ *Instr) error {
				t.Regs[rd1] = t.Regs[ra1] + imm1
				t.PC = mid
				t.stressed = false
				if err := m.storeBarriered(baseOf(t, b2)+o2, t.Regs[ra2]); err != nil {
					return err
				}
				t.PC = next
				return nil
			}
		}
	case OpStB:
		b1, o1, ra1 := in1.Base, in1.Imm, in1.Ra
		switch in2.Op {
		case OpStB:
			b2, o2, ra2 := in2.Base, in2.Imm, in2.Ra
			return func(m *Machine, t *Thread, _ *Instr) error {
				if err := m.storeBarriered(baseOf(t, b1)+o1, t.Regs[ra1]); err != nil {
					m.Steps--
					return err
				}
				t.PC = mid
				t.stressed = false
				if err := m.storeBarriered(baseOf(t, b2)+o2, t.Regs[ra2]); err != nil {
					return err
				}
				t.PC = next
				return nil
			}
		case OpLd:
			b2, o2, rd2 := in2.Base, in2.Imm, in2.Rd
			return func(m *Machine, t *Thread, _ *Instr) error {
				if err := m.storeBarriered(baseOf(t, b1)+o1, t.Regs[ra1]); err != nil {
					m.Steps--
					return err
				}
				t.PC = mid
				t.stressed = false
				v, err := m.read(baseOf(t, b2) + o2)
				if err != nil {
					return err
				}
				t.Regs[rd2] = v
				t.PC = next
				return nil
			}
		case OpMovI:
			rd2, imm2 := in2.Rd, in2.Imm
			return func(m *Machine, t *Thread, _ *Instr) error {
				if err := m.storeBarriered(baseOf(t, b1)+o1, t.Regs[ra1]); err != nil {
					m.Steps--
					return err
				}
				t.Regs[rd2] = imm2
				t.PC = next
				t.stressed = false
				return nil
			}
		}
	case OpMov:
		if in2.Op == OpMov {
			rd1, ra1 := in1.Rd, in1.Ra
			rd2, ra2 := in2.Rd, in2.Ra
			return func(m *Machine, t *Thread, _ *Instr) error {
				t.Regs[rd1] = t.Regs[ra1]
				t.Regs[rd2] = t.Regs[ra2]
				t.PC = next
				t.stressed = false
				return nil
			}
		}
	case OpChkNil:
		if in2.Op == OpLd {
			ra1 := in1.Ra
			b2, o2, rd2 := in2.Base, in2.Imm, in2.Rd
			return func(m *Machine, t *Thread, _ *Instr) error {
				if t.Regs[ra1] == 0 {
					m.Steps--
					return m.trap(TrapNilDeref, "")
				}
				t.PC = mid
				t.stressed = false
				v, err := m.read(baseOf(t, b2) + o2)
				if err != nil {
					return err
				}
				t.Regs[rd2] = v
				t.PC = next
				return nil
			}
		}
	}
	return nil
}

// cmpFn returns the comparison predicate for a compare opcode, or nil.
func cmpFn(op Op) func(a, b int64) bool {
	switch op {
	case OpCmpEQ:
		return func(a, b int64) bool { return a == b }
	case OpCmpNE:
		return func(a, b int64) bool { return a != b }
	case OpCmpLT:
		return func(a, b int64) bool { return a < b }
	case OpCmpLE:
		return func(a, b int64) bool { return a <= b }
	case OpCmpGT:
		return func(a, b int64) bool { return a > b }
	case OpCmpGE:
		return func(a, b int64) bool { return a >= b }
	}
	return nil
}

// baseOf resolves a memory-operand base (register, FP, or SP). The
// switch interpreter builds an equivalent closure every step; here it
// is a plain function call the compiler can inline.
func baseOf(t *Thread, b uint8) int64 {
	switch b {
	case BaseFP:
		return t.FP
	case BaseSP:
		return t.SP
	default:
		return t.Regs[b]
	}
}

// opHandlers maps each opcode without per-instruction precomputed
// state to its shared handler. Jmp/BT/BF/Call (resolved targets) and
// NewRec/NewArr (precomputed sizes) are built per instruction in
// buildHandler.
var opHandlers = [numOps]handlerFn{
	OpHalt: func(m *Machine, t *Thread, _ *Instr) error {
		t.Done = true
		return nil
	},
	OpMovI: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = in.Imm
		t.PC++
		t.stressed = false
		return nil
	},
	OpMov: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = t.Regs[in.Ra]
		t.PC++
		t.stressed = false
		return nil
	},
	OpAdd: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = t.Regs[in.Ra] + t.Regs[in.Rb]
		t.PC++
		t.stressed = false
		return nil
	},
	OpSub: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = t.Regs[in.Ra] - t.Regs[in.Rb]
		t.PC++
		t.stressed = false
		return nil
	},
	OpMul: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = t.Regs[in.Ra] * t.Regs[in.Rb]
		t.PC++
		t.stressed = false
		return nil
	},
	OpDiv: func(m *Machine, t *Thread, in *Instr) error {
		if t.Regs[in.Rb] == 0 {
			return m.trap(TrapDivByZero, "")
		}
		t.Regs[in.Rd] = floorDiv(t.Regs[in.Ra], t.Regs[in.Rb])
		t.PC++
		t.stressed = false
		return nil
	},
	OpMod: func(m *Machine, t *Thread, in *Instr) error {
		if t.Regs[in.Rb] == 0 {
			return m.trap(TrapDivByZero, "")
		}
		t.Regs[in.Rd] = t.Regs[in.Ra] - floorDiv(t.Regs[in.Ra], t.Regs[in.Rb])*t.Regs[in.Rb]
		t.PC++
		t.stressed = false
		return nil
	},
	OpAddI: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = t.Regs[in.Ra] + in.Imm
		t.PC++
		t.stressed = false
		return nil
	},
	OpNeg: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = -t.Regs[in.Ra]
		t.PC++
		t.stressed = false
		return nil
	},
	OpNot: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = 1 - t.Regs[in.Ra]
		t.PC++
		t.stressed = false
		return nil
	},
	OpAbs: func(m *Machine, t *Thread, in *Instr) error {
		v := t.Regs[in.Ra]
		if v < 0 {
			v = -v
		}
		t.Regs[in.Rd] = v
		t.PC++
		t.stressed = false
		return nil
	},
	OpMin: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = min(t.Regs[in.Ra], t.Regs[in.Rb])
		t.PC++
		t.stressed = false
		return nil
	},
	OpMax: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = max(t.Regs[in.Ra], t.Regs[in.Rb])
		t.PC++
		t.stressed = false
		return nil
	},
	OpCmpEQ: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = b2i(t.Regs[in.Ra] == t.Regs[in.Rb])
		t.PC++
		t.stressed = false
		return nil
	},
	OpCmpNE: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = b2i(t.Regs[in.Ra] != t.Regs[in.Rb])
		t.PC++
		t.stressed = false
		return nil
	},
	OpCmpLT: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = b2i(t.Regs[in.Ra] < t.Regs[in.Rb])
		t.PC++
		t.stressed = false
		return nil
	},
	OpCmpLE: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = b2i(t.Regs[in.Ra] <= t.Regs[in.Rb])
		t.PC++
		t.stressed = false
		return nil
	},
	OpCmpGT: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = b2i(t.Regs[in.Ra] > t.Regs[in.Rb])
		t.PC++
		t.stressed = false
		return nil
	},
	OpCmpGE: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = b2i(t.Regs[in.Ra] >= t.Regs[in.Rb])
		t.PC++
		t.stressed = false
		return nil
	},
	OpLd: func(m *Machine, t *Thread, in *Instr) error {
		v, err := m.read(baseOf(t, in.Base) + in.Imm)
		if err != nil {
			return err
		}
		t.Regs[in.Rd] = v
		t.PC++
		t.stressed = false
		return nil
	},
	OpSt: func(m *Machine, t *Thread, in *Instr) error {
		if err := m.write(baseOf(t, in.Base)+in.Imm, t.Regs[in.Ra]); err != nil {
			return err
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpStB: func(m *Machine, t *Thread, in *Instr) error {
		if err := m.storeBarriered(baseOf(t, in.Base)+in.Imm, t.Regs[in.Ra]); err != nil {
			return err
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpLea: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = baseOf(t, in.Base) + in.Imm
		t.PC++
		t.stressed = false
		return nil
	},
	OpLdG: func(m *Machine, t *Thread, in *Instr) error {
		v, err := m.read(m.GlobalBase + in.Imm)
		if err != nil {
			return err
		}
		t.Regs[in.Rd] = v
		t.PC++
		t.stressed = false
		return nil
	},
	OpStG: func(m *Machine, t *Thread, in *Instr) error {
		if err := m.write(m.GlobalBase+in.Imm, t.Regs[in.Ra]); err != nil {
			return err
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpLeaG: func(m *Machine, t *Thread, in *Instr) error {
		t.Regs[in.Rd] = m.GlobalBase + in.Imm
		t.PC++
		t.stressed = false
		return nil
	},
	OpEnter: func(m *Machine, t *Thread, in *Instr) error {
		t.SP--
		if err := m.write(t.SP, t.FP); err != nil {
			return err
		}
		t.FP = t.SP
		t.SP = t.FP - in.Imm
		if t.SP < t.StackLo {
			return m.trap(TrapStackOverflow, "")
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpRet: func(m *Machine, t *Thread, _ *Instr) error {
		ret, err := m.read(t.FP + 1)
		if err != nil {
			return err
		}
		oldFP, err := m.read(t.FP)
		if err != nil {
			return err
		}
		t.SP = t.FP + 2
		t.FP = oldFP
		idx := int32(-1)
		if ret >= 0 && ret < int64(len(m.retIdx)) {
			idx = m.retIdx[ret]
		}
		if idx < 0 {
			return m.trap(TrapBadAddress, fmt.Sprintf("return to pc %d", ret))
		}
		t.PC = int(idx)
		return nil
	},
	OpNewRec:  hNewRecSlow, // normally replaced per instruction in buildHandler
	OpNewArr:  hNewArrSlow,
	OpNewText: func(m *Machine, t *Thread, in *Instr) error { return m.allocateText(t, in.Rd, in.Desc) },
	OpGcPoll: func(m *Machine, t *Thread, _ *Instr) error {
		t.PC++
		t.stressed = false
		return nil
	},
	OpGcCollect: func(m *Machine, t *Thread, _ *Instr) error {
		if len(m.runnable()) > 1 {
			m.requestGC(t)
			t.resumeSkip = true
			return nil
		}
		m.Cur = t
		if err := m.collectNow(); err != nil {
			return err
		}
		m.GCCount++
		t.PC++
		t.stressed = false
		return nil
	},
	OpPutInt: func(m *Machine, t *Thread, in *Instr) error {
		var buf [20]byte
		m.Out.Write(strconv.AppendInt(buf[:0], t.Regs[in.Ra], 10))
		t.PC++
		t.stressed = false
		return nil
	},
	OpPutChar: func(m *Machine, t *Thread, in *Instr) error {
		b := byte(t.Regs[in.Ra])
		if b < utf8.RuneSelf {
			m.Out.Write([]byte{b})
		} else {
			fmt.Fprintf(m.Out, "%c", b) // multi-byte UTF-8, same as the switch
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpPutText: func(m *Machine, t *Thread, in *Instr) error {
		if err := m.putText(t.Regs[in.Ra]); err != nil {
			return err
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpPutLn: func(m *Machine, t *Thread, _ *Instr) error {
		m.Out.Write([]byte{'\n'})
		t.PC++
		t.stressed = false
		return nil
	},
	OpChkNil: func(m *Machine, t *Thread, in *Instr) error {
		if t.Regs[in.Ra] == 0 {
			return m.trap(TrapNilDeref, "")
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpChkRng: func(m *Machine, t *Thread, in *Instr) error {
		if v := t.Regs[in.Ra]; v < in.Imm || v > in.Imm2 {
			return m.trap(TrapRangeError, fmt.Sprintf("%d not in [%d..%d]", v, in.Imm, in.Imm2))
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpChkIdx: func(m *Machine, t *Thread, in *Instr) error {
		if v := t.Regs[in.Ra]; v < 0 || v >= t.Regs[in.Rb] {
			return m.trap(TrapIndexError, fmt.Sprintf("%d not in [0..%d)", v, t.Regs[in.Rb]))
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpTrap: func(m *Machine, t *Thread, in *Instr) error {
		return m.trap(TrapCode(in.Desc), "")
	},
	OpReuse: func(m *Machine, t *Thread, in *Instr) error {
		return m.reuseCell(t, in)
	},
}

// Slow-path NEW handlers used when the descriptor is out of table
// range at build time (hand-assembled test programs with custom
// allocators): identical to the switch cases.
func hNewRecSlow(m *Machine, t *Thread, in *Instr) error {
	return m.allocate(t, in.Rd, in.Desc, 0)
}

func hNewArrSlow(m *Machine, t *Thread, in *Instr) error {
	n := t.Regs[in.Ra]
	if n < 0 {
		return m.trap(TrapRangeError, fmt.Sprintf("array length %d", n))
	}
	return m.allocate(t, in.Rd, in.Desc, n)
}

// hUnreachable mirrors the switch default for unknown opcodes.
func hUnreachable(m *Machine, t *Thread, in *Instr) error {
	return m.trap(TrapUnreachable, in.Op.String())
}
