package vmachine

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"repro/internal/heap"
	"repro/internal/types"
)

// One op table, two dispatchers. ops gives every opcode its semantics
// as a function over machine state, and the reference interpreter
// (stepSwitch) calls ops[in.Op] once per step. The threaded dispatcher
// (stepSlice) runs a program through a DispatchTable built once per
// program from the same Code.
//
// Superblocks. The paper places gc-points only at calls, allocations
// and loop polls (§5.3), so a straight-line run of instructions with no
// gc-point and no control transfer is atomic with respect to
// collection: nothing moves under it, no thread parks inside it, and no
// stress collection is owed before any of its instructions. Each table
// entry records the length of the run that starts there, and stepSlice
// does the scheduler's per-step work (rendezvous park, stress
// collection, budget, telemetry) once per run instead of once per
// instruction. A branch into the middle of a run simply enters that
// suffix.
//
// Inside a run, the hot ops execute inline on their common path, with
// operands the table resolved at build time: branch, jump and call
// targets as instruction indices (the generic ops look them up in
// IdxOf), RET through a dense byte-PC → index array, and NEWREC/NEWARR
// sizes from the descriptor table, bumping the concrete semispace
// *heap.Heap directly. Everything else, and every inline op's uncommon
// path (a bad address, a failed nil check, a full heap), commits the
// state the reference interpreter would have at that position and calls
// the op table, so it stays the one definition of what an instruction
// does, traps included.

// handlerFn executes one instruction.
type handlerFn func(*Machine, *Thread, *Instr) error

// tentry is one slot of the dispatch table: the instruction, copied so
// the hot loop reads one array, and what the table resolved about it.
type tentry struct {
	Instr
	// n is the length of the superblock run starting here: this
	// instruction plus the ones after it that execute without a
	// scheduler check in between.
	n int32
	// arg is the operand resolved at build time: the instruction index a
	// JMP, BT, BF or CALL transfers to, the size in words of a NEWREC,
	// the element size of a NEWARR (-1 when the descriptor does not
	// resolve, which leaves the allocation to the op table).
	arg int32
	// ret is a CALL's return byte PC (-1 when the CALL is the program's
	// last instruction, which leaves it to the op table).
	ret int32
	// poll caches IsPollPoint: the instructions where a thread parks for
	// a rendezvous and stress mode collects first.
	poll bool
}

// runContinues reports whether op may sit inside a run, before its
// last instruction: it falls through to PC+1 on success (no jump, call,
// return, halt or trap) and is not a gc-point.
func runContinues(op Op) bool {
	switch op {
	case OpHalt, OpJmp, OpBT, OpBF, OpCall, OpRet,
		OpNewRec, OpNewArr, OpNewText, OpGcPoll, OpGcCollect, OpTrap:
		return false
	}
	return op < numOps
}

// runMayEnd reports whether op may be a run's last instruction: any
// opcode except a blocking gc-point, where a rendezvousing thread must
// be able to park before executing. OpCall is a gc-point but not a poll
// point, and stress mode never collects before it, so it may end a run.
func runMayEnd(op Op) bool {
	switch op {
	case OpNewRec, OpNewArr, OpNewText, OpGcPoll, OpGcCollect:
		return false
	}
	return op < numOps
}

// DispatchTable is one program's dispatch table. It holds only program
// constants, so it is immutable once built and every machine running
// the program shares it: build it once per program (driver.Compiled
// does), not once per machine.
type DispatchTable struct {
	prog    *Program
	entries []tentry
	// retIdx maps byte PCs to instruction indices for RET (-1 = not an
	// instruction start); RET traps on -1 exactly like the map miss.
	retIdx []int32
	// multi counts the entries whose run is longer than one instruction.
	multi int
}

// NewDispatchTable resolves p's operands and the superblock run starting
// at every instruction.
func NewDispatchTable(p *Program) *DispatchTable {
	tab := &DispatchTable{
		prog:    p,
		entries: make([]tentry, len(p.Code)),
		retIdx:  make([]int32, len(p.CodeBytes)+1),
	}
	for i := range tab.retIdx {
		tab.retIdx[i] = -1
	}
	for pc, idx := range p.IdxOf {
		if pc >= 0 && pc < len(tab.retIdx) {
			tab.retIdx[pc] = int32(idx)
		}
	}
	for i := len(p.Code) - 1; i >= 0; i-- {
		in := &p.Code[i]
		e := tentry{Instr: *in, n: 1, poll: in.IsPollPoint()}
		if i+1 < len(p.Code) && runContinues(in.Op) && runMayEnd(p.Code[i+1].Op) {
			e.n += tab.entries[i+1].n
			tab.multi++
		}
		switch in.Op {
		case OpJmp, OpBT, OpBF, OpCall:
			e.arg, e.ret = int32(p.IdxOf[in.Target]), -1
			if in.Op == OpCall && i+1 < len(p.PCOf) {
				e.ret = int32(p.PCOf[i+1])
			}
		case OpNewRec, OpNewArr:
			e.arg = -1
			if in.Desc >= 0 && in.Desc < p.Descs.Len() {
				d := p.Descs.Get(in.Desc)
				if in.Op == OpNewRec && d.Kind != types.DescOpenArray && d.DataWords < 1<<30 {
					e.arg = int32(1 + d.DataWords)
				} else if in.Op == OpNewArr && d.Kind == types.DescOpenArray && d.ElemWords < 1<<30 {
					e.arg = int32(d.ElemWords)
				}
			}
		}
		tab.entries[i] = e
	}
	return tab
}

// EnableThreadedDispatch switches the machine onto tab, which must have
// been built for the machine's program. Call after the allocator is
// attached: whether m.Alloc is the concrete semispace heap, which arms
// the allocation fast path, is the one thing decided per machine. The
// zero-value machine keeps the reference interpreter, so differential
// runs can compare both.
func (m *Machine) EnableThreadedDispatch(tab *DispatchTable) {
	if tab.prog != m.Prog {
		panic("vmachine: dispatch table built for another program")
	}
	m.fastHeap, _ = m.Alloc.(*heap.Heap)
	m.threaded, m.retIdx, m.Fused = tab.entries, tab.retIdx, tab.multi
}

// ThreadedDispatch reports whether the machine runs on the dispatch
// table (false = the reference interpreter).
func (m *Machine) ThreadedDispatch() bool { return m.threaded != nil }

// stepSlice executes up to budget instructions of thread t through the
// dispatch table, returning the number consumed. The scheduler computes
// budget so that the slice can never straddle a quantum, fuel, or
// step-limit boundary. Per run the loop does what the reference
// interpreter does per instruction — rendezvous parking, stress-mode
// collection, telemetry — which is exact because only a run's first
// instruction can be a gc-point. A run longer than the remaining budget
// executes its prefix; the next slice enters the suffix. Every exit
// (park, Done/Blocked, trap) matches the reference interpreter's state
// and accounting instruction for instruction. Inside a run, PC and the
// stressed flag are committed once, at the run's exit or before an op
// table call.
func (m *Machine) stepSlice(t *Thread, budget int64) (int64, error) {
	// The PC sampler must see every Steps value, so it single-steps; a
	// tracer alone keeps the runs and counts their opcodes afterwards.
	sampling := m.Tel != nil && m.pcSampleEvery > 0
	counting := m.Tel != nil && !sampling
	tab, retIdx := m.threaded, m.retIdx
	regs, mem := &t.Regs, m.Mem
	pc, consumed := t.PC, int64(0)
	for consumed < budget {
		e := &tab[pc]
		if e.poll {
			if m.GCRequested && t != m.Requester {
				// Parking charges one unit without executing, exactly
				// like the reference prologue.
				t.PC = pc
				m.park(t)
				return consumed + 1, nil
			}
			if m.StressGC && !t.stressed {
				t.PC, m.Cur = pc, t
				if err := m.collectNow(); err != nil {
					return consumed, err
				}
				m.GCCount++
				t.stressed = true
			}
		}
		n := min(int64(e.n), budget-consumed)
		if sampling {
			n = 1
		}
		m.Steps += n
		consumed += n
		if sampling {
			t.PC = pc
			m.observe(t, e.Op)
		}
		run := tab[pc : pc+int(n)]
		next, k, stop := pc+int(n), 0, false
	exec:
		for ; k < len(run); k++ {
			in := &run[k]
			switch in.Op {
			case OpMovI:
				regs[in.Rd] = in.Imm
				continue
			case OpMov:
				regs[in.Rd] = regs[in.Ra]
				continue
			case OpAdd:
				regs[in.Rd] = regs[in.Ra] + regs[in.Rb]
				continue
			case OpSub:
				regs[in.Rd] = regs[in.Ra] - regs[in.Rb]
				continue
			case OpAddI:
				regs[in.Rd] = regs[in.Ra] + in.Imm
				continue
			case OpCmpEQ:
				regs[in.Rd] = b2i(regs[in.Ra] == regs[in.Rb])
				continue
			case OpCmpNE:
				regs[in.Rd] = b2i(regs[in.Ra] != regs[in.Rb])
				continue
			case OpCmpLT:
				regs[in.Rd] = b2i(regs[in.Ra] < regs[in.Rb])
				continue
			case OpCmpLE:
				regs[in.Rd] = b2i(regs[in.Ra] <= regs[in.Rb])
				continue
			case OpCmpGT:
				regs[in.Rd] = b2i(regs[in.Ra] > regs[in.Rb])
				continue
			case OpCmpGE:
				regs[in.Rd] = b2i(regs[in.Ra] >= regs[in.Rb])
				continue
			case OpLd:
				if a := baseOf(t, in.Base) + in.Imm; a >= guardWords && a < int64(len(mem)) {
					regs[in.Rd] = mem[a]
					continue
				}
			case OpSt:
				if a := baseOf(t, in.Base) + in.Imm; a >= guardWords && a < int64(len(mem)) {
					mem[a] = regs[in.Ra]
					continue
				}
			case OpStB:
				if a := baseOf(t, in.Base) + in.Imm; a >= guardWords && a < int64(len(mem)) {
					m.storeBarriered(a, regs[in.Ra])
					continue
				}
			case OpLdG:
				if a := m.GlobalBase + in.Imm; a >= guardWords && a < int64(len(mem)) {
					regs[in.Rd] = mem[a]
					continue
				}
			case OpStG:
				if a := m.GlobalBase + in.Imm; a >= guardWords && a < int64(len(mem)) {
					mem[a] = regs[in.Ra]
					continue
				}
			case OpChkNil:
				if regs[in.Ra] != 0 {
					continue
				}
			case OpChkIdx:
				if v := regs[in.Ra]; v >= 0 && v < regs[in.Rb] {
					continue
				}
			case OpEnter:
				if sp := t.SP - 1; sp >= guardWords && sp < int64(len(mem)) && sp-in.Imm >= t.StackLo {
					mem[sp] = t.FP
					t.FP, t.SP = sp, sp-in.Imm
					continue
				}
			case OpJmp:
				next = int(in.arg)
				break exec
			case OpBT:
				if regs[in.Ra] != 0 {
					next = int(in.arg)
				} else {
					next = pc + k + 1
					t.stressed = false
				}
				break exec
			case OpBF:
				if regs[in.Ra] == 0 {
					next = int(in.arg)
				} else {
					next = pc + k + 1
					t.stressed = false
				}
				break exec
			case OpCall:
				if sp := t.SP - 1; sp >= guardWords && sp < int64(len(mem)) && in.ret >= 0 {
					mem[sp] = int64(in.ret)
					t.SP, next = sp, int(in.arg)
					t.stressed = false
					break exec
				}
			case OpRet:
				if fp := t.FP; fp >= guardWords && fp+1 < int64(len(mem)) {
					if ret := mem[fp+1]; ret >= 0 && ret < int64(len(retIdx)) && retIdx[ret] >= 0 {
						t.SP, t.FP, next = fp+2, mem[fp], int(retIdx[ret])
						break exec
					}
				}
			case OpNewRec:
				if h := m.fastHeap; h != nil && in.arg >= 0 {
					if addr, ok := h.BumpRec(int64(in.Desc), int64(in.arg)); ok {
						m.bumped(t, in.Rd, addr)
						next = pc + k + 1
						break exec
					}
				}
			case OpNewArr:
				if h := m.fastHeap; h != nil && in.arg >= 0 {
					if addr, ok := h.BumpArr(int64(in.Desc), regs[in.Ra], int64(in.arg)); ok {
						m.bumped(t, in.Rd, addr)
						next = pc + k + 1
						break exec
					}
				}
			}
			t.PC = pc + k
			if k > 0 {
				t.stressed = false
			}
			if err := opFn(in.Op)(m, t, &in.Instr); err != nil {
				// The trapping instruction left PC on itself; give back
				// the steps charged for the rest of the run.
				left := int64(len(run) - 1 - k)
				m.Steps -= left
				if counting {
					m.countOps(t, run[:k+1])
				}
				return consumed - left, err
			}
			if k == len(run)-1 {
				// The op set PC (a transfer, or PC+1), and may have ended
				// or parked the thread.
				next, stop = t.PC, t.Done || t.Blocked
				break
			}
		}
		if k > 0 {
			// The fall-throughs before the run's exit cleared the flag.
			t.stressed = false
		}
		pc = next
		if counting {
			m.countOps(t, run)
		}
		if stop {
			break
		}
	}
	t.PC = pc
	return consumed, nil
}

// countOps adds an executed run's opcodes to the telemetry profile.
func (m *Machine) countOps(t *Thread, run []tentry) {
	for k := range run {
		m.opCounts[run[k].Op]++
	}
	t.prevOp = run[len(run)-1].Op
}

// bumped completes a fast-path allocation the way allocCommon completes
// a successful TryAlloc, except for advancing PC.
func (m *Machine) bumped(t *Thread, rd uint8, addr int64) {
	if m.AllocMark != nil {
		m.AllocMark(addr)
	}
	t.Regs[rd] = addr
	t.allocRetried = false
	t.allocSynced = false
}

// baseOf resolves a memory-operand base (register, FP, or SP).
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

// opFn returns op's entry in the op table; an opcode beyond the table
// (a corrupted code stream) traps TrapUnreachable.
func opFn(op Op) handlerFn {
	if op < numOps {
		return ops[op]
	}
	return hUnreachable
}

// ops is the single definition of the instruction set: every opcode's
// effect on machine and thread state, including PC advancement, the
// stress-mode `stressed` flag, and trap ordering.
var ops = [numOps]handlerFn{
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
	// Control transfers resolve their targets through IdxOf here; the
	// dispatch table resolves them once at build time. A taken transfer
	// leaves `stressed` alone, except CALL.
	OpJmp: func(m *Machine, t *Thread, in *Instr) error {
		t.PC = m.Prog.IdxOf[in.Target]
		return nil
	},
	OpBT: func(m *Machine, t *Thread, in *Instr) error {
		if t.Regs[in.Ra] != 0 {
			t.PC = m.Prog.IdxOf[in.Target]
			return nil
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpBF: func(m *Machine, t *Thread, in *Instr) error {
		if t.Regs[in.Ra] == 0 {
			t.PC = m.Prog.IdxOf[in.Target]
			return nil
		}
		t.PC++
		t.stressed = false
		return nil
	},
	OpCall: func(m *Machine, t *Thread, in *Instr) error {
		t.SP--
		if err := m.write(t.SP, int64(m.Prog.PCOf[t.PC+1])); err != nil {
			return err
		}
		t.PC = m.Prog.IdxOf[in.Target]
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
		idx, ok := m.Prog.IdxOf[int(ret)]
		if !ok {
			return m.trap(TrapBadAddress, fmt.Sprintf("return to pc %d", ret))
		}
		t.PC = idx
		return nil
	},
	OpNewRec: func(m *Machine, t *Thread, in *Instr) error {
		return m.allocate(t, in.Rd, in.Desc, 0)
	},
	OpNewArr: func(m *Machine, t *Thread, in *Instr) error {
		n := t.Regs[in.Ra]
		if n < 0 {
			return m.trap(TrapRangeError, fmt.Sprintf("array length %d", n))
		}
		return m.allocate(t, in.Rd, in.Desc, n)
	},
	OpNewText: func(m *Machine, t *Thread, in *Instr) error {
		return m.allocateText(t, in.Rd, in.Desc)
	},
	OpGcPoll: func(m *Machine, t *Thread, _ *Instr) error {
		// Nothing to do outside a rendezvous (the prologue parks).
		t.PC++
		t.stressed = false
		return nil
	},
	OpGcCollect: func(m *Machine, t *Thread, _ *Instr) error {
		if m.othersRunnable(t) {
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
			fmt.Fprintf(m.Out, "%c", b) // the byte as a code point, UTF-8 encoded
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

// hUnreachable is the handler of an opcode beyond the op table.
func hUnreachable(m *Machine, t *Thread, in *Instr) error {
	return m.trap(TrapUnreachable, in.Op.String())
}
