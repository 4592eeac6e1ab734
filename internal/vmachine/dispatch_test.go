package vmachine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// runBodyDispatch is runBody with the dispatcher selectable: the same
// hand-written program runs under the switch interpreter or the
// threaded table, so tests can compare the two directly.
func runBodyDispatch(t *testing.T, body []Instr, frameWords int64, threaded bool, quantum int64) (*Machine, string, error) {
	t.Helper()
	prog := buildProgram(t, body, frameWords, 8)
	var sb strings.Builder
	cfg := Config{HeapWords: 4096, StackWords: 1024, MaxThreads: 1, Out: &sb, Quantum: quantum}
	m := New(prog, cfg)
	m.Alloc = &fixedAlloc{next: m.HeapLo}
	m.Collector = nopCollector{}
	if threaded {
		m.EnableThreadedDispatch(NewDispatchTable(m.Prog))
	}
	if _, err := m.Spawn(0); err != nil {
		t.Fatal(err)
	}
	err := m.Run(1_000_000)
	return m, sb.String(), err
}

// TestDispatchTableComplete asserts every named opcode has an op-table
// entry — the one definition both dispatchers execute — so a new opcode
// can never be missing from either.
func TestDispatchTableComplete(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if ops[op] == nil {
			t.Errorf("op %s has no op-table entry", op)
		}
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("op %d has a handler but no name", op)
		}
	}
}

// TestDispatchUnknownOpTrapsBoth runs a rogue opcode beyond numOps
// through both dispatchers: each must raise TrapUnreachable rather
// than panic on a table miss.
func TestDispatchUnknownOpTrapsBoth(t *testing.T) {
	for _, threaded := range []bool{false, true} {
		// The encoder refuses rogue opcodes, so build with a placeholder
		// and patch the decoded form (a corrupted code stream looks the
		// same to the dispatchers).
		prog := buildProgram(t, []Instr{{Op: OpGcPoll}, {Op: OpRet}}, 0, 8)
		prog.Code[2].Op = numOps + 7
		m := New(prog, Config{HeapWords: 1024, StackWords: 256, MaxThreads: 1})
		m.Alloc = &fixedAlloc{next: m.HeapLo}
		m.Collector = nopCollector{}
		if threaded {
			m.EnableThreadedDispatch(NewDispatchTable(m.Prog))
		}
		if _, err := m.Spawn(0); err != nil {
			t.Fatal(err)
		}
		err := m.Run(1000)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != TrapUnreachable {
			t.Errorf("threaded=%v: got %v, want TrapUnreachable", threaded, err)
		}
	}
}

// lockstepBody is a loop whose body is one superblock run (ld/st
// traffic, immediates, a compare ending in the back branch) plus output.
func lockstepBody() []Instr {
	return []Instr{
		{Op: OpMovI, Rd: 3, Imm: 0},  // i := 0
		{Op: OpMovI, Rd: 4, Imm: 10}, // n := 10
		// loop: acc in FP-1
		{Op: OpLd, Rd: 5, Base: BaseFP, Imm: -1}, // body idx 2 => code idx 4
		{Op: OpAdd, Rd: 5, Ra: 5, Rb: 3},
		{Op: OpSt, Base: BaseFP, Imm: -1, Ra: 5},
		{Op: OpAddI, Rd: 3, Ra: 3, Imm: 1},
		{Op: OpCmpLT, Rd: 6, Ra: 3, Rb: 4},
		{Op: OpBT, Ra: 6, Target: 4}, // back to the Ld
		{Op: OpLd, Rd: 7, Base: BaseFP, Imm: -1},
		{Op: OpPutInt, Ra: 7},
		{Op: OpRet},
	}
}

// TestDispatchLockstep runs the same program under both dispatchers
// and requires identical output and step counts — across quanta 1 to
// 13, which split the loop's runs at every offset at slice boundaries.
func TestDispatchLockstep(t *testing.T) {
	quanta := []int64{1000}
	for q := int64(1); q <= 13; q++ {
		quanta = append(quanta, q)
	}
	for _, quantum := range quanta {
		t.Run(fmt.Sprintf("quantum=%d", quantum), func(t *testing.T) {
			mSw, outSw, errSw := runBodyDispatch(t, lockstepBody(), 2, false, quantum)
			mTh, outTh, errTh := runBodyDispatch(t, lockstepBody(), 2, true, quantum)
			if errSw != nil || errTh != nil {
				t.Fatalf("errs: switch=%v threaded=%v", errSw, errTh)
			}
			if outSw != outTh {
				t.Errorf("output %q vs %q", outSw, outTh)
			}
			if mSw.Steps != mTh.Steps {
				t.Errorf("steps %d vs %d", mSw.Steps, mTh.Steps)
			}
			if outSw != "45" {
				t.Errorf("reference output %q, want 45", outSw)
			}
			if mTh.Fused == 0 {
				t.Error("threaded table has no multi-instruction run")
			}
		})
	}
}

// TestDispatchBadReturnTrapsBoth corrupts the saved return address on
// the stack: RET must trap TrapBadAddress through the dense retIdx
// table exactly as the switch does through the IdxOf map miss.
func TestDispatchBadReturnTrapsBoth(t *testing.T) {
	body := []Instr{
		{Op: OpMovI, Rd: 3, Imm: 9999},          // not an instruction-start byte PC
		{Op: OpSt, Base: BaseFP, Imm: 1, Ra: 3}, // clobber the saved return PC
		{Op: OpRet},
	}
	for _, threaded := range []bool{false, true} {
		_, _, err := runBodyDispatch(t, body, 0, threaded, 1000)
		var re *RuntimeError
		if !errors.As(err, &re) || re.Code != TrapBadAddress {
			t.Errorf("threaded=%v: got %v, want TrapBadAddress", threaded, err)
		}
	}
}

// fusedPairCases enumerates two-instruction shapes (the opcode bigrams
// hottest in the benchmark kernels) with success and trap variants for
// each trap site. The seed stores known values in two frame slots and
// ends with a GcPoll, which ends a run, so the pair under test always
// starts one.
func fusedPairCases() map[string][]Instr {
	seed := []Instr{
		{Op: OpMovI, Rd: 3, Imm: 7},
		{Op: OpSt, Base: BaseFP, Imm: -1, Ra: 3},
		{Op: OpMovI, Rd: 3, Imm: 9},
		{Op: OpSt, Base: BaseFP, Imm: -2, Ra: 3},
		{Op: OpGcPoll},
	}
	withPair := func(pair ...Instr) []Instr {
		body := append(append([]Instr{}, seed...), pair...)
		return append(body,
			Instr{Op: OpPutInt, Ra: 5},
			Instr{Op: OpPutInt, Ra: 6},
			Instr{Op: OpRet},
		)
	}
	const bad = int64(-100000) // below the guard words in every base
	return map[string][]Instr{
		"ld_ld":           withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: -1}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: -2}),
		"ld_ld_trap1":     withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: bad}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: -2}),
		"ld_ld_trap2":     withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: -1}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: bad}),
		"ld_st":           withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: -1}, Instr{Op: OpSt, Base: BaseFP, Imm: -3, Ra: 5}),
		"ld_st_trap1":     withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: bad}, Instr{Op: OpSt, Base: BaseFP, Imm: -3, Ra: 5}),
		"ld_st_trap2":     withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: -1}, Instr{Op: OpSt, Base: BaseFP, Imm: bad, Ra: 5}),
		"st_st":           withPair(Instr{Op: OpSt, Base: BaseFP, Imm: -3, Ra: 3}, Instr{Op: OpSt, Base: BaseFP, Imm: -4, Ra: 3}),
		"st_st_trap1":     withPair(Instr{Op: OpSt, Base: BaseFP, Imm: bad, Ra: 3}, Instr{Op: OpSt, Base: BaseFP, Imm: -4, Ra: 3}),
		"st_st_trap2":     withPair(Instr{Op: OpSt, Base: BaseFP, Imm: -3, Ra: 3}, Instr{Op: OpSt, Base: BaseFP, Imm: bad, Ra: 3}),
		"st_ld":           withPair(Instr{Op: OpSt, Base: BaseFP, Imm: -3, Ra: 3}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: -3}),
		"st_ld_trap1":     withPair(Instr{Op: OpSt, Base: BaseFP, Imm: bad, Ra: 3}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: -3}),
		"st_ld_trap2":     withPair(Instr{Op: OpSt, Base: BaseFP, Imm: -3, Ra: 3}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: bad}),
		"ld_movi":         withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: -1}, Instr{Op: OpMovI, Rd: 6, Imm: 3}),
		"ld_movi_trap1":   withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: bad}, Instr{Op: OpMovI, Rd: 6, Imm: 3}),
		"movi_st":         withPair(Instr{Op: OpMovI, Rd: 5, Imm: 11}, Instr{Op: OpSt, Base: BaseFP, Imm: -3, Ra: 5}),
		"movi_st_trap2":   withPair(Instr{Op: OpMovI, Rd: 5, Imm: 11}, Instr{Op: OpSt, Base: BaseFP, Imm: bad, Ra: 5}),
		"st_movi":         withPair(Instr{Op: OpSt, Base: BaseFP, Imm: -3, Ra: 3}, Instr{Op: OpMovI, Rd: 5, Imm: 13}),
		"st_movi_trap1":   withPair(Instr{Op: OpSt, Base: BaseFP, Imm: bad, Ra: 3}, Instr{Op: OpMovI, Rd: 5, Imm: 13}),
		"ld_addi":         withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: -1}, Instr{Op: OpAddI, Rd: 6, Ra: 5, Imm: 1}),
		"ld_addi_trap1":   withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: bad}, Instr{Op: OpAddI, Rd: 6, Ra: 5, Imm: 1}),
		"addi_ld":         withPair(Instr{Op: OpAddI, Rd: 5, Ra: 3, Imm: 1}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: -1}),
		"addi_ld_trap2":   withPair(Instr{Op: OpAddI, Rd: 5, Ra: 3, Imm: 1}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: bad}),
		"addi_st":         withPair(Instr{Op: OpAddI, Rd: 5, Ra: 3, Imm: 1}, Instr{Op: OpSt, Base: BaseFP, Imm: -3, Ra: 5}),
		"addi_st_trap2":   withPair(Instr{Op: OpAddI, Rd: 5, Ra: 3, Imm: 1}, Instr{Op: OpSt, Base: BaseFP, Imm: bad, Ra: 5}),
		"addi_addi":       withPair(Instr{Op: OpAddI, Rd: 5, Ra: 3, Imm: 1}, Instr{Op: OpAddI, Rd: 6, Ra: 5, Imm: 2}),
		"mov_mov":         withPair(Instr{Op: OpMov, Rd: 5, Ra: 3}, Instr{Op: OpMov, Rd: 6, Ra: 5}),
		"movi_cmp":        withPair(Instr{Op: OpMovI, Rd: 5, Imm: 9}, Instr{Op: OpCmpEQ, Rd: 6, Ra: 5, Rb: 3}),
		"chknil_ld":       withPair(Instr{Op: OpChkNil, Ra: 3}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: -1}),
		"chknil_ld_trap1": withPair(Instr{Op: OpChkNil, Ra: 4}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: -1}),
		"chknil_ld_trap2": withPair(Instr{Op: OpChkNil, Ra: 3}, Instr{Op: OpLd, Rd: 6, Base: BaseFP, Imm: bad}),
		"ld_chknil":       withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: -1}, Instr{Op: OpChkNil, Ra: 5}),
		"ld_chknil_trap1": withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: bad}, Instr{Op: OpChkNil, Ra: 5}),
		"ld_chknil_trap2": withPair(Instr{Op: OpLd, Rd: 5, Base: BaseFP, Imm: -3}, Instr{Op: OpChkNil, Ra: 5}),
	}
}

// TestDispatchFusedPairParity runs every pair shape — success path,
// first-half trap, second-half trap — under both dispatchers and
// requires identical output, step counts, and errors. The trap message
// embeds the trap-time byte PC, so a run that commits PC late (or
// refunds the wrong steps) fails on the message or step diff.
func TestDispatchFusedPairParity(t *testing.T) {
	for name, body := range fusedPairCases() {
		t.Run(name, func(t *testing.T) {
			mSw, outSw, errSw := runBodyDispatch(t, body, 4, false, 1000)
			mTh, outTh, errTh := runBodyDispatch(t, body, 4, true, 1000)
			switch {
			case (errSw == nil) != (errTh == nil):
				t.Fatalf("errors diverge: switch=%v threaded=%v", errSw, errTh)
			case errSw != nil && errSw.Error() != errTh.Error():
				t.Fatalf("error text diverges:\n  switch:   %v\n  threaded: %v", errSw, errTh)
			}
			if strings.Contains(name, "trap") == (errSw == nil) {
				t.Fatalf("case %s: err=%v, trap expectation violated", name, errSw)
			}
			if outSw != outTh {
				t.Errorf("output %q vs %q", outSw, outTh)
			}
			if mSw.Steps != mTh.Steps {
				t.Errorf("steps %d vs %d", mSw.Steps, mTh.Steps)
			}
			if mTh.Fused == 0 {
				t.Error("threaded table has no multi-instruction run")
			}
		})
	}
}

// stepsAtWrite is a machine's output that records the step count at
// every write. A step is charged before its instruction executes, so a
// PUTINT dispatched on its own sees the steps up to itself, and one
// inside a run dispatched whole also sees the rest of the run.
type stepsAtWrite struct {
	strings.Builder
	m    *Machine
	seen []int64
}

func (w *stepsAtWrite) Write(p []byte) (int, error) {
	w.seen = append(w.seen, w.m.Steps)
	return w.Builder.Write(p)
}

// runBodyTraced is runBodyDispatch with a tracer attached, sampling PCs
// every sample steps (0 = off). It also returns the step count at every
// write to the output.
func runBodyTraced(t *testing.T, body []Instr, frameWords int64, threaded bool, sample int64) (*Machine, string, []int64, error) {
	t.Helper()
	prog := buildProgram(t, body, frameWords, 8)
	out := &stepsAtWrite{}
	m := New(prog, Config{
		HeapWords: 4096, StackWords: 1024, MaxThreads: 1, Out: out, Quantum: 1000,
		Tel: telemetry.New(telemetry.Config{RingSize: 64}), PCSampleEvery: sample,
	})
	out.m = m
	m.Alloc = &fixedAlloc{next: m.HeapLo}
	m.Collector = nopCollector{}
	if threaded {
		m.EnableThreadedDispatch(NewDispatchTable(prog))
	}
	if _, err := m.Spawn(0); err != nil {
		t.Fatal(err)
	}
	err := m.Run(1_000_000)
	return m, out.String(), out.seen, err
}

// TestDispatchTracedKeepsFusions: traced runs keep their superblocks. With
// PC sampling off the threaded table executes whole runs and counts
// their opcodes afterwards: every case writes its output from inside a
// run, so the steps seen at the first write run ahead of the reference
// interpreter's. With sampling on it single-steps so the sampler sees
// every step, and the steps seen at every write equal the reference's.
// Either way the per-opcode counts, step count, output, memory image,
// samples and trap equal the reference interpreter's, including for a
// trap anywhere inside a run.
func TestDispatchTracedKeepsFusions(t *testing.T) {
	cases := fusedPairCases()
	cases["lockstep"] = lockstepBody()
	for name, body := range cases {
		for _, sample := range []int64{0, 1, 3} {
			t.Run(fmt.Sprintf("%s/sample=%d", name, sample), func(t *testing.T) {
				mSw, outSw, seenSw, errSw := runBodyTraced(t, body, 4, false, sample)
				mTh, outTh, seenTh, errTh := runBodyTraced(t, body, 4, true, sample)
				switch {
				case (errSw == nil) != (errTh == nil):
					t.Fatalf("errors diverge: switch=%v threaded=%v", errSw, errTh)
				case errSw != nil && errSw.Error() != errTh.Error():
					t.Fatalf("error text diverges:\n  switch:   %v\n  threaded: %v", errSw, errTh)
				}
				if sw, th := mSw.OpCounts(), mTh.OpCounts(); !reflect.DeepEqual(sw, th) {
					t.Errorf("op counts diverge:\n  switch:   %v\n  threaded: %v", sw, th)
				}
				if mSw.Steps != mTh.Steps || outSw != outTh {
					t.Errorf("switch (%q, %d steps), threaded (%q, %d steps)", outSw, mSw.Steps, outTh, mTh.Steps)
				}
				if !slices.Equal(mSw.Mem, mTh.Mem) {
					t.Error("memory images diverge")
				}
				if sw, th := mSw.Tel.HotPCs(0), mTh.Tel.HotPCs(0); !reflect.DeepEqual(sw, th) {
					t.Errorf("pc samples diverge:\n  switch:   %v\n  threaded: %v", sw, th)
				}
				if sw, th := mSw.Tel.HotPairs(0), mTh.Tel.HotPairs(0); !reflect.DeepEqual(sw, th) {
					t.Errorf("opcode-pair samples diverge:\n  switch:   %v\n  threaded: %v", sw, th)
				}
				switch {
				case len(seenSw) != len(seenTh):
					t.Errorf("%d writes, threaded %d", len(seenSw), len(seenTh))
				case sample == 0 && len(seenSw) > 0 && seenTh[0] <= seenSw[0]:
					t.Errorf("first write saw %d steps, reference %d: the traced run was not dispatched whole", seenTh[0], seenSw[0])
				case sample > 0 && !slices.Equal(seenSw, seenTh):
					t.Errorf("steps at writes %v, reference %v: the sampled run skipped steps", seenTh, seenSw)
				}
			})
		}
	}
}

// TestSharedDispatchTable: machines of one program share one table by
// pointer, and — each with its own memory, run concurrently in small
// fuel slices (under -race in CI) — produce what a machine with a table
// of its own produces.
func TestSharedDispatchTable(t *testing.T) {
	body := lockstepBody()
	body[5] = Instr{Op: OpGcPoll} // i is stepped below instead, so slices can yield inside the loop
	body = append(body[:6], append([]Instr{{Op: OpAddI, Rd: 3, Ra: 3, Imm: 1}}, body[6:]...)...)
	body[8].Target = 4
	prog := buildProgram(t, body, 2, 8)
	newMachine := func(tab *DispatchTable, out *strings.Builder) *Machine {
		m := New(prog, Config{HeapWords: 4096, StackWords: 1024, MaxThreads: 1, Out: out})
		m.Alloc = &fixedAlloc{next: m.HeapLo}
		m.Collector = nopCollector{}
		m.EnableThreadedDispatch(tab)
		if _, err := m.Spawn(0); err != nil {
			t.Fatal(err)
		}
		return m
	}
	var refOut strings.Builder
	ref := newMachine(NewDispatchTable(prog), &refOut)
	if err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	if refOut.String() != "45" || ref.Fused == 0 {
		t.Fatalf("reference run: output %q, %d multi-instruction runs", refOut.String(), ref.Fused)
	}

	shared := NewDispatchTable(prog)
	const machines = 4
	ms := make([]*Machine, machines)
	outs := make([]strings.Builder, machines)
	slicesRun := make([]int, machines)
	var wg sync.WaitGroup
	for i := range ms {
		ms[i] = newMachine(shared, &outs[i])
		if &ms[i].threaded[0] != &ms[0].threaded[0] || &ms[i].retIdx[0] != &ms[0].retIdx[0] {
			t.Fatalf("machine %d has a dispatch table of its own", i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; slicesRun[i]++ {
				var err error
				if done, err = ms[i].RunFuel(3); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, m := range ms {
		if outs[i].String() != refOut.String() || m.Steps != ref.Steps || !slices.Equal(m.Mem, ref.Mem) {
			t.Errorf("machine %d: (%q, %d steps), reference (%q, %d steps)",
				i, outs[i].String(), m.Steps, refOut.String(), ref.Steps)
		}
		if slicesRun[i] < 2 {
			t.Errorf("machine %d ran in %d slices: nothing interleaved", i, slicesRun[i])
		}
	}
}

// superblockRun generates a straight-line run of n fall-through
// instructions over scratch registers r5–r9 and frame slots FP-1..FP-4,
// with r3 = 7 and r4 = 0 preset, and replaces instruction fault (when
// in range) with one that traps: a bad-address load or store, a nil
// check of r4, or a division by r4.
func superblockRun(rng *rand.Rand, n, fault int, kind Op) []Instr {
	const bad = int64(-100000) // below the guard words from FP
	reg := func() uint8 { return uint8(5 + rng.Intn(5)) }
	slot := func() int64 { return -1 - int64(rng.Intn(4)) }
	run := make([]Instr, n)
	for i := range run {
		switch rng.Intn(9) {
		case 0:
			run[i] = Instr{Op: OpMovI, Rd: reg(), Imm: int64(rng.Intn(100))}
		case 1:
			run[i] = Instr{Op: OpMov, Rd: reg(), Ra: reg()}
		case 2:
			run[i] = Instr{Op: OpAddI, Rd: reg(), Ra: reg(), Imm: 3}
		case 3:
			run[i] = Instr{Op: OpSub, Rd: reg(), Ra: reg(), Rb: reg()}
		case 4:
			run[i] = Instr{Op: OpCmpLT, Rd: reg(), Ra: reg(), Rb: reg()}
		case 5:
			run[i] = Instr{Op: OpLd, Rd: reg(), Base: BaseFP, Imm: slot()}
		case 6:
			run[i] = Instr{Op: OpSt, Base: BaseFP, Imm: slot(), Ra: reg()}
		case 7:
			run[i] = Instr{Op: OpStB, Base: BaseFP, Imm: slot(), Ra: reg()}
		default:
			run[i] = Instr{Op: OpPutInt, Ra: reg()}
		}
	}
	if fault < n {
		switch kind {
		case OpLd:
			run[fault] = Instr{Op: OpLd, Rd: reg(), Base: BaseFP, Imm: bad}
		case OpSt, OpStB:
			run[fault] = Instr{Op: kind, Base: BaseFP, Imm: bad, Ra: reg()}
		case OpChkNil:
			run[fault] = Instr{Op: OpChkNil, Ra: 4}
		case OpDiv:
			run[fault] = Instr{Op: OpDiv, Rd: reg(), Ra: reg(), Rb: 4}
		}
	}
	return run
}

// TestSuperblockTrapParity generalises the pair cases to runs of 2–12
// instructions with a fault injected at every position: both
// dispatchers must agree on the error text (which embeds the byte PC of
// the trapping instruction), the step count, the output written before
// the trap, and the memory image — with the run whole and split by a
// small quantum.
func TestSuperblockTrapParity(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	prefix := []Instr{
		{Op: OpMovI, Rd: 3, Imm: 7},
		{Op: OpMovI, Rd: 4, Imm: 0},
		{Op: OpGcPoll}, // ends a run: the generated run starts the next
	}
	for n := 2; n <= 12; n++ {
		for _, kind := range []Op{OpLd, OpSt, OpStB, OpChkNil, OpDiv} {
			for fault := 0; fault <= n; fault++ { // fault == n: no fault
				body := append(append([]Instr{}, prefix...), superblockRun(rng, n, fault, kind)...)
				body = append(body, Instr{Op: OpRet})
				for _, quantum := range []int64{1000, 5} {
					mSw, outSw, errSw := runBodyDispatch(t, body, 4, false, quantum)
					mTh, outTh, errTh := runBodyDispatch(t, body, 4, true, quantum)
					name := fmt.Sprintf("n=%d %s@%d quantum=%d", n, kind, fault, quantum)
					if (errSw == nil) != (fault == n) {
						t.Fatalf("%s: reference err=%v", name, errSw)
					}
					if (errSw == nil) != (errTh == nil) || errSw != nil && errSw.Error() != errTh.Error() {
						t.Fatalf("%s: errors diverge:\n  switch:   %v\n  threaded: %v", name, errSw, errTh)
					}
					if mSw.Steps != mTh.Steps || outSw != outTh {
						t.Fatalf("%s: switch (%q, %d steps), threaded (%q, %d steps)", name, outSw, mSw.Steps, outTh, mTh.Steps)
					}
					if !slices.Equal(mSw.Mem, mTh.Mem) {
						t.Fatalf("%s: memory images diverge", name)
					}
				}
			}
		}
	}
}

// TestDispatchStressParity: under stress mode a collection runs before
// every allocation and poll, unless the thread's stressed flag says it
// already ran for that instruction. Loops whose back edge is a taken
// BT or a JMP, each ending a run of fall-throughs, re-enter a NEWREC
// and a GCPOLL, so a dispatcher that left the flag set across the run
// would skip collections; both must collect exactly as often.
func TestDispatchStressParity(t *testing.T) {
	body := []Instr{
		{Op: OpMovI, Rd: 4, Imm: 0},
		{Op: OpNewRec, Rd: 3}, // code 3: loop A head
		{Op: OpAddI, Rd: 4, Ra: 4, Imm: 1},
		{Op: OpMovI, Rd: 5, Imm: 5},
		{Op: OpCmpLT, Rd: 6, Ra: 4, Rb: 5},
		{Op: OpBT, Ra: 6, Target: 3},
		{Op: OpMovI, Rd: 4, Imm: 0},
		{Op: OpGcPoll}, // code 9: loop B head
		{Op: OpAddI, Rd: 4, Ra: 4, Imm: 1},
		{Op: OpMovI, Rd: 5, Imm: 3},
		{Op: OpCmpGE, Rd: 6, Ra: 4, Rb: 5},
		{Op: OpBT, Ra: 6, Target: 15},
		{Op: OpJmp, Target: 9},
		{Op: OpPutInt, Ra: 4}, // code 15
		{Op: OpRet},
	}
	for _, quantum := range []int64{1000, 2} {
		var got [2]*Machine
		var outs [2]string
		for i, threaded := range []bool{false, true} {
			prog := buildProgram(t, body, 0, 8)
			var sb strings.Builder
			m := New(prog, Config{HeapWords: 4096, StackWords: 1024, MaxThreads: 1, Out: &sb, Quantum: quantum, StressGC: true})
			m.Alloc = &fixedAlloc{next: m.HeapLo}
			m.Collector = nopCollector{}
			if threaded {
				m.EnableThreadedDispatch(NewDispatchTable(prog))
			}
			if _, err := m.Spawn(0); err != nil {
				t.Fatal(err)
			}
			if err := m.Run(10_000); err != nil {
				t.Fatalf("threaded=%v: %v", threaded, err)
			}
			got[i], outs[i] = m, sb.String()
		}
		sw, th := got[0], got[1]
		if outs[0] != "3" || sw.GCCount != 5+3 {
			t.Fatalf("reference run: output %q, %d collections", outs[0], sw.GCCount)
		}
		if th.GCCount != sw.GCCount || th.Steps != sw.Steps || outs[1] != outs[0] {
			t.Errorf("quantum %d: switch (%q, %d steps, %d collections), threaded (%q, %d steps, %d collections)",
				quantum, outs[0], sw.Steps, sw.GCCount, outs[1], th.Steps, th.GCCount)
		}
	}
}
