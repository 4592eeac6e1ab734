package vmachine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/types"
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
		m.EnableThreadedDispatch(NewDispatchTable(m.Prog, DefaultFusions()))
	}
	if _, err := m.Spawn(0); err != nil {
		t.Fatal(err)
	}
	err := m.Run(1_000_000)
	return m, sb.String(), err
}

// TestDispatchTableComplete asserts every named opcode resolves to a
// real handler: a new opcode added to the switch but not the table (or
// vice versa) fails here, so the two dispatchers can never silently
// disagree on coverage.
func TestDispatchTableComplete(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		in := Instr{Op: op}
		p := &Program{
			Name:  "probe",
			Code:  []Instr{in},
			PCOf:  []int{0, EncodedSize(&in)},
			IdxOf: map[int]int{0: 0},
			Descs: types.NewDescTable(),
		}
		h, known := buildHandler(p, 0)
		if !known {
			t.Errorf("op %s has no threaded handler", op)
		}
		if h == nil {
			t.Errorf("op %s resolved to a nil handler", op)
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
			m.EnableThreadedDispatch(NewDispatchTable(m.Prog, DefaultFusions()))
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

// lockstepBody is a program that exercises the fusion set (cmp+branch
// loop header, ld/st runs, call/ret, immediate traffic) plus output.
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
// and requires identical output and step counts — including with a
// tiny quantum, which forces fused pairs to split at slice boundaries.
func TestDispatchLockstep(t *testing.T) {
	for _, quantum := range []int64{1000, 3, 1} {
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
				t.Error("threaded run fused no sites; the lockstep body should fuse")
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

// fusedPairCases enumerates the monomorphic superinstruction bodies
// (the hot-bigram shapes buildFusedPair specializes) with success and
// trap variants for each trap site. The seed stores known values in
// two frame slots and ends with a GcPoll, which cannot fuse, so the
// pair under test always lands on a fusion boundary.
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

// TestDispatchFusedPairParity runs every monomorphic superinstruction
// shape — success path, first-half trap, second-half trap — under both
// dispatchers and requires identical output, step counts, and errors.
// The trap message embeds the trap-time byte PC, so a fused body that
// commits the boundary PC late (or refunds the wrong step) fails on
// the message or step diff.
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
				t.Error("threaded run fused no sites; every case holds a fusible pair")
			}
		})
	}
}

// TestFusionsFromPairs checks the telemetry-to-fusion filter: fusible
// pairs pass through hottest-first, unfusible and out-of-range ones
// are dropped, and max bounds the list.
func TestFusionsFromPairs(t *testing.T) {
	pairs := []telemetry.PairSample{
		{A: int64(OpCmpLT), B: int64(OpBT), Count: 100},
		{A: int64(OpJmp), B: int64(OpMovI), Count: 90},    // first can't fuse
		{A: int64(OpLd), B: int64(OpNewRec), Count: 80},   // second is a poll point
		{A: int64(numOps) + 3, B: int64(OpLd), Count: 70}, // out of range
		{A: int64(OpLd), B: int64(OpLd), Count: 60},
		{A: int64(OpSt), B: int64(OpSt), Count: 50},
	}
	got := FusionsFromPairs(pairs, 2)
	want := []Fusion{{OpCmpLT, OpBT}, {OpLd, OpLd}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// runBodyTraced is runBodyDispatch with a tracer attached, sampling PCs
// every sample steps (0 = off). A threaded run also reports how often a
// fused site fell back to its single-instruction handler.
func runBodyTraced(t *testing.T, body []Instr, frameWords int64, threaded bool, sample int64) (m *Machine, out string, altCalls int, err error) {
	t.Helper()
	prog := buildProgram(t, body, frameWords, 8)
	var sb strings.Builder
	m = New(prog, Config{
		HeapWords: 4096, StackWords: 1024, MaxThreads: 1, Out: &sb, Quantum: 1000,
		Tel: telemetry.New(telemetry.Config{RingSize: 64}), PCSampleEvery: sample,
	})
	m.Alloc = &fixedAlloc{next: m.HeapLo}
	m.Collector = nopCollector{}
	if threaded {
		tab := NewDispatchTable(prog, DefaultFusions())
		for i := range tab.entries {
			if alt := tab.entries[i].alt; alt != nil {
				tab.entries[i].alt = func(m *Machine, t *Thread, in *Instr) error {
					altCalls++
					return alt(m, t, in)
				}
			}
		}
		m.EnableThreadedDispatch(tab)
	}
	if _, err := m.Spawn(0); err != nil {
		t.Fatal(err)
	}
	err = m.Run(1_000_000)
	return m, sb.String(), altCalls, err
}

// TestDispatchTracedKeepsFusions: a tracer alone no longer costs a
// machine its superinstructions. With sampling off the fused handlers
// run (no site falls back) and count both opcodes; with sampling on
// every step passes through the sampler. Either way the per-opcode
// counts, step count, output, memory image, samples and trap — first
// half, second half — equal the switch interpreter's.
func TestDispatchTracedKeepsFusions(t *testing.T) {
	cases := fusedPairCases()
	cases["lockstep"] = lockstepBody()
	for name, body := range cases {
		for _, sample := range []int64{0, 1, 3} {
			t.Run(fmt.Sprintf("%s/sample=%d", name, sample), func(t *testing.T) {
				mSw, outSw, _, errSw := runBodyTraced(t, body, 4, false, sample)
				mTh, outTh, altCalls, errTh := runBodyTraced(t, body, 4, true, sample)
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
				if sample == 0 && altCalls != 0 {
					t.Errorf("%d fused sites fell back to single handlers with sampling off", altCalls)
				}
				if sample > 0 && altCalls == 0 {
					t.Error("no fused site fell back with sampling on: the sampler missed steps")
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
	ref := newMachine(NewDispatchTable(prog, DefaultFusions()), &refOut)
	if err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	if refOut.String() != "45" || ref.Fused == 0 {
		t.Fatalf("reference run: output %q, %d fused sites", refOut.String(), ref.Fused)
	}

	shared := NewDispatchTable(prog, DefaultFusions())
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
