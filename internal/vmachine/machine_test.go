package vmachine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/types"
)

func TestFindProc(t *testing.T) {
	p := &Program{Procs: []ProcInfo{{Name: "A"}, {Name: "B"}}}
	if p.FindProc("B") != 1 || p.FindProc("A") != 0 {
		t.Error("FindProc wrong index")
	}
	if p.FindProc("missing") != -1 {
		t.Error("missing proc found")
	}
}

func TestSpawnArgMismatch(t *testing.T) {
	prog := buildProgram(t, []Instr{{Op: OpRet}}, 0, 0)
	m := New(prog, Config{HeapWords: 64, StackWords: 64, MaxThreads: 1})
	m.Alloc = &fixedAlloc{next: m.HeapLo}
	m.Collector = nopCollector{}
	if _, err := m.Spawn(0, 1, 2); err == nil {
		t.Error("argument count mismatch accepted")
	}
}

func TestTooManyThreads(t *testing.T) {
	prog := buildProgram(t, []Instr{{Op: OpRet}}, 0, 0)
	m := New(prog, Config{HeapWords: 64, StackWords: 64, MaxThreads: 2})
	m.Alloc = &fixedAlloc{next: m.HeapLo}
	m.Collector = nopCollector{}
	for i := 0; i < 2; i++ {
		if _, err := m.Spawn(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Spawn(0); err == nil {
		t.Error("third thread accepted with MaxThreads=2")
	}
}

// TestClose: a closed machine drops its image and refuses to run or
// spawn with ErrClosed, a second Close does nothing, and on a mapped
// image a stale view reads zeros instead of faulting.
func TestClose(t *testing.T) {
	prog := buildProgram(t, []Instr{{Op: OpRet}}, 0, 0)
	m := New(prog, Config{HeapWords: 64, StackWords: 64, MaxThreads: 2})
	m.Alloc = &fixedAlloc{next: m.HeapLo}
	m.Collector = nopCollector{}
	if _, err := m.Spawn(0); err != nil {
		t.Fatal(err)
	}
	view := m.Mem
	view[m.HeapLo] = 7
	for i := 0; i < 2; i++ {
		m.Close()
		if m.Mem != nil {
			t.Fatalf("close %d: Mem kept", i+1)
		}
		if err := m.Run(0); !errors.Is(err, ErrClosed) {
			t.Errorf("close %d: Run = %v, want ErrClosed", i+1, err)
		}
		if done, err := m.RunFuel(10); done || !errors.Is(err, ErrClosed) {
			t.Errorf("close %d: RunFuel = %v, %v, want false, ErrClosed", i+1, done, err)
		}
		if _, err := m.Spawn(0); !errors.Is(err, ErrClosed) {
			t.Errorf("close %d: Spawn = %v, want ErrClosed", i+1, err)
		}
	}
	if m.mem != nil && view[m.HeapLo] != 0 {
		t.Errorf("released page reads %d, want 0", view[m.HeapLo])
	}
}

func TestRunStepLimit(t *testing.T) {
	// An infinite loop: jmp to itself.
	code := []Instr{
		{Op: OpHalt},
		{Op: OpEnter, Imm: 0},
		{Op: OpJmp}, // patched below to its own pc
	}
	pcOf := make([]int, len(code)+1)
	pc := 0
	for i := range code {
		pcOf[i] = pc
		pc += EncodedSize(&code[i])
	}
	pcOf[len(code)] = pc
	code[2].Target = pcOf[2]
	idxOf := map[int]int{}
	var bytes []byte
	for i := range code {
		idxOf[pcOf[i]] = i
		bytes = AppendInstr(bytes, &code[i])
	}
	prog := &Program{Name: "loop", Code: code, PCOf: pcOf, IdxOf: idxOf,
		CodeBytes: bytes, Descs: types.NewDescTable(),
		Procs: []ProcInfo{{Name: "main", Entry: pcOf[1], End: pc}}}
	m := New(prog, Config{HeapWords: 64, StackWords: 64, MaxThreads: 1})
	m.Alloc = &fixedAlloc{next: m.HeapLo}
	m.Collector = nopCollector{}
	if _, err := m.Spawn(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1000); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("got %v, want step limit error", err)
	}
}

func TestDisassembleListing(t *testing.T) {
	prog := buildProgram(t, []Instr{
		{Op: OpMovI, Rd: 3, Imm: 42},
		{Op: OpSt, Base: BaseFP, Imm: -1, Ra: 3},
		{Op: OpStB, Base: 3, Imm: 1, Ra: 4},
		{Op: OpLdG, Rd: 4, Imm: 2},
		{Op: OpChkRng, Ra: 3, Imm: 0, Imm2: 9},
		{Op: OpNewArr, Rd: 5, Ra: 3, Desc: 1},
		{Op: OpRet},
	}, 2, 4)
	var sb strings.Builder
	prog.Disassemble(&sb)
	out := sb.String()
	for _, frag := range []string{"main:", "movi r3, 42", "st [fp-1], r3",
		"stb [r3+1], r4", "ldg r4, g[2]", "chkrng r3 in [0..9]",
		"newarr r5, desc1, len=r3", "ret"} {
		if !strings.Contains(out, frag) {
			t.Errorf("listing lacks %q:\n%s", frag, out)
		}
	}
}

func TestTrapErrorFormatting(t *testing.T) {
	e := &RuntimeError{Code: TrapNilDeref, PC: 12, Thread: 0, Detail: "x"}
	s := e.Error()
	if !strings.Contains(s, "nil dereference") || !strings.Contains(s, "pc 12") {
		t.Errorf("error string %q", s)
	}
}
