package driver

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/gctab"
	"repro/internal/vmachine"
)

// growSrc retains a growing list, so live data scales with n.
const growSrc = `
MODULE Grow;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
VAR keep: List; i, s: INTEGER;
BEGIN
  keep := NIL;
  FOR i := 1 TO 100 DO
    keep := NEW(List);
    keep.head := i;
  END;
  s := 0;
  keep := NIL;
  FOR i := 1 TO 40 DO
    s := s + i;
  END;
  PutInt(s); PutLn();
END Grow.
`

// TestExecuteMatchesRun pins the split API: Compile followed by
// Execute is the same code path as the one-shot Run.
func TestExecuteMatchesRun(t *testing.T) {
	c, err := Compile("test.m3", growSrc, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Execute(vmachine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run("test.m3", growSrc, NewOptions(), vmachine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got != "820\n" {
		t.Errorf("Execute %q, Run %q, want %q", got, want, "820\n")
	}
}

// TestInstantiateMany: one Compiled, many independent machines — each
// run produces the same output from fresh state.
func TestInstantiateMany(t *testing.T) {
	c, err := Compile("test.m3", growSrc, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 2048
	for i := 0; i < 5; i++ {
		var sb strings.Builder
		cfg.Out = &sb
		m, _, err := c.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if sb.String() != "820\n" {
			t.Errorf("instance %d: output %q", i, sb.String())
		}
	}
}

// TestSharedDecoderAcrossInstances: machines built over the pinned
// shared decoder behave identically to machines with private decoders,
// and the shared decoder is built exactly once.
func TestSharedDecoderAcrossInstances(t *testing.T) {
	c, err := Compile("test.m3", growSrc, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c.SharedDecoder() != c.SharedDecoder() {
		t.Fatal("SharedDecoder not a singleton")
	}
	dec := gctab.Pinned(c.SharedDecoder())
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 1024 // force collections so the decoder is exercised
	for i := 0; i < 3; i++ {
		var sb strings.Builder
		cfg.Out = &sb
		m, _, err := c.NewMachineWithDecoder(cfg, dec)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			t.Fatalf("shared-decoder instance %d: %v", i, err)
		}
		if sb.String() != "820\n" {
			t.Errorf("shared-decoder instance %d: output %q", i, sb.String())
		}
	}
}

// TestDispatchTableBuiltOnce: machines instantiated concurrently from
// one Compiled — every collector flavour — land on one dispatch table,
// built by whichever came first, and a reference-interpreter compile
// builds none.
func TestDispatchTableBuiltOnce(t *testing.T) {
	opts := NewOptions()
	opts.Generational = true
	c, err := Compile("test.m3", growSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 2048
	tables := make([]*vmachine.DispatchTable, 9)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m *vmachine.Machine
			var err error
			switch i % 3 {
			case 0:
				m, _, err = c.NewMachine(cfg)
			case 1:
				m, _, err = c.NewGenerationalMachine(cfg)
			default:
				m, _, err = c.NewConservativeMachine(cfg)
			}
			if err != nil || !m.ThreadedDispatch() || m.Fused == 0 {
				t.Errorf("instance %d: err=%v, want a machine on the superblock table", i, err)
				return
			}
			tables[i] = c.dispatch
			if err := m.Run(0); err != nil {
				t.Errorf("instance %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	for i, tab := range tables {
		if tab == nil || tab != tables[0] {
			t.Errorf("instance %d saw dispatch table %p, instance 0 %p", i, tab, tables[0])
		}
	}

	opts.ThreadedDispatch = false
	sw, err := Compile("test.m3", growSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m, _, err := sw.NewMachine(cfg); err != nil || m.ThreadedDispatch() || sw.dispatch != nil {
		t.Errorf("switch compile: err=%v threaded=%v table=%p", err, m.ThreadedDispatch(), sw.dispatch)
	}
}

// TestHeapQuotaTrap: a machine whose quota is below its live data traps
// with the tenant-distinct quota code, while the same program under the
// same heap without a quota completes.
func TestHeapQuotaTrap(t *testing.T) {
	// Retain everything so live data (100 cells × 3 words) exceeds the
	// quota but fits the semispace.
	src := `
MODULE Hog;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
VAR keep, p: List; i: INTEGER;
BEGIN
  keep := NIL;
  FOR i := 1 TO 100 DO
    p := NEW(List);
    p.head := i;
    p.tail := keep;
    keep := p;
  END;
  PutInt(keep.head); PutLn();
END Hog.
`
	c, err := Compile("test.m3", src, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 4096

	if out, err := c.Execute(cfg); err != nil || out != "100\n" {
		t.Fatalf("unquotaed run: out=%q err=%v", out, err)
	}

	cfg.HeapQuota = 128
	_, err = c.Execute(cfg)
	var rte *vmachine.RuntimeError
	if !errors.As(err, &rte) || rte.Code != vmachine.TrapQuotaExceeded {
		t.Fatalf("quota run: err=%v, want TrapQuotaExceeded", err)
	}
	if !strings.Contains(err.Error(), "heap quota exceeded") {
		t.Errorf("trap message %q lacks quota wording", err.Error())
	}
	if fmt.Sprint(vmachine.TrapQuotaExceeded) != "heap quota exceeded" {
		t.Errorf("TrapCode.String: %v", vmachine.TrapQuotaExceeded)
	}
}
