package driver

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/vmachine"
)

const listSrc = `
MODULE List;
TYPE L = REF RECORD v: INTEGER; n: L; END;
VAR keep, p: L; i: INTEGER;
BEGIN
  FOR i := 1 TO 400 DO
    p := NEW(L);
    p.v := i;
    IF i MOD 4 = 0 THEN p.n := keep; keep := p; END;
  END;
  PutInt(keep.v); PutLn();
END List.
`

// TestHeapKeepsImageAlive: a host may keep a collector, or its heap,
// after it has dropped the machine they were built with. The heap's
// view of the memory image must then stay readable: the heap, not
// only the machine, keeps the image's owner reachable.
func TestHeapKeepsImageAlive(t *testing.T) {
	opts := NewOptions()
	opts.Generational = true
	c, err := Compile("list.m3", listSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.Config{HeapWords: 1024, StackWords: 1024, MaxThreads: 1}
	// Each build runs a machine to completion and returns a check that
	// holds the heap but not the machine.
	builds := []struct {
		name  string
		build func() (func() error, error)
	}{
		{"precise", func() (func() error, error) {
			m, col, err := c.NewMachine(cfg)
			if err != nil {
				return nil, err
			}
			return col.Heap.Check, m.Run(0)
		}},
		{"generational", func() (func() error, error) {
			m, col, err := c.NewGenerationalMachine(cfg)
			if err != nil {
				return nil, err
			}
			return func() error { return sumWords(col.Heap.Mem[col.Heap.Lo:col.Heap.Hi]) }, m.Run(0)
		}},
		{"conservative", func() (func() error, error) {
			m, h, err := c.NewConservativeMachine(cfg)
			if err != nil {
				return nil, err
			}
			return func() error { return sumWords(h.Mem[h.Lo:h.Hi]) }, m.Run(0)
		}},
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, b := range builds {
		check, err := b.build()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		err = func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("fault: %v", r)
				}
			}()
			return check()
		}()
		if err != nil {
			t.Errorf("%s: heap unreadable once its machine was dropped: %v", b.name, err)
		}
	}
}

// sumWords reads every word of mem.
func sumWords(mem []int64) error {
	var s int64
	for _, w := range mem {
		s += w
	}
	if s == 0 {
		return fmt.Errorf("heap region is all zero")
	}
	return nil
}
