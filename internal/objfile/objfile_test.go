package objfile_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/vmachine"
)

const src = `
MODULE Obj;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR l, junk: L; i, s: INTEGER;
BEGIN
  FOR i := 1 TO 40 DO
    WITH c = NEW(L) DO
      c.v := i * 3;
      c.next := l;
      l := c;
    END;
    junk := NEW(L);      (* immediate garbage to force collections *)
    junk.v := i;
    junk := NIL;
  END;
  s := 0;
  WHILE l # NIL DO s := s + l.v; l := l.next; END;
  PutInt(s); PutLn();
END Obj.
`

func TestRoundTripRun(t *testing.T) {
	c, err := driver.Compile("obj.m3", src, driver.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteObject(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := driver.LoadObject(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Prog.CodeSize() != c.Prog.CodeSize() {
		t.Errorf("code size changed: %d vs %d", loaded.Prog.CodeSize(), c.Prog.CodeSize())
	}
	if loaded.Encoded == nil || loaded.Encoded.Size() != c.Encoded.Size() {
		t.Error("tables lost or resized")
	}
	if loaded.Opts.Scheme != c.Opts.Scheme {
		t.Errorf("scheme %v, want %v", loaded.Opts.Scheme, c.Opts.Scheme)
	}
	// Run the loaded module under memory pressure: the tables must work.
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 384
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := loaded.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "2460\n" {
		t.Errorf("output %q", sb.String())
	}
	if col.Collections == 0 {
		t.Error("expected collections from the loaded tables")
	}
}

// TestObjectBytesReproducible: two compiles of one source give the same
// object file, byte for byte, and so do two writes of one compile — the
// image holds no map. The loaded program gets its PC index back: it runs
// destroy, whose every call, return and branch goes through IdxOf, to
// the same output and collection count as the program it was written
// from.
func TestObjectBytesReproducible(t *testing.T) {
	destroy := bench.DestroySource(3, 6, 40, 2, 0)
	var objs [][]byte
	var first *driver.Compiled
	for i := 0; i < 2; i++ {
		c, err := driver.Compile("destroy.m3", destroy, driver.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = c
		}
		for j := 0; j < 2; j++ {
			var buf bytes.Buffer
			if err := c.WriteObject(&buf); err != nil {
				t.Fatal(err)
			}
			objs = append(objs, buf.Bytes())
		}
	}
	for i, o := range objs[1:] {
		if !bytes.Equal(o, objs[0]) {
			t.Fatalf("object %d differs from object 0 (%d vs %d bytes)", i+1, len(o), len(objs[0]))
		}
	}
	loaded, err := driver.LoadObject(bytes.NewReader(objs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Prog.IdxOf, first.Prog.IdxOf) {
		t.Fatal("IdxOf rebuilt from PCOf differs from the compiler's")
	}
	run := func(c *driver.Compiled) (string, int64) {
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = 1 << 15
		var sb strings.Builder
		cfg.Out = &sb
		m, col, err := c.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return sb.String(), col.Collections
	}
	wantOut, wantGCs := run(first)
	gotOut, gotGCs := run(loaded)
	if gotOut != wantOut || gotGCs != wantGCs || wantGCs == 0 {
		t.Fatalf("loaded destroy: %q after %d collections, compiled: %q after %d",
			gotOut, gotGCs, wantOut, wantGCs)
	}
}

func TestGenerationalFlagSurvives(t *testing.T) {
	opts := driver.NewOptions()
	opts.Generational = true
	c, err := driver.Compile("obj.m3", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteObject(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := driver.LoadObject(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Opts.Generational {
		t.Fatal("generational flag lost")
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 4096
	var sb strings.Builder
	cfg.Out = &sb
	m, _, err := loaded.NewGenerationalMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "2460\n" {
		t.Errorf("output %q", sb.String())
	}
}

func TestBadInput(t *testing.T) {
	if _, err := driver.LoadObject(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := driver.LoadObject(bytes.NewReader(nil)); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := driver.LoadObject(bytes.NewReader([]byte("MXO1garbage..."))); err == nil {
		t.Error("corrupt body accepted")
	}
}
