// Package objfile serializes compiled modules — the linked VM program
// together with its encoded gc tables — to disk, so compilation and
// execution can be separate steps (mthreec -o prog.mxo; mthree
// prog.mxo). The gc tables travel in their chosen encoding, exactly as
// the paper's compiler emits them into object files.
package objfile

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/gctab"
	"repro/internal/vmachine"
)

// magic identifies mthree object files; the version gates gob schema
// changes. Version 2 stopped storing Program.IdxOf.
const (
	magic   = "MXO1"
	version = 2
)

// header carries compilation facts the runtime needs beyond the
// program itself.
type header struct {
	Version      int
	Generational bool // program contains store checks (OpStB)
	HasTables    bool
}

// Write serializes prog and its tables (enc may be nil when the module
// was compiled without gc support). Program.IdxOf stays out of the file:
// it is the inverse of PCOf, and gob writes a map in iteration order,
// which would make two compiles of one source differ byte for byte.
func Write(w io.Writer, prog *vmachine.Program, enc *gctab.Encoded, generational bool) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	e := gob.NewEncoder(w)
	if err := e.Encode(header{Version: version, Generational: generational, HasTables: enc != nil}); err != nil {
		return fmt.Errorf("objfile: header: %w", err)
	}
	image := *prog
	image.IdxOf = nil
	if err := e.Encode(&image); err != nil {
		return fmt.Errorf("objfile: program: %w", err)
	}
	if enc != nil {
		if err := e.Encode(enc); err != nil {
			return fmt.Errorf("objfile: tables: %w", err)
		}
	}
	return nil
}

// Read deserializes an object file. enc is nil when the module was
// compiled without gc support.
func Read(r io.Reader) (prog *vmachine.Program, enc *gctab.Encoded, generational bool, err error) {
	var m [4]byte
	if _, err = io.ReadFull(r, m[:]); err != nil {
		return nil, nil, false, fmt.Errorf("objfile: %w", err)
	}
	if string(m[:]) != magic {
		return nil, nil, false, fmt.Errorf("objfile: bad magic %q", m)
	}
	d := gob.NewDecoder(r)
	var h header
	if err = d.Decode(&h); err != nil {
		return nil, nil, false, fmt.Errorf("objfile: header: %w", err)
	}
	if h.Version != version {
		return nil, nil, false, fmt.Errorf("objfile: version %d, want %d", h.Version, version)
	}
	prog = new(vmachine.Program)
	if err = d.Decode(prog); err != nil {
		return nil, nil, false, fmt.Errorf("objfile: program: %w", err)
	}
	if len(prog.PCOf) < len(prog.Code) {
		return nil, nil, false, fmt.Errorf("objfile: program: %d byte PCs for %d instructions", len(prog.PCOf), len(prog.Code))
	}
	prog.IdxOf = make(map[int]int, len(prog.Code))
	for i := range prog.Code {
		prog.IdxOf[prog.PCOf[i]] = i
	}
	if h.HasTables {
		enc = new(gctab.Encoded)
		if err = d.Decode(enc); err != nil {
			return nil, nil, false, fmt.Errorf("objfile: tables: %w", err)
		}
	}
	return prog, enc, h.Generational, nil
}
