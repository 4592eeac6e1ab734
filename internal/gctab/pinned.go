package gctab

import "repro/internal/telemetry"

// pinnedDecoder shares dec's stream and cache but ignores SetTracer:
// telemetry stays attached to the underlying decoder (typically the
// process tracer of a multi-tenant host). Without it, every tenant
// collector's SetTracer would clobber — and race on — the one shared
// decoder's tracer.
type pinnedDecoder struct {
	dec TableDecoder
}

// Pinned returns a handle over dec whose telemetry attachment is
// frozen: SetTracer on the handle is a no-op, so many collectors with
// distinct tracers can walk stacks through one shared decoder. Attach
// the process-wide tracer to dec itself, once, before sharing.
func Pinned(dec TableDecoder) TableDecoder {
	return pinnedDecoder{dec: dec}
}

// Decode forwards to the shared decoder.
func (p pinnedDecoder) Decode(pc int) (*PointView, error) { return p.dec.Decode(pc) }

// Program forwards to the shared decoder.
func (p pinnedDecoder) Program(pc int) (*FrameProgram, error) { return p.dec.Program(pc) }

// SetTracer is a no-op: telemetry is pinned at the shared decoder.
func (p pinnedDecoder) SetTracer(*telemetry.Tracer) {}

// Fork forwards to the shared decoder's Fork, keeping the pin.
func (p pinnedDecoder) Fork() TableDecoder { return pinnedDecoder{dec: p.dec.Fork()} }
