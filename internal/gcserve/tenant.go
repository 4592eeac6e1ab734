package gcserve

import (
	"bytes"
	"errors"
	"sync"

	"repro/internal/gengc"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// heapStats is the slice of a tenant heap the /statz rows read; both
// the semispace heap (full collector) and the generational heap
// satisfy it.
type heapStats interface {
	LiveBytes() int64
	AllocatedBytes() int64
}

// tenant is one resident machine: its isolated memory image, heap,
// collector, pause histograms, and scheduling state. A tenant is
// owned by at most one scheduler worker at a time — it is either
// queued (once), running a slice, or parked awaiting a resume — so
// its fields need no lock of their own except what the HTTP side reads
// concurrently: the output buffer, the stat row, the atomic histograms.
type tenant struct {
	id      string
	prog    *program
	session bool

	m    *vmachine.Machine
	heap heapStats
	gen  *gengc.Collector // the minor/major split; nil under the full collector
	out  lockedBuffer

	// All the telemetry a tenant carries: its collector observes the
	// stalls it already times into these; the machine runs untraced.
	pauses, finalPauses telemetry.Histogram

	grant  int64 // steps remaining for the current request (0 = until done)
	slices int64

	// waiter receives exactly one result per scheduled request.
	waiter chan result

	// scheduled marks a tenant with a request in flight (guarded by
	// Server.mu); a parked session is resident but not scheduled.
	scheduled bool

	// finished marks a completed (halted or trapped) tenant; parked
	// sessions are not finished.
	finished bool
	err      error

	// stat is the tenant's last slice-boundary snapshot, less the pause
	// rows. The owning worker refreshes it between slices; /statz readers
	// take the cache instead of racing the live machine.
	statMu sync.Mutex
	stat   TenantStat
}

// updateStat refreshes the cached stat row — a few integers, nothing
// allocated: it runs after every slice. Only the goroutine owning the
// tenant (its scheduler worker, or the request goroutine before first
// enqueue) may call it, because it reads the live machine.
func (t *tenant) updateStat(err error) {
	t.statMu.Lock()
	st := &t.stat
	st.Steps, st.Collections, st.Slices = t.m.Steps, t.m.GCCount, t.slices
	st.LiveBytes, st.AllocBytes = t.heap.LiveBytes(), t.heap.AllocatedBytes()
	if t.gen != nil {
		st.Minor, st.Major = t.gen.Minor, t.gen.Major
	}
	st.Trap = trapName(err)
	t.statMu.Unlock()
}

// snapStat returns the cached row under the given state label, with the
// pause quantiles computed now, on read. Safe from any goroutine.
func (t *tenant) snapStat(state string) TenantStat {
	t.statMu.Lock()
	st := t.stat
	t.statMu.Unlock()
	st.State = state
	st.Pauses, st.FinalPauses = pauseStat(&t.pauses), pauseStat(&t.finalPauses)
	return st
}

// lockedBuffer is the tenant's stdout: the VM writes from a scheduler
// worker while /statz or a resume response may read it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// result is what a scheduled request resolves to.
type result struct {
	Output      string
	Steps       int64
	Collections int64
	Slices      int64
	Done        bool
	Err         error
}

// resultOf snapshots t after a slice outcome.
func resultOf(t *tenant, err error) result {
	return result{
		Output:      t.out.String(),
		Steps:       t.m.Steps,
		Collections: t.m.GCCount,
		Slices:      t.slices,
		Done:        err == nil && t.m.Halted(),
		Err:         err,
	}
}

// finish marks the tenant completed and answers the waiting request.
func (t *tenant) finish(r result) {
	t.finished = true
	t.err = r.Err
	t.waiter <- r
}

// park answers the waiting request without completing the tenant: the
// session keeps its machine and resumes on the next grant.
func (t *tenant) park() {
	t.waiter <- resultOf(t, nil)
}

// newTenant instantiates a machine for p from the shared compile
// artifact: fresh memory image, per-instance heap quota, no tracer, and
// the process-shared pinned decoder and dispatch table.
func (s *Server) newTenant(p *program, id string, session bool) (*tenant, error) {
	t := &tenant{
		id:      id,
		prog:    p,
		session: session,
		waiter:  make(chan result, 1),
		stat:    TenantStat{ID: id, Program: p.name, Session: session},
	}
	cfg := vmachine.Config{
		HeapWords:  s.cfg.HeapWords,
		HeapQuota:  s.cfg.HeapQuota,
		StackWords: s.cfg.StackWords,
		MaxThreads: 1,
		Out:        &t.out,
	}
	if s.cfg.Generational {
		m, col, err := p.c.NewGenerationalMachineWithDecoder(cfg, p.dec)
		if err != nil {
			return nil, err
		}
		col.Pauses, col.FinalPauses = &t.pauses, &t.finalPauses
		t.m, t.heap, t.gen = m, col.Heap, col
	} else {
		m, col, err := p.c.NewMachineWithDecoder(cfg, p.dec)
		if err != nil {
			return nil, err
		}
		col.Pauses, col.FinalPauses = &t.pauses, &t.finalPauses
		t.m, t.heap = m, col.Heap
	}
	t.updateStat(nil)
	return t, nil
}

// IsQuotaTrap reports whether err is the tenant-quota trap.
func IsQuotaTrap(err error) bool {
	var rte *vmachine.RuntimeError
	return errors.As(err, &rte) && rte.Code == vmachine.TrapQuotaExceeded
}

// trapName is a tenant failure on the wire: a runtime error's trap
// code, any other error's text, empty for none.
func trapName(err error) string {
	if err == nil {
		return ""
	}
	var rte *vmachine.RuntimeError
	if errors.As(err, &rte) {
		return rte.Code.String()
	}
	return err.Error()
}
