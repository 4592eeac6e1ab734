// Package gcserve hosts thousands of isolated mthree virtual machines
// in one process behind a request/response front end — the paper's
// "collection cheap enough to run everywhere" argument applied at
// serving time.
//
// One driver.Compiled per registered program is shared, immutably, by
// every machine instantiated from it: the code, the descriptor table,
// and the encoded gc tables never change after compilation, so a single
// memoizing gctab.CachedDecoder (pinned to the process tracer) serves
// stack walks for every tenant — each procedure's table segment is
// decoded once per process, not once per tenant.
//
// Isolation is per-machine: every tenant owns its memory image, its
// semispace heap (capped by a per-tenant quota that traps as
// TrapQuotaExceeded, a tenant-level failure, never a process death),
// and two pause histograms its collector observes into. Tenant machines
// carry no tracer: a /statz row is the machine's and collector's own
// counters, copied at each slice boundary, quantiles computed on read.
//
// Scheduling is cooperative: tenants execute in fuel-budgeted slices
// that yield at blocking gc-points (vmachine.RunFuel), the same §5.3
// gc-point density guarantee the rendezvous uses, so a slice's length
// past its budget is bounded. The round-robin position inside a machine
// survives the yield, which makes every tenant's output independent of
// how the scheduler slices it — the property the concurrency suite
// pins.
package gcserve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Config sizes the server.
type Config struct {
	// HeapWords is the per-tenant heap region (two semispaces).
	HeapWords int64
	// HeapQuota caps the words usable per tenant semispace (0 = the
	// full semispace). Exceeding it is a tenant trap, not an OOM.
	HeapQuota int64
	// StackWords is the per-tenant stack.
	StackWords int64
	// Fuel is the scheduler's per-slice step budget (default 20000):
	// a tenant yields at its next blocking gc-point once a slice has
	// executed this many instructions.
	Fuel int64
	// Workers is the scheduler worker pool width (default 4).
	Workers int
	// MaxTenants caps resident machines — running, queued, or parked
	// sessions (default 4096). Admission past it is refused, not
	// queued.
	MaxTenants int
	// BudgetWords is the process-wide admission budget: the summed
	// memory-image words of resident machines may not exceed it
	// (default MaxTenants × the per-tenant image size).
	BudgetWords int64
	// SessionGrant is the default step grant for one resume request
	// (default 1e6).
	SessionGrant int64
	// MaxRunSteps aborts a one-shot run past this many instructions
	// (0 = unlimited) so a runaway program cannot hold its slot
	// forever.
	MaxRunSteps int64
	// KeepStats bounds retained per-tenant stats of completed one-shot
	// runs (default 1024).
	KeepStats int
	// Generational runs every tenant under the generational collector:
	// registered programs are compiled with store checks, per-request
	// garbage dies in minor collections and session caches promote to
	// the old space — the server-shaped sweet spot the serve.*
	// benchmark workloads measure. Per-tenant /statz rows then carry the
	// minor/major split. The generational heap does not enforce
	// HeapQuota (quota attribution is a semispace-heap feature);
	// admission control still bounds process-wide residency.
	Generational bool
	// ConcurrentMark runs every tenant's collector mostly-concurrently:
	// SATB-barriered stores are compiled into registered programs and
	// marking is split off the allocation pause. Per-tenant /statz rows
	// then report the final-pause SLO (final_pause_ns) instead of
	// whole-collection pauses only.
	ConcurrentMark bool
	// Tel is the process tracer: shared-decoder counters, rendezvous
	// events, and anything not attributable to one tenant. Nil
	// disables process telemetry.
	Tel *telemetry.Tracer
}

func (c *Config) fill() {
	if c.HeapWords <= 0 {
		c.HeapWords = 1 << 15
	}
	if c.StackWords <= 0 {
		c.StackWords = 1 << 12
	}
	if c.Fuel <= 0 {
		c.Fuel = 20_000
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 4096
	}
	if c.SessionGrant <= 0 {
		c.SessionGrant = 1_000_000
	}
	if c.KeepStats <= 0 {
		c.KeepStats = 1024
	}
	if c.BudgetWords <= 0 {
		c.BudgetWords = int64(c.MaxTenants) * c.imageWords()
	}
}

// imageWords approximates one tenant's memory-image cost in words
// (globals vary per program; guard + heap + one stack dominate).
func (c *Config) imageWords() int64 {
	return c.HeapWords + c.StackWords + 64
}

// Server hosts the tenant pool: a program registry, the resident
// tenants, and the cooperative scheduler.
type Server struct {
	cfg   Config
	tel   *telemetry.Tracer
	start time.Time

	reg *registry

	mu            sync.Mutex
	pool          map[string]*tenant // all resident tenants, one-shot and session
	residentCount int
	residentWords int64
	nextID        int64
	requests      int64
	traps         int64
	quotaTraps    int64
	refused       int64
	completed     []TenantStat // ring of finished one-shot runs
	closed        bool

	runq chan *tenant
	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a server and starts its scheduler workers.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:   cfg,
		tel:   cfg.Tel,
		start: time.Now(),
		reg:   newRegistry(),
		pool:  make(map[string]*tenant),
		// Every resident tenant is queued at most once, so MaxTenants
		// bounds the queue; +Workers gives requeues headroom.
		runq: make(chan *tenant, cfg.MaxTenants+cfg.Workers),
		quit: make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the scheduler and waits for workers to drain. Queued
// tenants are failed with ErrShutdown; resident memory is released.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	// Fail anything still queued so no waiter hangs.
	for {
		select {
		case t := <-s.runq:
			t.finish(resultOf(t, ErrShutdown))
		default:
			return
		}
	}
}

// ErrShutdown is delivered to requests in flight when the server stops.
var ErrShutdown = fmt.Errorf("gcserve: server shutting down")

// ErrAdmission is returned when the tenant pool or the process-wide
// word budget is full.
var ErrAdmission = fmt.Errorf("gcserve: admission refused (tenant pool full)")

// admit reserves one tenant slot and its memory-image words, or
// reports refusal. Callers must pair with release.
func (s *Server) admit() error {
	cost := s.cfg.imageWords()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShutdown
	}
	if s.residentCount+1 > s.cfg.MaxTenants || s.residentWords+cost > s.cfg.BudgetWords {
		s.refused++
		return ErrAdmission
	}
	s.residentCount++
	s.residentWords += cost
	return nil
}

func (s *Server) release() {
	s.mu.Lock()
	s.residentCount--
	s.residentWords -= s.cfg.imageWords()
	s.mu.Unlock()
}

// worker is one scheduler goroutine: pop a tenant, run one fuel slice,
// requeue or finish.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case t := <-s.runq:
			s.slice(t)
		}
	}
}

// slice runs one fuel-budgeted slice of t and routes the outcome:
// requeue while the grant lasts, otherwise answer the waiting request.
func (s *Server) slice(t *tenant) {
	fuel := s.cfg.Fuel
	if t.grant > 0 && t.grant < fuel {
		fuel = t.grant
	}
	before := t.m.Steps
	done, err := t.m.RunFuel(fuel)
	used := t.m.Steps - before
	t.slices++
	if t.grant > 0 {
		t.grant -= used
	}
	if err == nil && !done && !t.session && s.cfg.MaxRunSteps > 0 && t.m.Steps >= s.cfg.MaxRunSteps {
		err = fmt.Errorf("gcserve: run exceeded %d steps", s.cfg.MaxRunSteps)
	}
	// Publish the slice-boundary stats before handing the tenant off:
	// /statz readers see this cache, never the live machine.
	t.updateStat(err)
	switch {
	case err != nil:
		t.finish(resultOf(t, err))
	case done:
		t.finish(resultOf(t, nil))
	case t.grant <= 0 && t.session:
		// Grant exhausted: park the session until the next resume.
		t.park()
	default:
		// Yielded inside its grant: go to the back of the run queue so
		// tenants interleave.
		select {
		case s.runq <- t:
		case <-s.quit:
			t.finish(resultOf(t, ErrShutdown))
		}
	}
}

func (s *Server) newID(prefix string) string {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	return fmt.Sprintf("%s-%d", prefix, id)
}
