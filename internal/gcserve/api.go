package gcserve

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// RunResult is the outcome of a run or resume request.
type RunResult struct {
	ID          string `json:"id"`
	Program     string `json:"program"`
	Output      string `json:"output"`
	Steps       int64  `json:"steps"`
	Collections int64  `json:"collections"`
	Slices      int64  `json:"slices"`
	// Done is false for a session parked mid-grant.
	Done bool `json:"done"`
	// Trap carries the tenant's runtime error ("heap quota exceeded",
	// "nil dereference", ...), empty for clean completion.
	Trap string `json:"trap,omitempty"`
	// QuotaTrap marks the tenant-quota failure specifically.
	QuotaTrap bool `json:"quota_trap,omitempty"`
}

// RunProgram executes one-shot request/response traffic: instantiate a
// tenant of the named program, schedule it to completion, release it.
// Tenant traps come back inside the RunResult; the error return is for
// host-level failures (unknown program, admission, shutdown).
func (s *Server) RunProgram(name string) (RunResult, error) {
	p, err := s.lookup(name)
	if err != nil {
		return RunResult{}, err
	}
	if err := s.admit(); err != nil {
		return RunResult{}, err
	}
	t, err := s.newTenant(p, s.newID("run"), false)
	if err != nil {
		s.release()
		return RunResult{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.release()
		return RunResult{}, ErrShutdown
	}
	s.pool[t.id] = t
	s.enqueueLocked(t)
	s.mu.Unlock()
	r := <-t.waiter
	s.retire(t, r)
	return publish(t, r), nil
}

// OpenSession admits a persistent tenant whose machine survives across
// resume requests. It is not scheduled until the first Resume.
func (s *Server) OpenSession(name string) (string, error) {
	p, err := s.lookup(name)
	if err != nil {
		return "", err
	}
	if err := s.admit(); err != nil {
		return "", err
	}
	t, err := s.newTenant(p, s.newID("sess"), true)
	if err != nil {
		s.release()
		return "", err
	}
	s.mu.Lock()
	s.pool[t.id] = t
	s.mu.Unlock()
	return t.id, nil
}

// Resume grants a parked session up to grant steps (0 uses
// Config.SessionGrant) and returns its state when it halts, traps, or
// exhausts the grant at a gc-point. Output is cumulative.
func (s *Server) Resume(id string, grant int64) (RunResult, error) {
	if grant <= 0 {
		grant = s.cfg.SessionGrant
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return RunResult{}, ErrShutdown
	}
	t := s.pool[id]
	if t == nil || !t.session {
		s.mu.Unlock()
		return RunResult{}, fmt.Errorf("gcserve: unknown session %q", id)
	}
	if t.scheduled {
		s.mu.Unlock()
		return RunResult{}, fmt.Errorf("gcserve: session %q already scheduled", id)
	}
	// Not scheduled, so no worker holds t: the grant is ours to set.
	t.grant = grant
	s.enqueueLocked(t)
	s.mu.Unlock()
	r := <-t.waiter
	s.mu.Lock()
	t.scheduled = false
	s.mu.Unlock()
	if r.Done || r.Err != nil {
		s.retire(t, r)
	}
	return publish(t, r), nil
}

// CloseSession abandons a session, releasing its machine.
func (s *Server) CloseSession(id string) error {
	s.mu.Lock()
	t := s.pool[id]
	if t == nil || !t.session {
		s.mu.Unlock()
		return fmt.Errorf("gcserve: unknown session %q", id)
	}
	if t.scheduled {
		s.mu.Unlock()
		return fmt.Errorf("gcserve: session %q is scheduled", id)
	}
	delete(s.pool, id)
	s.mu.Unlock()
	s.release()
	s.recordStat(t, "closed")
	return nil
}

// enqueueLocked counts a request and queues its tenant. The caller holds
// s.mu and saw closed false under it; Close sets closed under the same
// lock before it drains, so the tenant is refused up front or failed by
// that drain, never stranded. The send cannot block: runq fits every tenant.
func (s *Server) enqueueLocked(t *tenant) {
	s.requests++
	t.scheduled = true
	s.runq <- t
}

// retire removes a completed tenant, releases its memory reservation,
// and folds its final stats into the completed ring.
func (s *Server) retire(t *tenant, r result) {
	state := "done"
	if r.Err != nil {
		state = "trap"
	}
	s.mu.Lock()
	if _, ok := s.pool[t.id]; !ok {
		s.mu.Unlock()
		return
	}
	delete(s.pool, t.id)
	if r.Err != nil {
		s.traps++
		if IsQuotaTrap(r.Err) {
			s.quotaTraps++
		}
	}
	s.mu.Unlock()
	s.release()
	s.recordStat(t, state)
}

// publish converts an internal result to the wire shape.
func publish(t *tenant, r result) RunResult {
	out := RunResult{
		ID:          t.id,
		Program:     t.prog.name,
		Output:      r.Output,
		Steps:       r.Steps,
		Collections: r.Collections,
		Slices:      r.Slices,
		Done:        r.Done,
	}
	out.Trap = trapName(r.Err)
	out.QuotaTrap = IsQuotaTrap(r.Err)
	return out
}

// recordStat appends a finished tenant's stats to the bounded ring.
func (s *Server) recordStat(t *tenant, state string) {
	st := t.snapStat(state)
	s.mu.Lock()
	s.completed = append(s.completed, st)
	if len(s.completed) > s.cfg.KeepStats {
		s.completed = s.completed[len(s.completed)-s.cfg.KeepStats:]
	}
	s.mu.Unlock()
}

// PauseStat summarizes a tenant's gc pause distribution.
type PauseStat struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
}

func pauseStat(hist *telemetry.Histogram) PauseStat {
	h := hist.Snapshot()
	return PauseStat{Count: h.Count, MeanNs: h.Mean(), P50Ns: h.P50, P99Ns: h.P99, MaxNs: h.Max}
}

// TenantStat is one tenant's row in the /statz snapshot. Pauses counts
// every mutator stall (stop-the-world collections, and under
// Config.ConcurrentMark also each mark burst and the final pause);
// FinalPauses is the pause-SLO row — the stop point a request actually
// waits out per collection, which concurrent marking is meant to bound.
type TenantStat struct {
	ID          string `json:"id"`
	Program     string `json:"program"`
	State       string `json:"state"`
	Session     bool   `json:"session,omitempty"`
	Steps       int64  `json:"steps"`
	Collections int64  `json:"collections"`
	// Minor and Major split Collections when the server runs its
	// tenants generationally (Config.Generational); zero otherwise.
	Minor       int64     `json:"minor,omitempty"`
	Major       int64     `json:"major,omitempty"`
	Slices      int64     `json:"slices"`
	LiveBytes   int64     `json:"live_bytes"`
	AllocBytes  int64     `json:"allocated_bytes"`
	Pauses      PauseStat `json:"pause_ns"`
	FinalPauses PauseStat `json:"final_pause_ns"`
	Trap        string    `json:"trap,omitempty"`
}

// Statz is the server snapshot: process-level counters, the shared
// decoder's cache counters (from the process tracer), and one row per
// resident or recently completed tenant.
type Statz struct {
	UptimeSec     float64          `json:"uptime_sec"`
	Programs      []string         `json:"programs"`
	Residents     int              `json:"residents"`
	ResidentWords int64            `json:"resident_words"`
	BudgetWords   int64            `json:"budget_words"`
	MaxTenants    int              `json:"max_tenants"`
	Requests      int64            `json:"requests"`
	Traps         int64            `json:"traps"`
	QuotaTraps    int64            `json:"quota_traps"`
	Refused       int64            `json:"admission_refused"`
	Counters      map[string]int64 `json:"process_counters,omitempty"`
	Tenants       []TenantStat     `json:"tenants"`
}

// Snapshot builds the /statz view.
func (s *Server) Snapshot() Statz {
	s.mu.Lock()
	z := Statz{
		UptimeSec:     time.Since(s.start).Seconds(),
		Residents:     s.residentCount,
		ResidentWords: s.residentWords,
		BudgetWords:   s.cfg.BudgetWords,
		MaxTenants:    s.cfg.MaxTenants,
		Requests:      s.requests,
		Traps:         s.traps,
		QuotaTraps:    s.quotaTraps,
		Refused:       s.refused,
	}
	z.Tenants = append(z.Tenants, s.completed...)
	residents := make(map[*tenant]string, len(s.pool))
	for _, t := range s.pool {
		residents[t] = "idle"
		if t.scheduled {
			residents[t] = "running"
		}
	}
	s.mu.Unlock()
	for t, state := range residents { // quantiles: not under the lock every request takes
		z.Tenants = append(z.Tenants, t.snapStat(state))
	}
	sort.Slice(z.Tenants, func(i, j int) bool { return z.Tenants[i].ID < z.Tenants[j].ID })
	z.Programs = s.Programs()
	if s.tel != nil {
		z.Counters = s.tel.Snapshot().Counters
	}
	return z
}
