package gcserve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadConfig shapes the synthetic load: Clients concurrent callers
// issuing mixed traffic for Duration — a fraction of one-shot runs and
// a pool of persistent sessions resumed in small grants.
type LoadConfig struct {
	Program string
	// Clients is the number of concurrent request loops (default 2×Workers).
	Clients int
	// Duration bounds the drive phase.
	Duration time.Duration
	// RunPercent of requests are one-shot runs; the rest resume a
	// session from the client's pool (default 50).
	RunPercent int
	// Grant is the per-resume step grant (default 2000).
	Grant int64
	// WantOutput, when non-empty, makes the drive divergence-fatal:
	// every completed request's output (cumulative, for sessions) must
	// equal it bit-exactly — the serial-execution reference the caller
	// computed by running the program once through the driver. A
	// mismatch is recorded as an error and clears OutputsMatch.
	WantOutput string
}

// LoadReport is one load drive's measurement: sustained request
// throughput over the tenant pool plus the cross-tenant distribution of
// per-tenant gc pause quantiles.
type LoadReport struct {
	Config      LoadConfig
	DurationSec float64
	Requests    int64
	Runs        int64
	Resumes     int64
	SessionsRan int64
	Traps       int64
	Refused     int64
	ReqPerSec   float64
	// OutputsChecked counts completed requests diffed against
	// LoadConfig.WantOutput; OutputsMatch is false if any diverged.
	OutputsChecked int64
	OutputsMatch   bool
	// MinorTotal and MajorTotal sum the per-tenant generational split
	// across the measured tenants (zero unless Config.Generational).
	MinorTotal int64
	MajorTotal int64
	// TenantsMeasured is how many completed tenants contributed pause
	// distributions below.
	TenantsMeasured int
	// PauseP50AcrossTenantsNs aggregates each tenant's own p50/p99
	// pause across the tenant population: [min, p50, p99, max] of the
	// per-tenant values.
	PauseP50AcrossTenantsNs [4]int64
	PauseP99AcrossTenantsNs [4]int64
	Errors                  []string
}

func (c *LoadConfig) fill(workers int) {
	if c.Clients <= 0 {
		c.Clients = 2 * workers
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.RunPercent <= 0 || c.RunPercent > 100 {
		c.RunPercent = 50
	}
	if c.Grant <= 0 {
		c.Grant = 2000
	}
}

// RunLoad drives s with mixed run/resume traffic and reports achieved
// throughput plus per-tenant pause quantiles. The server must already
// have cfg.Program registered.
func RunLoad(s *Server, cfg LoadConfig) (*LoadReport, error) {
	cfg.fill(s.cfg.Workers)
	if _, err := s.lookup(cfg.Program); err != nil {
		return nil, err
	}

	var requests, runs, resumes, sessions, traps, refused atomic.Int64
	var checked, diverged atomic.Int64
	var mu sync.Mutex
	var errs []string
	fail := func(f string, args ...any) {
		mu.Lock()
		if len(errs) < 16 {
			errs = append(errs, fmt.Sprintf(f, args...))
		}
		mu.Unlock()
	}
	// checkOutput diffs a completed request's output against the serial
	// reference: any divergence — between tenants, between one-shot and
	// resumed execution, or across gc activity — is a correctness bug in
	// the collector/scheduler stack, not load noise.
	checkOutput := func(kind, got string) {
		if cfg.WantOutput == "" {
			return
		}
		checked.Add(1)
		if got != cfg.WantOutput {
			diverged.Add(1)
			fail("%s output diverged: got %d bytes %q, want %d bytes", kind, len(got), truncate(got, 64), len(cfg.WantOutput))
		}
	}

	started := time.Now()
	deadline := started.Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client owns at most one session at a time and
			// interleaves one-shot runs per RunPercent.
			var session string
			seq := c
			for time.Now().Before(deadline) {
				seq++
				// Interleave runs and resumes at the requested ratio
				// (seq·P mod 100 lands below P exactly P times per 100,
				// spread evenly) instead of a block pattern, so short or
				// slowed drives still exercise both request kinds.
				if (seq*cfg.RunPercent)%100 < cfg.RunPercent {
					res, err := s.RunProgram(cfg.Program)
					requests.Add(1)
					runs.Add(1)
					switch {
					case err == ErrAdmission:
						refused.Add(1)
					case err != nil:
						fail("run: %v", err)
						return
					case res.Trap != "":
						traps.Add(1)
					case !res.Done:
						fail("run not done: %+v", res)
						return
					default:
						checkOutput("run", res.Output)
					}
					continue
				}
				if session == "" {
					id, err := s.OpenSession(cfg.Program)
					if err == ErrAdmission {
						refused.Add(1)
						continue
					}
					if err != nil {
						fail("open: %v", err)
						return
					}
					session = id
				}
				res, err := s.Resume(session, cfg.Grant)
				requests.Add(1)
				resumes.Add(1)
				if err != nil {
					fail("resume: %v", err)
					return
				}
				if res.Done || res.Trap != "" {
					sessions.Add(1)
					if res.Trap != "" {
						traps.Add(1)
					} else {
						// Session output is cumulative, so a completed
						// session must match the serial run bit-exactly.
						checkOutput("session", res.Output)
					}
					session = ""
				}
			}
			if session != "" {
				_ = s.CloseSession(session)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(started)

	// Collect per-tenant pause quantiles and the generational
	// minor/major split from the completed ring.
	z := s.Snapshot()
	var p50s, p99s []int64
	var minor, major int64
	for _, row := range z.Tenants {
		minor += row.Minor
		major += row.Major
		if row.Pauses.Count == 0 {
			continue
		}
		p50s = append(p50s, row.Pauses.P50Ns)
		p99s = append(p99s, row.Pauses.P99Ns)
	}

	rep := &LoadReport{
		Config:                  cfg,
		DurationSec:             elapsed.Seconds(),
		Requests:                requests.Load(),
		Runs:                    runs.Load(),
		Resumes:                 resumes.Load(),
		SessionsRan:             sessions.Load(),
		Traps:                   traps.Load(),
		Refused:                 refused.Load(),
		OutputsChecked:          checked.Load(),
		OutputsMatch:            diverged.Load() == 0,
		MinorTotal:              minor,
		MajorTotal:              major,
		TenantsMeasured:         len(p50s),
		PauseP50AcrossTenantsNs: spread(p50s),
		PauseP99AcrossTenantsNs: spread(p99s),
		Errors:                  errs,
	}
	if elapsed > 0 {
		rep.ReqPerSec = float64(rep.Requests) / elapsed.Seconds()
	}
	return rep, nil
}

// truncate bounds s for an error message.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// spread summarizes vs as [min, p50, p99, max].
func spread(vs []int64) [4]int64 {
	if len(vs) == 0 {
		return [4]int64{}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(vs)-1))
		return vs[i]
	}
	return [4]int64{vs[0], at(0.50), at(0.99), vs[len(vs)-1]}
}
