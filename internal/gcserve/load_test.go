package gcserve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/vmachine"
)

// serialOutput runs src once through the driver on a plain machine —
// no server, no slicing, no concurrency — and returns its output: the
// reference every load-driven tenant must reproduce bit-exactly.
func serialOutput(t *testing.T, src string, heapWords int64) string {
	t.Helper()
	c, err := driver.Compile("session.m3", src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = heapWords
	var sb strings.Builder
	cfg.Out = &sb
	m, _, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestLoadGenerationalSessions is the server-workload pin, run under
// -race by make race: a generational server drives ≥64 tenants of the
// session-cache program through mixed one-shot and session-resume
// traffic, and every completed request's output must equal the serial
// reference bit-exactly while per-tenant /statz rows carry populated
// pause quantiles and the minor/major split.
func TestLoadGenerationalSessions(t *testing.T) {
	const (
		requests   = 120
		cacheEvery = 8
		perReq     = 16
	)
	src := SessionWorkloadSource(requests, cacheEvery, perReq)
	want := SessionWorkloadWant(requests, cacheEvery, perReq)
	if got := serialOutput(t, src, 1<<13); got != want {
		t.Fatalf("serial output %q, closed form %q", got, want)
	}

	s := newTestServer(t, Config{
		HeapWords:    1 << 13,
		Workers:      4,
		Fuel:         2500, // slice every run so sessions park and resume
		Generational: true,
		MaxTenants:   512,
		KeepStats:    2048,
	})
	mustRegister(t, s, "session", src, DefaultOptions())

	rep, err := RunLoad(s, LoadConfig{
		Program:    "session",
		Clients:    16,
		Duration:   1500 * time.Millisecond,
		RunPercent: 40, // bias toward session resumes
		Grant:      5000,
		WantOutput: want,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("load errors: %v", rep.Errors)
	}
	if !rep.OutputsMatch || rep.OutputsChecked == 0 {
		t.Fatalf("outputs diverged from serial reference: checked=%d match=%v",
			rep.OutputsChecked, rep.OutputsMatch)
	}
	if rep.Runs == 0 || rep.Resumes == 0 || rep.SessionsRan == 0 {
		t.Fatalf("load mix degenerate: runs=%d resumes=%d sessions=%d",
			rep.Runs, rep.Resumes, rep.SessionsRan)
	}
	if rep.Traps != 0 {
		t.Fatalf("tenant traps under load: %d", rep.Traps)
	}
	if rep.TenantsMeasured < 64 {
		t.Fatalf("tenants with populated pause quantiles = %d, want >= 64", rep.TenantsMeasured)
	}
	if rep.PauseP99AcrossTenantsNs[3] <= 0 {
		t.Fatalf("per-tenant pause quantiles not populated: %v", rep.PauseP99AcrossTenantsNs)
	}
	if rep.MinorTotal == 0 {
		t.Fatal("generational server reported no minor collections")
	}

	// The /statz rows themselves must expose the generational split the
	// report aggregated.
	z := s.Snapshot()
	var withMinor int
	for _, row := range z.Tenants {
		if row.Minor > 0 {
			withMinor++
		}
	}
	if withMinor < 64 {
		t.Fatalf("tenant rows with minor collections = %d, want >= 64", withMinor)
	}
}
