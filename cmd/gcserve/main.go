// Command gcserve hosts compiled mthree programs as isolated tenants
// behind an HTTP front end, or drives the built-in load harness.
//
// Serve mode:
//
//	gcserve -addr :8080 prog1.m3 prog2.m3 ...
//
// registers each module (compiled once, instantiated per request) and
// serves POST /run/{program}, the /session lifecycle, GET /statz, and
// GET /eventz. Without source files it registers a built-in demo
// program named "demo".
//
// Load mode:
//
//	gcserve -load -duration 2s [-min-rate N]
//
// drives mixed run/resume traffic against an in-process server and
// prints req/s and the per-tenant pause spread; it exits non-zero on a
// load error or, with -min-rate, below that throughput.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/gcserve"
	"repro/internal/telemetry"
)

// demoSrc allocates on every iteration so tenants exercise the
// collector; the output is the closed-form sum.
const demoSrc = `
MODULE Demo;
TYPE Cell = REF RECORD v: INTEGER; END;
VAR p: Cell; i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 300 DO
    p := NEW(Cell);
    p.v := i;
    s := s + p.v;
  END;
  PutInt(s); PutLn();
END Demo.
`

func main() {
	addr := flag.String("addr", ":8080", "serve address")
	load := flag.Bool("load", false, "run the load harness instead of serving")
	duration := flag.Duration("duration", 2*time.Second, "load drive time")
	clients := flag.Int("clients", 0, "concurrent load clients (0 = 2×workers)")
	runPct := flag.Int("runpct", 50, "percent of load requests that are one-shot runs")
	grant := flag.Int64("grant", 2000, "step grant per session resume")
	workers := flag.Int("workers", runtime.NumCPU(), "scheduler workers")
	heapWords := flag.Int64("heap", 1024, "per-tenant heap words")
	quota := flag.Int64("quota", 0, "per-tenant heap quota words (0 = full semispace)")
	fuel := flag.Int64("fuel", 20_000, "scheduler slice step budget")
	maxTenants := flag.Int("max-tenants", 4096, "resident tenant cap")
	concMark := flag.Bool("concmark", false, "tenants mark mostly-concurrently; /statz reports final-pause SLO rows")
	minRate := flag.Float64("min-rate", 0, "fail load mode below this req/s")
	flag.Parse()

	tel := telemetry.New(telemetry.Config{RingSize: 1 << 14})
	s := gcserve.New(gcserve.Config{
		HeapWords:      *heapWords,
		HeapQuota:      *quota,
		Fuel:           *fuel,
		Workers:        *workers,
		MaxTenants:     *maxTenants,
		ConcurrentMark: *concMark,
		KeepStats:      1 << 14,
		Tel:            tel,
	})
	defer s.Close()

	if flag.NArg() == 0 {
		if err := s.Register("demo", demoSrc, gcserve.DefaultOptions()); err != nil {
			fatal(err)
		}
	}
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if err := s.Register(name, string(src), gcserve.DefaultOptions()); err != nil {
			fatal(err)
		}
		fmt.Printf("registered %q from %s\n", name, path)
	}

	if *load {
		runLoad(s, gcserve.LoadConfig{
			Program:    firstProgram(s),
			Clients:    *clients,
			Duration:   *duration,
			RunPercent: *runPct,
			Grant:      *grant,
		}, *minRate)
		return
	}

	fmt.Printf("gcserve: serving %v on %s\n", s.Programs(), *addr)
	if err := http.ListenAndServe(*addr, s.Handler()); err != nil {
		fatal(err)
	}
}

func firstProgram(s *gcserve.Server) string {
	progs := s.Programs()
	if len(progs) == 0 {
		fatal(fmt.Errorf("no programs registered"))
	}
	return progs[0]
}

func runLoad(s *gcserve.Server, cfg gcserve.LoadConfig, minRate float64) {
	rep, err := gcserve.RunLoad(s, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("gcserve load: %d requests in %.2fs = %.0f req/s (%d runs, %d resumes, %d sessions, %d traps, %d refused)\n",
		rep.Requests, rep.DurationSec, rep.ReqPerSec, rep.Runs, rep.Resumes, rep.SessionsRan, rep.Traps, rep.Refused)
	fmt.Printf("gcserve load: %d tenants measured; per-tenant pause p50 spread %v ns, p99 spread %v ns\n",
		rep.TenantsMeasured, rep.PauseP50AcrossTenantsNs, rep.PauseP99AcrossTenantsNs)
	for _, e := range rep.Errors {
		fmt.Printf("gcserve load: error: %s\n", e)
	}
	if len(rep.Errors) > 0 {
		fatal(fmt.Errorf("load run hit %d errors", len(rep.Errors)))
	}
	if minRate > 0 && rep.ReqPerSec < minRate {
		fatal(fmt.Errorf("throughput %.0f req/s below floor %.0f", rep.ReqPerSec, minRate))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcserve:", err)
	os.Exit(1)
}
