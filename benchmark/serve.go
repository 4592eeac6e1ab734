package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/gcserve"
	"repro/internal/gctab"
	"repro/internal/gengc"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// The serve workloads: a closed loop of serveClients callers, each sending
// its next request when the previous one returns, against one scheduler
// worker. Two callers keep the single worker saturated, so 1/req_per_s is
// the worker's time per request; two workers on two cores did not repeat
// within a tenth. The numbers are the same on every host by construction.
const (
	serveClients = 2
	serveProgram = "session"
	// SessionWorkloadSource(120, 8, 16): ≈31k steps, 5 minor collections.
	sessionRequests, sessionCacheEvery, sessionPerReq = 120, 8, 16
	resumeGrant                                       = 500 // steps per Resume on serve.sessions
)

var serveConfig = gcserve.Config{Workers: 1, Generational: true, HeapWords: 1 << 13, Fuel: 2500}

// serveRunner drives one server. oneshot selects 100 % RunProgram; otherwise
// every request is a Resume on the client's own open session.
type serveRunner struct {
	env
	oneshot bool
	srv     *gcserve.Server
	c       *driver.Compiled // the registered program, compiled the way Register compiles it
	prog    *compiledProgram
	want    string
	steps   int64 // a completed program executes exactly these
	gcs     int64
	chk     checker
}

func setupServe(oneshot bool) func(env) (runner, error) {
	return func(e env) (runner, error) {
		r := &serveRunner{env: e, oneshot: oneshot, want: expectedOutput("serve.session")}
		src := gcserve.SessionWorkloadSource(sessionRequests, sessionCacheEvery, sessionPerReq)
		opts := gcserve.DefaultOptions()
		opts.Generational = serveConfig.Generational
		var err error
		if r.c, r.prog, err = compileChecked(&r.chk, serveProgram+".m3", src, opts); err != nil {
			return nil, err
		}
		r.srv = gcserve.New(serveConfig)
		if err := r.srv.Register(serveProgram, src, gcserve.DefaultOptions()); err != nil {
			r.srv.Close()
			return nil, err
		}
		// Warm-up: a fixed number of requests, so set-up does the same
		// work on every host. The first completed program fixes the
		// exact counts the rest must repeat.
		first, err := r.srv.RunProgram(serveProgram)
		if err != nil {
			r.srv.Close()
			return nil, err
		}
		r.steps, r.gcs = first.Steps, first.Collections
		r.chk.op(r.checkDone(first))
		warm := 4000
		if oneshot {
			warm = 200
		}
		if e.quick {
			warm /= 20
		}
		c := &client{r: r}
		for i := 0; i < warm; i++ {
			c.request()
		}
		c.closeSession()
		r.chk.merge(&c.chk)
		return r, nil
	}
}

func (r *serveRunner) sizes() (int, int)     { return r.prog.table, r.prog.code }
func (r *serveRunner) setupChecks() *checker { return &r.chk }
func (r *serveRunner) close()                { r.srv.Close() }

// checkDone checks a completed program against the hand-written output and
// the exact counts.
func (r *serveRunner) checkDone(res gcserve.RunResult) error {
	switch {
	case res.Trap != "":
		return fmt.Errorf("trap: %s", res.Trap)
	case !res.Done:
		return fmt.Errorf("request %s not done", res.ID)
	case res.Output != r.want:
		return mismatch("output", res.Output, r.want)
	case res.Steps != r.steps:
		return mismatch("steps", res.Steps, r.steps)
	}
	return mismatch("collections", res.Collections, r.gcs)
}

// client is one closed-loop caller. It owns its samples and its tracer, so
// the measuring path takes no lock of the benchmark's.
type client struct {
	r       *serveRunner
	session string
	chk     checker
	done    int64 // programs run to completion
	slices  int64 // … and the scheduler slices they took

	latNs []float64 // wall time of each good request since the last drain
	tr    *tracer   // set while a traced window runs
	ops   int
}

// request sends one request and checks it. A request that fails, traps or
// is refused is counted failed and contributes no latency sample.
func (c *client) request() {
	r := c.r
	var res gcserve.RunResult
	var err error
	t0 := time.Now()
	s := c.tr.begin("gcserve.request", -1, c.ops)
	if r.oneshot {
		res, err = r.srv.RunProgram(serveProgram)
	} else {
		if c.session == "" {
			// Opening is part of the first resume's latency, as it is
			// for a real caller.
			c.session, err = r.srv.OpenSession(serveProgram)
		}
		if err == nil {
			res, err = r.srv.Resume(c.session, resumeGrant)
		}
	}
	c.tr.end(s)
	ns := float64(time.Since(t0))
	c.ops++
	switch {
	case err != nil:
	case res.Trap != "":
		err = fmt.Errorf("trap: %s", res.Trap)
		c.session = ""
	case res.Done || r.oneshot:
		err = r.checkDone(res)
		c.session = ""
		c.done++
		c.slices += res.Slices
	}
	if c.chk.op(err) {
		c.latNs = append(c.latNs, ns)
	}
}

func (c *client) closeSession() {
	if c.session != "" {
		c.chk.op(c.r.srv.CloseSession(c.session))
		c.session = ""
	}
}

// run drives the server one window at a time: the clients loop until the
// window's deadline, each finishing the request it has in flight. Sessions
// stay open across windows. A traced run traces every other window, so the
// traced and the plain figures see the same host, and follows each window
// with a stretch of the direct baseline for the same reason.
func (r *serveRunner) run(d time.Duration, traced bool) *measurement {
	m := &measurement{}
	// Windows of one second; a shorter run is one window.
	n := max(int(d/time.Second), 1)
	width := d / time.Duration(n)
	var direct *directBaseline
	if traced {
		n = max(n, 2)
		direct = &directBaseline{r: r, tr: newTracer(time.Now())}
	}
	clients := make([]*client, serveClients)
	tracers := make([]*tracer, serveClients, serveClients+1)
	for i := range clients {
		clients[i] = &client{r: r}
		if traced {
			tracers[i] = newTracer(direct.tr.epoch)
		}
	}
	var plain, spanned []window
	host := newHostClock()
	for w := 0; w < n; w++ {
		tracing := traced && w%2 == 1
		start := time.Now()
		deadline := start.Add(width)
		var wg sync.WaitGroup
		for i, c := range clients {
			c.tr = nil
			if tracing {
				c.tr = tracers[i]
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					c.request()
				}
			}()
		}
		wg.Wait()
		win := window{seconds: time.Since(start).Seconds()}
		host.mark()
		win.factor = host.factor()
		for _, c := range clients {
			win.latNs = append(win.latNs, c.latNs...)
			c.latNs = c.latNs[:0]
		}
		if tracing {
			spanned = append(spanned, win)
		} else {
			plain = append(plain, win)
		}
		if traced {
			direct.runFor(width / 4)
		}
	}
	var done, slices, requests int64
	for _, c := range clients {
		c.closeSession()
		m.chk.merge(&c.chk)
		done += c.done
		slices += c.slices
		requests += int64(c.ops)
	}
	measured := plain
	if traced {
		_, plainP50, _, _ := windowMedians(plain, r.tailPct)
		m.plainOpMs = plainP50 / 1e6
		measured = spanned
	}
	rate, p50, tail, smallest := windowMedians(measured, r.tailPct)
	var latSum float64
	for i := range measured {
		m.ops += len(measured[i].latNs)
		for _, ns := range measured[i].latNs {
			latSum += ns
		}
	}
	m.hostFactor = median(host.seen)
	m.stalls = smallest
	m.opMs = p50 / 1e6
	m.opsPerS = rate
	m.stallP50Us, m.stallTailUs = p50/1e3, tail/1e3
	if !traced || m.ops == 0 || rate == 0 {
		return m
	}

	// The layer budget of a request, in raw time like every layer metric.
	// The worker's time per request is 1/req_per_s (it is saturated); what
	// the same steps cost without a server is the direct baseline; the
	// difference is what gcserve adds, and what is left of the caller's
	// latency is queueing.
	for i := range measured {
		measured[i].factor = 1
	}
	rate, _, _, _ = windowMedians(measured, r.tailPct)
	m.traceDone(append(tracers, direct.tr)...)
	l := direct.layers(m.rows) // its span names are its own
	m.chk.merge(&direct.chk)
	m.e2eNs = int64(latSum) + direct.rootNs
	workerUs := 1e6 / rate
	l["serve_requests"] = float64(m.ops)
	l["serve_worker_us"] = workerUs
	l["serve_direct_us"] = direct.perRequestUs
	l["serve_overhead_us"] = workerUs - direct.perRequestUs
	l["serve_overhead_pct"] = 100 * (workerUs - direct.perRequestUs) / workerUs
	l["serve_queue_wait_us"] = latSum/1e3/float64(m.ops) - workerUs
	if done > 0 {
		// Slices per request: a one-shot's own, a session's spread over
		// its resumes.
		l["serve_slices"] = float64(slices) / float64(done)
		if !r.oneshot {
			l["serve_slices"] /= float64(requests) / float64(done)
		}
	}
	z := r.srv.Snapshot()
	var minors, majors, pauseP99 []float64
	for _, t := range z.Tenants {
		if t.State != "done" {
			continue
		}
		minors = append(minors, float64(t.Minor))
		majors = append(majors, float64(t.Major))
		if t.Pauses.Count > 0 {
			pauseP99 = append(pauseP99, float64(t.Pauses.P99Ns)/1e3)
		}
	}
	l["serve_refused"], l["serve_traps"] = float64(z.Refused), float64(z.Traps)
	l["gengc_minors"], l["gengc_majors"], l["gengc_pause_p99_us"] = median(minors), median(majors), median(pauseP99)
	m.layers = l
	return m
}

// genProbe times the generational collector's stops in the direct-run
// baseline, the way gcProbe does for the full collector.
type genProbe struct {
	*gengc.Collector
	tr         *tracer
	parent, op int
}

func (p *genProbe) Collect(m *vmachine.Machine) error {
	s := p.tr.begin("gengc.collect", p.parent, p.op)
	err := p.Collector.Collect(m)
	p.tr.end(s)
	return err
}

// directBaseline executes the served program without the server, on this
// goroutine: the same image, per-tenant tracer, shared pinned decoder and
// fuel slices a tenant gets, so its spans are the driver, vmachine and gengc
// shares of a request's worker time.
type directBaseline struct {
	r   *serveRunner
	tr  *tracer
	chk checker

	programs, requests, steps, allocBytes int64
	goBytes                               uint64

	rootNs       int64   // set by layers
	perRequestUs float64 // set by layers
}

// runFor executes whole programs for about d.
func (b *directBaseline) runFor(d time.Duration) {
	r, tr := b.r, b.tr
	fuel := serveConfig.Fuel
	if !r.oneshot {
		fuel = resumeGrant
	}
	dec := gctab.Pinned(r.c.SharedDecoder())
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		op := int(b.programs)
		var out strings.Builder
		cfg := vmachine.Config{
			HeapWords: serveConfig.HeapWords, StackWords: 1 << 12, MaxThreads: 1,
			Out: &out, Tel: telemetry.New(telemetry.Config{RingSize: 512}),
		}
		before := goAllocBytes()
		root := tr.begin("direct.op", -1, op)
		s := tr.begin("driver.instantiate", root, op)
		m, col, err := r.c.NewGenerationalMachineWithDecoder(cfg, dec)
		tr.end(s)
		b.goBytes += goAllocBytes() - before
		if err != nil {
			tr.end(root)
			b.chk.op(err)
			return
		}
		probe := &genProbe{Collector: col, tr: tr, op: op}
		m.Collector = probe
		slices := int64(0)
		for done := false; !done && err == nil; slices++ {
			probe.parent = tr.begin("vmachine.run", root, op)
			done, err = m.RunFuel(fuel)
			tr.end(probe.parent)
		}
		tr.end(root)
		b.chk.op(err, mismatch("direct output", out.String(), r.want), mismatch("direct steps", m.Steps, r.steps),
			mismatch("direct collections", m.GCCount, r.gcs))
		b.programs++
		b.steps += m.Steps
		b.allocBytes += col.Heap.AllocatedBytes()
		if r.oneshot {
			slices = 1 // a one-shot request is the whole program
		}
		b.requests += slices
	}
}

// layers turns what runFor gathered, and the rows of its spans, into
// per-program layer metrics.
func (b *directBaseline) layers(rows []layerStat) map[string]float64 {
	for _, row := range rows {
		if row.Name == "direct.op" {
			b.rootNs = row.BusyNs
		}
	}
	n := float64(max(b.programs, 1))
	vmSelf := max(selfOf(rows, "vmachine.run"), 1)
	gcSelf := selfOf(rows, "gengc.collect")
	b.perRequestUs = float64(b.rootNs) / 1e3 / float64(max(b.requests, 1))
	return map[string]float64{
		"driver_instantiate_us": float64(selfOf(rows, "driver.instantiate")) / 1e3 / n,
		"driver_alloc_bytes":    float64(b.goBytes) / n,
		"vm_self_ms":            float64(vmSelf) / 1e6 / n,
		"vm_steps":              float64(b.steps) / n,
		"vm_msteps_per_s":       float64(b.steps) / 1e6 / (float64(vmSelf) / 1e9),
		"vm_alloc_bytes":        float64(b.allocBytes) / n,
		"gc_self_ms":            float64(gcSelf) / 1e6 / n,
		"gc_share_pct":          100 * float64(gcSelf) / float64(max(b.rootNs, 1)),
		"gc_collections":        float64(b.r.gcs),
	}
}
