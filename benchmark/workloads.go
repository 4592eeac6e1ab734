package main

// workloads are the benchmark's contract: the names, the inputs and the
// reason each is here. BENCHMARK.json repeats name and why; TestManifest
// keeps the two equal.
var workloads = []workload{
	{
		name:    "compile.corpus",
		why:     "driver.Compile only, over the four paper sources plus 64 seeded programs: the compiler passes do all the work and vmachine/gc none, so a pass-level change shows here and nowhere else",
		tailPct: 90, // ~110 passes in ten seconds, the pass being the finest thing a user waits for
		setup:   setupCorpus,
	},
	{
		name:    "mutator.takl",
		why:     "TaklLoopSource(10) at the default heap, zero collections: threaded dispatch, fusions and the bump-allocation fast path do all the work; the workload interpreter changes must hold",
		tailPct: 90, // ~150 runs in ten seconds: p90 is the highest percentile with ten samples beyond it
		setup:   setupExec(&execSpecs[0]),
	},
	{
		name:    "gc.destroy",
		why:     "destroy tree of ~109k live words in a tight heap, 85 collections a run: mark/assign/copy/fixup dominate and the stack walk is under 0.2 % of collect time",
		tailPct: 99,
		setup:   setupExec(&execSpecs[1]),
	},
	{
		name:    "gc.deepstack",
		why:     "the same gc layer used the other way: 500 collections at the bottom of a 220-frame stack with a tiny live heap, so walk and table decode are a third of collect time and copy is negligible",
		tailPct: 99,
		setup:   setupExec(&execSpecs[2]),
	},
	{
		name:    "gc.concurrent",
		why:     "churn plus ballast on four green threads with concurrent marking: the only workload through the rendezvous, SATB barrier, mark bursts and final pause",
		tailPct: 99,
		setup:   setupExec(&execSpecs[3]),
	},
	{
		name:    "serve.oneshot",
		why:     "closed loop, 2 clients on 1 worker, every request a whole program (~31k steps, 5 minor collections, 13 slices): instantiate, interpret, collect, retire: the server's fixed cost per tenant",
		tailPct: 99,
		setup:   setupServe(true),
	},
	{
		name:    "serve.sessions",
		why:     "same server, every request a 500-step Resume on an open session: a few microseconds of interpretation per request, so enqueue, hand-off and park dominate and instantiation is amortised",
		tailPct: 99,
		setup:   setupServe(false),
	},
}
