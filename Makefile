# Developer workflow. `make check` is the pre-PR gate: formatting, vet,
# the project lint, full build, the full test suite, the race-enabled
# slice over the concurrent subsystems, and the allocation guards.
# `make check-full` adds the fuzz smoke, the benchmark module's smoke
# run and the coverage floor, then drives a differential sweep, the
# serving load harness and the collector phase microbenchmarks once.

GO ?= go

# Per-target budget for the fuzz smoke; it runs both targets, so it
# costs about twice this.
FUZZTIME ?= 15s

.PHONY: check check-full fmt vet lint build test-all race allocs fuzz-smoke bench-check cover diff-smoke bench-telemetry

check: fmt vet lint build test-all race allocs

# The sweep runs 40 seeds over the whole differential matrix, whose
# cells all carry the heap-liveness on/off dimension; the load drive is
# mixed run/resume traffic through the multi-tenant server; the Phase
# microbenchmarks exercise the collector's per-phase timers.
check-full: check fuzz-smoke bench-check cover
	$(GO) run ./cmd/difffuzz -n 40 -seed 7 -out artifacts/difffuzz-heaplive
	$(GO) run ./cmd/gcserve -load -duration 2s
	$(GO) test -run '^$$' -bench Phase -benchtime 1x ./internal/gc/

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific static checks (internal/lint): range-over-map in the
# packages where iteration order would leak into generated code or gc
# tables and break compile determinism — the optimizer, the analyses and
# the register allocator it feeds, codegen and the table encoder.
lint:
	$(GO) run ./cmd/gclint

build:
	$(GO) build ./...

# Race slice: the concurrent subsystems — the decode cache and parallel
# stack walker (gctab, gc), the mark bitmap the trace workers race on
# (heap), the generational collector that walks through them (gengc),
# the telemetry tracer they all feed, and what many goroutines share at
# serving time: the per-program dispatch table (vmachine, driver) and
# the tenant scheduler with its slice-boundary stat rows (gcserve).
race:
	$(GO) test -race ./internal/telemetry/... ./internal/heap/... ./internal/gc/... ./internal/gctab/... ./internal/gengc/... ./internal/vmachine/... ./internal/driver/... ./internal/gcserve/...

# The allocation guards in one command. A steady-state collection (gc),
# a steady-state minor (gengc), a scheduler slice with its stat-row
# update (gcserve), and a slow-path allocation that collects (vmachine)
# must not allocate; a compile of each paper program (driver) must stay
# under its ceiling.
allocs:
	$(GO) test -count=1 -run Allocs ./internal/gc ./internal/gengc ./internal/gcserve ./internal/vmachine ./internal/driver

test-all:
	$(GO) test ./...

bench-telemetry:
	$(GO) test -bench . -benchmem ./internal/telemetry/

# The repository's benchmark (BENCHMARK.json, benchmark/) is a module of
# its own, so `go build ./... && go test ./...` never compiles it. It
# reads the collectors' exported surface (FramesTraced, StackTraceTime,
# TotalTime, the phase times, SetTracer, ...): this builds it, runs its
# tests and every workload at smoke size, so a change that breaks that
# surface fails here rather than when the benchmark is next run.
bench-check:
	$(GO) -C benchmark test ./...
	bash benchmark/run.sh --quick

# Fuzz smoke: a short budgeted run of both native fuzz targets — the
# table decoder against damaged bytes, and the differential matrix
# against generated programs. New inputs found land in the build
# cache's fuzz corpus ($(shell $(GO) env GOCACHE)/fuzz), which CI
# caches across runs so coverage accumulates.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run '^$$' -fuzz '^FuzzProgram$$' -fuzztime $(FUZZTIME) ./internal/difftest/

# Differential sweep: the full collector × scheme × cache × workers
# matrix over 200 generated programs; writes reduced reproducers on
# failure. Slower than fuzz-smoke — a pre-release gate, not per-push.
diff-smoke:
	$(GO) run ./cmd/difffuzz -n 200 -seed 1 -out artifacts/difffuzz-findings

# Coverage with a checked-in floor: the build fails if total statement
# coverage drops below ci/coverage-floor.txt. Raise the floor when new
# tests lift the total; never lower it to make a regression pass.
cover:
	mkdir -p artifacts
	$(GO) test -count=1 -coverprofile=artifacts/cover.out ./...
	@total=$$($(GO) tool cover -func=artifacts/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	floor=$$(cat ci/coverage-floor.txt); \
	echo "coverage: $$total% (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $$floor% floor"; exit 1; }
