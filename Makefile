# Build, vet, test and guard targets. `make check` is the full gate the
# CI (and every PR) should run; the individual targets exist for quick
# local iteration.

GO ?= go

.PHONY: check build vet test flaky race obsdebug benchguard benchsmoke httpsmoke netsmoke placesmoke benchdiff bench

check: build vet test flaky race obsdebug benchguard benchsmoke httpsmoke netsmoke placesmoke benchdiff

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Flake gate: the timestep-loop tests run 20 times in shuffled order on
# one and on two Ps. Their assertions are on counted quantities (pairs,
# messages, bytes, mallocs), so every repetition must pass; a test that
# leans on wall-clock time or runtime malloc noise fails here first.
flaky:
	GOMAXPROCS=1 $(GO) test -count=20 -shuffle=on ./internal/core/...
	GOMAXPROCS=2 $(GO) test -count=20 -shuffle=on ./internal/core/...

# Goroutines share state in the comm substrate, the observability
# layer, and — since the zero-copy typed transport — the core timestep
# loops, whose buffers cross rank goroutines by reference under an
# ownership-transfer contract. The phys worker pool adds a second tier
# of goroutines (intra-rank force tiles). Run them under the race
# detector: for core and phys it is the mechanical check of those
# contracts.
race:
	$(GO) test -race ./internal/comm/... ./internal/obs/... ./internal/core/... ./internal/phys/... ./internal/vec/... ./internal/place/...

# obsdebug builds enforce the Stats single-goroutine ownership contract
# (pool workers never touch Stats; only the rank goroutine stamps).
# internal/obs rides along so the live hub's mid-run serving is also
# exercised under the debug assertions.
obsdebug:
	$(GO) test -tags obsdebug ./internal/trace/... ./internal/comm/... ./internal/core/... ./internal/phys/... ./internal/vec/... ./internal/obs/... ./internal/place/...

# Benchmark guard: the disabled observability path must not allocate
# (asserted by TestDisabledPathAllocs) and the benchmark must run clean.
benchguard:
	$(GO) test -run TestDisabledPathAllocs ./internal/obs/
	$(GO) test -run NONE -bench BenchmarkObsDisabled -benchtime 100000x ./internal/obs/

# Smoke gates: the specialized LJ-cutoff kernel must beat the generic
# per-pair path and the typed transport must beat the serialize-and-ship
# fallback (small thresholds, robust to loaded machines); the
# specialized kernel must not allocate; pooled (workers>1) runs must be
# bitwise-identical to workers=1 with unchanged S/W.
benchsmoke:
	$(GO) run ./cmd/bench -smoke

# Live-telemetry smoke gate: run an observed simulation with the HTTP
# hub serving, scrape /metrics, /trace and /snapshot.json mid-run (all
# must stay well-formed), and check the final communication matrix
# conserves the report's per-phase traffic bitwise.
httpsmoke:
	$(GO) run ./cmd/bench -httpsmoke

# Multi-process transport gate: run each timestep loop once in-process
# and once spanned across OS processes over TCP loopback (-spawn), and
# require bitwise-identical checkpoints plus exactly matching
# communication accounting (obsdiff -exact on message/byte counts and
# measured S/W). Catches any divergence the wire transport introduces.
netsmoke:
	sh scripts/netsmoke.sh

# Placement smoke gate: on the committed p=64 cutoff communication
# matrix over the Balanced3D generic torus, the seeded PSO and
# annealing searchers must beat the identity hop cost and reproduce
# the committed golden objective values bitwise (the searcher
# arithmetic is deterministic). Regenerate the golden file with
# `go test ./internal/place/ -run TestPlaceGolden -update` after an
# intentional searcher change.
placesmoke:
	$(GO) test -run TestPlaceGolden ./internal/place/

# Perf-regression gate: run the quick bench (timesteps, transport,
# placement search, recorder overhead) and diff the result against the
# committed baseline with obsdiff, which exits 1 if any shared metric
# regresses past the threshold. The threshold is deliberately loose —
# wall-clock metrics on a loaded CI machine vary severalfold; the gate
# catches order-of-magnitude regressions (a quadratic slip, a lost fast
# path), while tighter human-reviewed comparisons use obsdiff directly
# on recordings.
benchdiff:
	$(GO) run ./cmd/bench -quick -o /tmp/canbody_benchdiff.json
	$(GO) run ./cmd/obsdiff -threshold 8 BENCH_PR9.json /tmp/canbody_benchdiff.json

# Full benchmark report: kernel microbenchmarks (generic vs specialized,
# pooled worker widths), speedups,
# end-to-end per-step wall times, the typed-vs-encoded transport
# comparison, the rank×worker scaling grid, the placement-searcher
# timings, and the flight-recorder overhead, written to BENCH_PR9.json.
# The obs micro-benchmarks ride along.
bench:
	$(GO) run ./cmd/bench -o BENCH_PR9.json
	$(GO) test -run NONE -bench . -benchtime 1s ./internal/obs/
