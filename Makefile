# Build, vet, test and guard targets. `make check` is the full gate the
# CI (and every PR) should run; the individual targets exist for quick
# local iteration.

GO ?= go

.PHONY: check build vet test flaky race obsdebug benchguard netsmoke placesmoke perfbenchtest

check: build vet test flaky race obsdebug benchguard netsmoke placesmoke perfbenchtest

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
# layer (the live hub serves /series.json, /metrics, /trace and
# /matrix.json while a run writes them — TestSeriesServesMidRun), and
# the core timestep loops, whose buffers cross rank goroutines by
# reference under the typed transport's ownership-transfer contract.
# The phys worker pool adds a second tier of goroutines (intra-rank
# force tiles). Run them under the race detector: for core and phys it
# is the mechanical check of those contracts.
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

# Multi-process transport gate: run each timestep loop once in-process
# and once spanned across OS processes over TCP loopback (-spawn), and
# require bitwise-identical checkpoints plus exactly matching
# communication accounting (obsdiff -exact on message/byte counts and
# measured S/W). Catches any divergence the wire transport introduces.
netsmoke:
	sh scripts/netsmoke.sh

# Placement smoke gate: on the committed p=64 cutoff communication
# matrix over the Balanced3D generic torus, the greedy constructor and
# the seeded annealing searcher must beat the identity hop cost and
# reproduce the committed golden objective values bitwise (the
# searcher arithmetic is deterministic). Regenerate the golden file with
# `go test ./internal/place/ -run TestPlaceGolden -update` after an
# intentional searcher change.
placesmoke:
	$(GO) test -run TestPlaceGolden ./internal/place/

# The benchmark's own tests: a tiny run of every BENCHMARK.json
# workload in both modes, the exact-count checks and VerifySerial, and
# the statistics behind its A/B verdict. perfbench is a module of its
# own, so the root `go test ./...` cannot reach it.
perfbenchtest:
	cd perfbench && $(GO) test ./...
