# Standard gates for this repo. `make ci` is what a change must pass.

GO ?= go

SMOKES := golden-check parallel-smoke open-smoke bench-smoke fuzz-smoke serve-smoke

.PHONY: all ci smokes fmt vet build test race $(SMOKES) golden-bless golden-ref cover trajectory

all: ci

# The smokes drive the CLIs and the examples. ci builds them once into
# a temp dir and hands it down as BIN; a smoke run on its own go-runs
# (or, for the goldens, builds) what it needs.
ifdef BIN
BTSIM := $(BIN)/btsim
PAPERBENCH := $(BIN)/paperbench
SIMD := $(BIN)/simd
else
BTSIM := $(GO) run ./cmd/btsim
PAPERBENCH := $(GO) run ./cmd/paperbench
SIMD := $(GO) run ./cmd/simd
endif

# Every main package outside benchmark/: golden-check runs all but
# simd, which serve-smoke runs.
MAINS := ./cmd/btsim ./cmd/paperbench ./cmd/simd ./cmd/rmatgen ./examples/quickstart ./examples/granularity

ci: fmt vet build test race
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/" $(MAINS) && \
	$(MAKE) --no-print-directory smokes BIN="$$dir"

smokes: $(SMOKES)

# gofmt -l prints the files it would rewrite; any name is a failure.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# A run stays on the goroutine that called Run (procs are coroutines it
# switches to), so the kernel has no goroutines of its own to race. The
# host concurrency is around it: the bench layer's memo of finished
# cells and Prewarm worker pool, the per-shape pools of released
# machines (internal/machine), and the wsrt, openload, serve and store
# packages, all at the default GOMAXPROCS. TestDeadlineDumpMatchesParanoid runs
# one app on one goroutine, 1 290 times: it is over half the leg under
# -race and has no host concurrency to race, so it runs in the test leg
# only. Planted races (a lock dropped in the carrier free list, the
# machine pools, Suite.do or the store tier's memory) are still caught
# here without it (CHANGES.md).
race:
	$(GO) test -race -skip '^TestDeadlineDumpMatchesParanoid$$' ./internal/sim ./internal/machine ./internal/bench/... ./internal/mem ./internal/graph ./internal/fault ./internal/wsrt ./internal/openload ./internal/serve ./internal/store

# Byte-identity against the past: re-run the commands whose full
# output docs/golden holds and compare byte for byte; a mismatch prints
# the first differing line. They are test-size `all` with a hash of its
# -json; `chaos` on two apps under every stock scenario (the lossy ones
# included), each run verified against the serial reference with the
# oracle on; the stock open sweep at ref and test size with a hash of
# the test-size -open-json; a fault-free -oracle verdict; a mid-run
# -deadline dump; a test-size `btsim -trace` run with a hash of its
# trace; the quickstart and granularity examples; and `rmatgen -stats`.
# It also re-renders docs/bench.html from BENCH.json. golden-bless
# rewrites them; a PR that re-blesses says why in
# CHANGES.md (see docs/golden/golden.sh).
golden-check:
	@sh docs/golden/golden.sh check $(BIN)

golden-bless:
	@sh docs/golden/golden.sh bless $(BIN)

# The ref half: `paperbench -size ref all` (about 80 s on 2 CPUs, so
# not in ci) against the whole of docs/results-ref.txt. Run it on any
# change under internal/{sim,cpu,cache,noc,uli,dram,wsrt,apps,machine}.
golden-ref:
	@sh docs/golden/golden.sh ref $(BIN)

# Coverage that counts the goldens (not in ci, about 40 s). First the
# product alone: -cover builds of every main package run every golden
# command, one open-smoke run, parallel-smoke's run and both simd
# smokes (memory-only and with a store), and their counters print per
# package, then every function they leave at 0 % and the total.
# DESIGN.md "What the shipped commands run" gives each of those
# functions a verdict. Then the same counters merged with
# go test's: every function still at 0 % and the total. The binaries
# take plain -cover, which instruments every package of the module:
# with -coverpkg added, go1.24 builds write no counter files.
cover:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	mkdir "$$dir/bin" "$$dir/run" "$$dir/test" "$$dir/all" && \
	$(GO) build -cover -o "$$dir/bin/" $(MAINS) && \
	GOCOVERDIR="$$dir/run" sh docs/golden/golden.sh check "$$dir/bin" && \
	GOCOVERDIR="$$dir/run" "$$dir/bin/btsim" $(OPEN_RUN) >/dev/null && \
	GOCOVERDIR="$$dir/run" "$$dir/bin/paperbench" $(PARALLEL_RUN) >/dev/null && \
	GOCOVERDIR="$$dir/run" "$$dir/bin/simd" -smoke >/dev/null && \
	GOCOVERDIR="$$dir/run" "$$dir/bin/simd" -smoke -store "$$dir/store" >/dev/null && \
	echo "product (the shipped commands alone):" && \
	$(GO) tool covdata percent -i="$$dir/run" && \
	$(GO) tool covdata textfmt -i="$$dir/run" -o "$$dir/run.out" && \
	$(GO) tool cover -func="$$dir/run.out" | awk '$$NF == "0.0%" || /^total:/' && \
	$(GO) test -count=1 -cover -coverpkg=./internal/... ./... -args -test.gocoverdir="$$dir/test" >/dev/null && \
	$(GO) tool covdata merge -i="$$dir/run,$$dir/test" -o "$$dir/all" && \
	$(GO) tool covdata textfmt -i="$$dir/all" -o "$$dir/cover.out" && \
	echo "product and go test merged:" && \
	$(GO) tool cover -func="$$dir/cover.out" | awk '$$NF == "0.0%" || /^total:/'

# Host-parallel determinism gate: fan a target subset out over 4
# workers; the render pass reads only the warmed cache, so this passing
# plus the bench determinism tests means -j cannot change any result
# (see EXPERIMENTS.md "Host-parallel runs").
PARALLEL_RUN := -size test -apps cilk5-cs,ligra-bfs -j 4 table4 fig6 uli view

parallel-smoke:
	$(PAPERBENCH) $(PARALLEL_RUN)

# Open-system determinism gate: the same bursty overload run under full
# lossy chaos, twice, must print byte-identical reports (seeded
# arrivals, exact latency percentiles, and the shed accounting identity
# are all deterministic; see EXPERIMENTS.md "Open-system experiments").
OPEN_RUN := -open -config bT8/HCC-DTS-gwb -workload rmat-query -arrival bursty \
	-rate 8 -requests 32 -open-seed 1 -inflight 8 -faults chaos-lossy-all

open-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(BTSIM) $(OPEN_RUN) > "$$dir/a.txt" && \
	$(BTSIM) $(OPEN_RUN) > "$$dir/b.txt" && \
	cmp "$$dir/a.txt" "$$dir/b.txt" && echo "open-smoke: identical under chaos-lossy-all"

# One pass over the Go benchmarks (the kernel microbenchmarks and
# BenchmarkMachineNew/{fresh,recycled}), so one that panics or stops
# compiling fails ci. Numbers from -benchtime=1x are noise;
# `go run ./benchmark` produces the real ones.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/sim ./internal/machine

# Five seconds each of every fuzz target: the event-queue fuzzer
# (pushes, stops, waits against a sorted model; see
# internal/sim/queue_test.go), the L1 op-stream fuzzer (each protocol's
# word-mask invariants and the L2 directory's after every op; see
# internal/cache/fuzz_test.go), the store record reader (exact payload
# or a miss on arbitrary bytes; see internal/store/fuzz_test.go), the
# trajectory import (no panic, and a rejected result file changes
# nothing; see internal/bench/trajectory_test.go) and the simd job
# decoder (a refusal or a valid job, canonical bytes a fixed point,
# one key per job; see internal/serve/fuzz_test.go). A crasher lands
# in the package's testdata/fuzz and fails every later `go test` until
# it is fixed.
# Minimising each new-coverage input would eat the budget, so that is
# capped at one run.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzEventQueue -fuzztime 5s -fuzzminimizetime 1x ./internal/sim
	$(GO) test -run xxx -fuzz FuzzL1Ops -fuzztime 5s -fuzzminimizetime 1x ./internal/cache
	$(GO) test -run xxx -fuzz FuzzStoreDecode -fuzztime 5s -fuzzminimizetime 1x ./internal/store
	$(GO) test -run xxx -fuzz FuzzTrajectoryImport -fuzztime 5s -fuzzminimizetime 1x ./internal/bench
	$(GO) test -run xxx -fuzz FuzzJobRequest -fuzztime 5s -fuzzminimizetime 1x ./internal/serve

# Service self-test, twice: memory-only, then with a store in a temp
# directory. Each run starts simd on a random port, POSTs a tiny job
# under the full lossy chaos scenario, asserts HTTP 200, the ULI
# accounting identity (reqs == acks + nacks + drops) in the returned
# JSON, and a byte-identical repeat answered from memory; then drains
# gracefully via a real SIGTERM and exits 0 (see EXPERIMENTS.md
# "Running the service").
serve-smoke:
	$(SIMD) -smoke
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(SIMD) -smoke -store "$$dir"

# Render the BENCH.json trajectory to the committed static page
# (inline SVG, no scripts, no external assets). Import a benchmark run
# first with:  go run ./cmd/paperbench trajectory RESULT.json
trajectory:
	$(GO) run ./cmd/paperbench trajectory
