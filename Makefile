# Standard gates for this repo. `make ci` is what a change must pass.

GO ?= go

SMOKES := golden-check parallel-smoke open-smoke bench-smoke fuzz-smoke serve-smoke

.PHONY: all ci smokes fmt vet build test race $(SMOKES) golden-bless golden-ref cover trajectory

all: ci

# The smokes drive the three CLIs. ci builds them once into a temp dir
# and hands it down as BIN; a smoke run on its own go-runs what it needs.
ifdef BIN
BTSIM := $(BIN)/btsim
PAPERBENCH := $(BIN)/paperbench
SIMD := $(BIN)/simd
else
BTSIM := $(GO) run ./cmd/btsim
PAPERBENCH := $(GO) run ./cmd/paperbench
SIMD := $(GO) run ./cmd/simd
endif

ci: fmt vet build test race
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/" ./cmd/btsim ./cmd/paperbench ./cmd/simd && \
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
# host concurrency is around it: the bench layer's singleflight caches
# and Prewarm worker pool, and the wsrt, openload, serve and store
# packages, all at the default GOMAXPROCS.
race:
	$(GO) test -race ./internal/sim ./internal/bench/... ./internal/mem ./internal/graph ./internal/fault ./internal/wsrt ./internal/openload ./internal/serve ./internal/store

# Byte-identity against the past: re-run the commands whose full
# output docs/golden holds and compare byte for byte; a mismatch prints
# the first differing line. They are test-size `all` with a hash of its
# -json; `chaos` on two apps under every stock scenario (the lossy ones
# included), each run verified against the serial reference with the
# oracle on; the stock open sweep at ref and test size with a hash of
# the test-size -open-json; a fault-free -oracle verdict; and a mid-run
# -deadline dump. golden-bless rewrites them; a PR that re-blesses says
# why in CHANGES.md (see docs/golden/golden.sh).
golden-check:
	@sh docs/golden/golden.sh check $(BIN)

golden-bless:
	@sh docs/golden/golden.sh bless $(BIN)

# The ref half: `paperbench -size ref table3 table4` (13 apps, about
# 30 s on 2 CPUs, so not in ci) against docs/results-ref.txt lines 1-33
# and the blank line after them. Run it on any change under
# internal/{sim,cpu,cache,noc,uli,dram,wsrt,apps,machine}.
golden-ref:
	@sh docs/golden/golden.sh ref $(BIN)

# Coverage that counts the goldens (not in ci, about 30 s): the go test
# counters merged with those of -cover builds of btsim, paperbench and
# simd running every golden command and the simd smoke. Prints every
# function at 0 % and the total. The binaries take plain -cover, which
# instruments every package of the module: with -coverpkg added,
# go1.24 builds write no counter files.
cover:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	mkdir "$$dir/bin" "$$dir/run" "$$dir/test" "$$dir/all" && \
	$(GO) build -cover -o "$$dir/bin/" ./cmd/btsim ./cmd/paperbench ./cmd/simd && \
	GOCOVERDIR="$$dir/run" sh docs/golden/golden.sh check "$$dir/bin" && \
	GOCOVERDIR="$$dir/run" "$$dir/bin/simd" -smoke >/dev/null && \
	$(GO) test -count=1 -cover -coverpkg=./internal/... ./... -args -test.gocoverdir="$$dir/test" >/dev/null && \
	$(GO) tool covdata merge -i="$$dir/run,$$dir/test" -o "$$dir/all" && \
	$(GO) tool covdata textfmt -i="$$dir/all" -o "$$dir/cover.out" && \
	$(GO) tool cover -func="$$dir/cover.out" | awk '$$NF == "0.0%" || /^total:/'

# Host-parallel determinism gate: fan a target subset out over 4
# workers; the render pass reads only the warmed cache, so this passing
# plus the bench determinism tests means -j cannot change any result
# (see EXPERIMENTS.md "Host-parallel runs").
parallel-smoke:
	$(PAPERBENCH) -size test -apps cilk5-cs,ligra-bfs -j 4 table4 fig6 uli view

# Open-system determinism gate: the same bursty overload run under full
# lossy chaos, twice, must print byte-identical reports (seeded
# arrivals, exact latency percentiles, and the shed accounting identity
# are all deterministic; see EXPERIMENTS.md "Open-system experiments").
open-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(BTSIM) -open -config bT8/HCC-DTS-gwb -workload rmat-query -arrival bursty \
		-rate 8 -requests 32 -open-seed 1 -inflight 8 -faults chaos-lossy-all > "$$dir/a.txt" && \
	$(BTSIM) -open -config bT8/HCC-DTS-gwb -workload rmat-query -arrival bursty \
		-rate 8 -requests 32 -open-seed 1 -inflight 8 -faults chaos-lossy-all > "$$dir/b.txt" && \
	cmp "$$dir/a.txt" "$$dir/b.txt" && echo "open-smoke: identical under chaos-lossy-all"

# One pass over every Go benchmark (kernel microbenchmarks and the
# end-to-end artifact benchmarks) so a perf-rig regression — a bench
# that panics, a metric that stops compiling — fails ci. Numbers from
# -benchtime=1x are noise; `go run ./benchmark` produces the real ones.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/sim .

# Five seconds of the event-queue fuzzer (pushes, stops, waits against a
# sorted model; see internal/sim/queue_test.go). A crasher lands in
# internal/sim/testdata/fuzz and fails every later `go test` until it
# is fixed. Minimising each new-coverage input would eat the budget, so
# that is capped at one run.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzEventQueue -fuzztime 5s -fuzzminimizetime 1x ./internal/sim

# Service self-test: start simd on a random port with a temp store,
# POST a tiny job under the full lossy chaos scenario, assert HTTP 200,
# the ULI accounting identity (reqs == acks + nacks + drops) in the
# returned JSON, and a byte-identical repeat; then drain gracefully via
# a real SIGTERM and exit 0 (see EXPERIMENTS.md "Running the service").
serve-smoke:
	$(SIMD) -smoke

# Render the BENCH.json trajectory to the committed static page
# (inline SVG, no scripts, no external assets). Import a benchmark run
# first with:  go run ./cmd/paperbench trajectory RESULT.json
trajectory:
	$(GO) run ./cmd/paperbench trajectory
