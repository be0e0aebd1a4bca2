# Standard gates for this repo. `make ci` is what a change must pass.

GO ?= go

SMOKES := parallel-smoke pdes-smoke pdes-exec-smoke chaos-smoke chaos-lossy-smoke oracle-smoke open-smoke bench-smoke fuzz-smoke serve-smoke bench-check-smoke

.PHONY: all ci smokes fmt vet build test race $(SMOKES) bench bench-check bench-plot

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

# A serial or merged run stays on the goroutine that called Run (procs
# are coroutines it switches to), but the epoch-parallel shard executor
# (PR 10) runs real worker goroutines inside the kernel, and they resume
# proc coroutines too, so internal/sim and the bench layer
# (singleflight caches, Prewarm worker pool, the parallel-vs-serial
# determinism tests) get the full -cpu=1,2,4 spread; the other
# concurrent packages — wsrt, openload, serve, store — run at the
# default GOMAXPROCS.
race:
	$(GO) test -race -cpu=1,2,4 ./internal/sim ./internal/bench/...
	$(GO) test -race ./internal/mem ./internal/graph ./internal/fault ./internal/wsrt ./internal/openload ./internal/serve ./internal/store

# Host-parallel determinism gate: fan a target subset out over 4
# workers; the render pass reads only the warmed cache, so this passing
# plus the bench determinism tests means -j cannot change any result
# (see EXPERIMENTS.md "Host-parallel runs").
parallel-smoke:
	$(PAPERBENCH) -size test -apps cilk5-cs,ligra-bfs -j 4 table4 fig6 uli

# Sharded-kernel equivalence gate: the same run serial and on a 4-way
# conservative-lookahead sharded kernel must print byte-identical
# reports (shard accounting goes to stderr precisely so this cmp can
# hold; see DESIGN.md "Conservative-lookahead parallel simulation").
pdes-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(BTSIM) -config bT/HCC-DTS-gwb -app cilk5-cs -size test > "$$dir/serial.txt" && \
	$(BTSIM) -config bT/HCC-DTS-gwb -app cilk5-cs -size test -shards 4 > "$$dir/sharded.txt" && \
	cmp "$$dir/serial.txt" "$$dir/sharded.txt" && echo "pdes-smoke: serial and 4-shard runs identical"

# Epoch-parallel executor equivalence gate: the same runs with each
# simulation's shard event streams on a pool of host workers
# (-shard-exec parallel) must print byte-identical rendered tables AND
# a byte-identical -json metric export (executor accounting goes to
# stderr, like shard accounting; see DESIGN.md §17).
pdes-exec-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(PAPERBENCH) -size test -apps cilk5-cs -shards 1 -json "$$dir/serial.json" table4 uli > "$$dir/serial.txt" && \
	$(PAPERBENCH) -size test -apps cilk5-cs -shards 4 -shard-exec parallel -json "$$dir/par.json" table4 uli > "$$dir/par.txt" && \
	cmp "$$dir/serial.txt" "$$dir/par.txt" && cmp "$$dir/serial.json" "$$dir/par.json" && \
	echo "pdes-exec-smoke: serial and 4-shard parallel-executor runs identical (tables and JSON)"

# A fast end-to-end chaos pass: two apps under every stock scenario on
# the 8-core chaos machine, output verified against the serial
# reference (see EXPERIMENTS.md "Fault injection & chaos runs").
chaos-smoke:
	$(PAPERBENCH) -apps cilk5-cs,ligra-bfs chaos

# Survivability pass: one app under the lossy-ULI and core-loss
# scenarios (steal messages dropped, a tiny core fail-stopped mid-run);
# the run must still produce the reference output, with the oracle
# shadowing every memory operation (see EXPERIMENTS.md "Recovery
# experiments").
chaos-lossy-smoke:
	$(PAPERBENCH) -apps cilk5-cs -faults lossy-uli,core-loss chaos

# Memory-ordering oracle pass on a fault-free run: zero violations and
# zero simulated-cycle overhead expected.
oracle-smoke:
	$(BTSIM) -config bT8/HCC-DTS-gwb -app cilk5-cs -oracle

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
# -benchtime=1x are noise; `make bench` produces the real ones.
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

# Regenerate BENCH_PR10.json and append this commit's measurement to
# the cumulative BENCH.json trajectory: the kernel microbenchmark, a
# strictly serial ref-size table3 pass, and the same worklist on 2/4/8
# conservative-lookahead kernel shards under both the merged and the
# epoch-parallel executors, measured on this host. The PR file's
# "before" baseline section is preserved; only "after" and the derived
# speedup ratios are rewritten (see EXPERIMENTS.md "Profiling and
# benchmarking").
bench:
	$(GO) run ./cmd/paperbench bench

# Render the BENCH.json trajectory to the committed static page
# (inline SVG, no scripts, no external assets).
bench-plot:
	$(GO) run ./cmd/paperbench bench-plot

# Perf-regression gate: re-measure every series in bench/gates.toml and
# compare against the baselines recorded in BENCH.json; exits non-zero
# only when a series' whole confidence interval lands past its
# threshold (see EXPERIMENTS.md "Regression gating"). Bless intentional
# changes with:  go run ./cmd/paperbench bench-check -update-baseline
bench-check:
	$(GO) run ./cmd/paperbench bench-check

# Single-cell deterministic gate for ci: exercises the whole measure →
# summarize → compare → verdict → exit-code pipeline in under a second,
# on bit-identical simulated cycles, so it cannot flake on any host.
bench-check-smoke:
	$(PAPERBENCH) bench-check -gates bench/gates-smoke.toml -iterations 2
