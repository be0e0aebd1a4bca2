// Command simd is the long-running simulation service daemon: an
// HTTP/JSON API over the bench suite with a bounded worker pool,
// admission control, poison-job quarantine, per-job deadlines, a
// crash-safe disk result store, and graceful drain on SIGTERM.
//
// Usage:
//
//	simd [-addr host:port] [-store dir] [-workers N] [-queue N]
//	     [-deadline cycles] [-wall-timeout d] [-drain d]
//	     [-quarantine-after N] [-no-verify]
//	simd -smoke
//
// Endpoints:
//
//	POST /v1/jobs      run one (config, app, size, grain, faults, seed)
//	                   tuple; returns the canonical result JSON,
//	                   byte-identical to `paperbench -json`
//	GET  /healthz      liveness, pool and store counters, quarantine list
//	GET  /v1/scenarios the fault-injection scenario registry
//	GET  /v1/configs   machine configurations
//	GET  /v1/apps      application kernels
//
// See EXPERIMENTS.md "Running the service" for curl examples.
package main

import (
	"os"

	"bigtiny/internal/serve"
)

func main() {
	os.Exit(serve.Main(os.Args[1:]))
}
