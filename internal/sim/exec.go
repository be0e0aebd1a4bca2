// Epoch-parallel executor (-shard-exec=parallel): run a sharded
// kernel's event streams on a bounded pool of host worker goroutines.
//
// The executor changes which host goroutine runs an event, never the
// order events run in. The kernel's single control token still serializes
// execution — exactly one goroutine executes simulator code at any
// moment, and it executes the globally (time, seq)-minimum event — so
// every stat, oracle observation, fault-RNG draw, and seq assignment is
// byte-identical to merged execution at any worker count, by
// construction. What the mode buys is affinity and overlap: each shard's
// callbacks run on a fixed worker (consecutive same-worker events run
// inline with zero handoffs — the same run-batching the loser tree's
// challenger cache exploits), cross-shard posts are buffered in
// per-shard outboxes and folded in at the epoch barrier, and
// order-independent side channels (the memory-ordering oracle, see
// internal/oracle.Async) drain on their own goroutines concurrently
// with the token holder. On a single-core host the mode measures its
// own overhead; see DESIGN.md §17 for the determinism argument and the
// shared-state analysis of why free-running shard execution is not
// soundly available in this machine model.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ExecMode selects how a sharded kernel executes its merged event
// stream.
type ExecMode int

const (
	// ExecMerged (the default) dispatches every event from the goroutine
	// inside Run and the proc coroutines it switches to.
	ExecMerged ExecMode = iota
	// ExecParallel routes each shard's plain callbacks to a fixed host
	// worker goroutine and buffers cross-shard posts in per-shard
	// outboxes applied at the epoch barrier. Byte-identical to
	// ExecMerged; opt in with -shard-exec=parallel.
	ExecParallel
)

// String returns the flag spelling of the mode.
func (m ExecMode) String() string {
	if m == ExecParallel {
		return "parallel"
	}
	return "merged"
}

// ParseExecMode parses a -shard-exec flag value. The empty string and
// "merged" select ExecMerged.
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "", "merged":
		return ExecMerged, nil
	case "parallel":
		return ExecParallel, nil
	}
	return ExecMerged, fmt.Errorf("unknown shard-exec mode %q (merged or parallel)", s)
}

// execWorker is one pool goroutine. Its channel carries (token +
// callback) in a single send: receiving fn is receiving the control
// token, with the obligation to fire fn and then keep dispatching.
type execWorker struct {
	cont chan func()
}

// execState is the parallel executor: the worker pool, the shard→worker
// map, and the per-source-shard outboxes for deferred cross-shard
// posts. All fields except the atomic counters are touched only by the
// goroutine holding the control token.
type execState struct {
	k       *Kernel
	ss      *shardSet
	workers []*execWorker
	// workerOf maps shard → worker index: contiguous blocks, so the
	// machine layer's contiguous core→shard partition keeps neighboring
	// tiles on one worker.
	workerOf []int32
	// outbox[s] buffers cross-shard posts made while an event of shard s
	// was dispatching; pending counts them and outMin tracks their
	// global minimum so peekMin/popMin cannot run past a deferred post.
	outbox  [][]eventRef
	pending int
	outMin  eventRef

	running bool
	wg      sync.WaitGroup

	// Host-side accounting. The working counters are plain fields owned
	// by the token holder (inline in particular is bumped once per
	// inline event — the executor's hottest path); ExecStats readers
	// get the published atomic mirrors, refreshed at every outbox flush
	// and exact once Run has returned (see publish).
	handoffs uint64
	inline   uint64
	outboxed uint64
	flushes  uint64

	pubHandoffs atomic.Uint64
	pubInline   atomic.Uint64
	pubOutboxed atomic.Uint64
	pubFlushes  atomic.Uint64
}

// SetShardExec selects the executor for a sharded kernel. Must be
// called after Shard and before the first Run; workers below 1 are
// clamped to 1 and above the shard count to the shard count (more
// workers than shards cannot help: a shard's events are inherently
// ordered).
func (k *Kernel) SetShardExec(mode ExecMode, workers int) {
	if k.sh == nil {
		panic("sim: SetShardExec on an unsharded kernel")
	}
	if k.sh.exec != nil {
		panic("sim: SetShardExec called twice")
	}
	if mode != ExecParallel {
		return
	}
	n := len(k.sh.queues)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	ex := &execState{
		k:        k,
		ss:       k.sh,
		workers:  make([]*execWorker, workers),
		workerOf: make([]int32, n),
		outbox:   make([][]eventRef, n),
	}
	for i := range ex.workers {
		ex.workers[i] = &execWorker{cont: make(chan func())}
	}
	for s := 0; s < n; s++ {
		ex.workerOf[s] = int32(s * workers / n)
	}
	k.sh.exec = ex
}

// ShardExecMode returns the executor mode in effect (ExecMerged on a
// serial or merged-execution kernel).
func (k *Kernel) ShardExecMode() ExecMode {
	if k.sh != nil && k.sh.exec != nil {
		return ExecParallel
	}
	return ExecMerged
}

// workerFor returns the pool worker owning a shard's callbacks.
func (ex *execState) workerFor(shard int16) *execWorker {
	return ex.workers[ex.workerOf[shard]]
}

// post buffers a cross-shard ref in the sending shard's outbox instead
// of the target heap. Called from enqueue under the token.
func (ex *execState) post(src int16, ref eventRef) {
	ex.outbox[src] = append(ex.outbox[src], ref)
	if ex.pending == 0 || refLess(ref, ex.outMin) {
		ex.outMin = ref
	}
	ex.pending++
	ex.outboxed++
}

// flushOutboxes folds every deferred cross-shard post into the shard
// heaps. Insertion order is irrelevant — heaps order by (time, seq),
// and seq was assigned at schedule time — so the merged stream is
// exactly what eager delivery would have produced.
func (ss *shardSet) flushOutboxes() {
	ex := ss.exec
	for s := range ex.outbox {
		for _, ref := range ex.outbox[s] {
			ss.push(ref)
		}
		ex.outbox[s] = ex.outbox[s][:0]
	}
	ex.pending = 0
	ex.flushes++
	// The epoch barrier is the amortized moment to refresh the
	// published mirrors for mid-run observers.
	ex.publish()
}

// publish refreshes the published counter mirrors from the token-owned
// fields. Called under the token: at every outbox flush and from
// shardSet.publish on Run's exit paths.
func (ex *execState) publish() {
	ex.pubHandoffs.Store(ex.handoffs)
	ex.pubInline.Store(ex.inline)
	ex.pubOutboxed.Store(ex.outboxed)
	ex.pubFlushes.Store(ex.flushes)
}

// start launches the worker pool. Idempotent across sequential Runs.
func (ex *execState) start() {
	if ex.running {
		return
	}
	ex.running = true
	for _, w := range ex.workers {
		ex.wg.Add(1)
		go ex.workerMain(w)
	}
}

// stop closes every worker channel and joins the pool. Only called by
// Run while it holds the control token, when every worker is parked at
// its channel receive.
func (ex *execState) stop() {
	if !ex.running {
		return
	}
	ex.running = false
	for _, w := range ex.workers {
		close(w.cont)
	}
	ex.wg.Wait()
	for _, w := range ex.workers {
		w.cont = make(chan func())
	}
}

// workerMain is the pool goroutine body: each received callback is the
// control token arriving. Fire it, then keep dispatching from this
// goroutine — consecutive events of shards this worker owns run inline
// with no handoff at all.
func (ex *execState) workerMain(w *execWorker) {
	defer ex.wg.Done()
	k := ex.k
	for fn := range w.cont {
		if !k.fire(fn) {
			k.parkDispatch(w)
			continue
		}
		k.dispatch(nil, w)
	}
}

// stats snapshots the published executor counters (safe from any
// goroutine; exact once Run has returned).
func (ex *execState) stats() *ExecStats {
	return &ExecStats{
		Workers:  len(ex.workers),
		Handoffs: ex.pubHandoffs.Load(),
		Inline:   ex.pubInline.Load(),
		Outboxed: ex.pubOutboxed.Load(),
		Flushes:  ex.pubFlushes.Load(),
	}
}

// ExecStats reports the parallel executor's host-side accounting:
// worker count, token handoffs into the pool, callbacks run inline on
// the worker already holding the token, cross-shard posts deferred
// through outboxes, and outbox flushes (≈ active epoch barriers when
// lookahead violations are zero). Purely host-side — none of it feeds
// any simulated-result report, which is how serial, merged, and
// parallel runs stay cmp-identical. Snapshot semantics, safe mid-run
// from any goroutine; mid-run values may trail the live run by up to
// one epoch (mirrors refresh at outbox flushes), and are exact once
// Run has returned.
type ExecStats struct {
	Workers  int    `json:"workers"`
	Handoffs uint64 `json:"handoffs"`
	Inline   uint64 `json:"inline"`
	Outboxed uint64 `json:"outboxed"`
	Flushes  uint64 `json:"flushes"`
}

// ExecStats returns the parallel executor's counters, or nil when the
// kernel is serial or running the merged executor.
func (k *Kernel) ExecStats() *ExecStats {
	if k.sh == nil || k.sh.exec == nil {
		return nil
	}
	return k.sh.exec.stats()
}
