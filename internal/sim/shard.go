// Event sharding: the conservative-lookahead (PDES) decomposition of
// one simulation into K event shards.
//
// Shard partitions the kernel's event queue into K independent heaps.
// Every event is owned by exactly one shard: a proc's resumes land on
// its home shard (NewProcOn), a plain callback lands on the shard of
// the event that scheduled it, and explicit message deliveries name the
// receiving shard with AtOn. The dispatcher merges the shard heaps by
// the same global (time, seq) order the serial kernel uses — so
// dispatch order, and therefore every stat, oracle observation, and
// fault-injection draw, is byte-identical to the serial kernel at any K
// and any partition, by construction rather than by luck.
//
// The merge itself is a champion/challenger cache over the K shard
// roots (DESIGN.md §17): peeking the global minimum is O(1), and a run
// of events on one shard re-consults nothing but the cached challenger
// bound, so consecutive same-shard events dispatch in O(1). Repairing
// a champion change has two regimes: at K ≤ 8 one branch-predictable
// scan of the packed root columns recomputes champion and exact
// challenger together (and makes pushes O(1) folds), while larger K
// uses a tournament tree that re-evaluates only the path of the shard
// whose root changed, O(log K) — which is what makes K = 64 viable
// (the original linear scan paid O(K) per event and made K = 8 slower
// than serial).
//
// The lookahead is the machine layer's promise that cross-shard
// interactions are latency-bounded: no event executing in shard A may
// schedule an event on shard B sooner than `lookahead` cycles out
// (for the mesh machines, the minimum cross-shard NoC hop latency).
// The kernel verifies the promise on every cross-shard post and counts
// breaches as lookahead violations — a violation cannot corrupt
// results here (order is globally merged regardless), but it falsifies
// the bound the epoch-parallel executor's outbox batching relies on,
// so the equivalence suite asserts zero.
//
// Epoch accounting quantifies the parallelism the decomposition
// exposes: time is divided into epochs of `lookahead` cycles, and for
// each epoch that fired at least one event the kernel records how many
// distinct shards were active. Within one epoch, events on different
// shards are causally independent (any influence needs a cross-shard
// post, which lands at least one epoch later), so the mean active-shard
// count is exactly the speedup ceiling for a lock-step epoch-parallel
// executor on this workload. See DESIGN.md §16 and §17.
package sim

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
)

// maxShards bounds K so epoch accounting fits one active-shard bitmask
// (and matches the 64-tile machine this decomposition targets).
const maxShards = 64

// shardQueue is one shard's private slice of the event queue. The
// host-performance counters are plain fields owned by the control-token
// holder (the token moves by coroutine switch or worker-channel send,
// both happens-before edges, so single-writer discipline holds); paying an
// atomic RMW per event on them is measurable at ref scale. External
// observers — watchdogs, serving layers, tests — read the published
// mirrors instead, refreshed every epochPublishStride active epochs and
// exact once Run returns (see shardSet.publish).
type shardQueue struct {
	q            eventHeap
	tombstones   int
	scheduled    uint64
	fired        uint64
	pubScheduled atomic.Uint64
	pubFired     atomic.Uint64
}

// shardSet is all sharding state, hung off the kernel as one pointer so
// the serial hot paths pay a single nil check.
type shardSet struct {
	queues    []shardQueue
	lookahead Time
	// dispatching is the shard of the event currently firing, or -1
	// outside dispatch (setup code before Run). Plain callbacks inherit
	// it; cross-shard accounting is suppressed at -1 so setup posts
	// (initial proc resumes) are not misread as shard traffic.
	dispatching int16

	// Tournament-tree merge state. width is the leaf count (the shard
	// count rounded up to a power of two; padding leaves are permanently
	// empty). tree is a winner tree laid out as a flat array: leaf s
	// lives at tree[width+s] (holding s, fixed), internal node i holds
	// the winning leaf of the match between tree[2i] and tree[2i+1], and
	// tree[1] is the champion — the shard whose cached root is the
	// global minimum. Any one leaf's change re-plays only its own
	// root-ward path, one comparison per level (unlike a loser tree,
	// whose cheap replay is sound only for the champion's leaf — and
	// pushes, timer stops, and compactions change arbitrary leaves
	// here). key[s]/live[s] cache shard s's live heap root; the
	// eager-skim invariant (every mutation re-skims the touched root)
	// guarantees a cached key is never a tombstone, so live[s] is
	// exactly len(queues[s].q) > 0 and liveCount>0 replaces the old
	// O(K) hasQueued scan. key and live are width-sized: a dead or
	// padding leaf holds the refInf sentinel, which sorts after every
	// real key, so match comparisons are pure key compares with no
	// liveness branch (see beats).
	width     int32
	tree      []int32
	key       []eventRef
	live      []bool
	liveCount int
	// chal is the challenger bound: a key no larger than every live
	// leaf except the champion, or refInf when the champion has no live
	// rival (exact right after a replay, and only ever conservatively
	// low afterwards — pushes that lower another leaf fold themselves
	// in). While the champion's fresh root still beats chal it is still
	// the global minimum, so a run of same-shard events pops in O(1)
	// without touching the tree.
	chal eventRef
	// flat selects the small-K merge (width ≤ 8): the tree's internal
	// nodes are abandoned and a champion change is repaired by one
	// branch-predictable pass over the packed (keyAt, keySeq) columns —
	// two cache lines for eight shards — that yields the champion AND
	// the exact challenger at once. At small K the scan beats the
	// tree's replay walks (profiling showed interleaved per-core ticks
	// make the champion switch, not the same-shard run, the hot case),
	// and it makes every push O(1): a dethroned champion's key is by
	// definition the minimum of every other leaf, so it folds straight
	// into chal with no walk at all. keyAt/keySeq mirror key[] at every
	// write in both modes (two stores; the stress oracle checks the
	// mirror), but only the flat path reads them.
	flat   bool
	keyAt  []Time
	keySeq []uint64
	// second (flat mode) is the leaf that last achieved the chal bound
	// — the champion-elect. When the champion's run ends, that leaf is
	// the next global minimum, making the champion SWITCH O(1) as well:
	// the interleaved per-core tick pattern that defeats the same-shard
	// run fast path pops scan, switch, scan, switch instead of scanning
	// every event. The field may go stale (its root popped, cancelled,
	// or compacted away); popMin revalidates it at use — live and still
	// holding exactly the chal key — so staleness costs a rescan, never
	// correctness. -1 when nothing is known.
	second int32
	// third/towner extend the ladder one level: while thirdOK, third is
	// never above any live root outside {champion, second} (towner is
	// the leaf that last achieved it). It is what lets a champion
	// SWITCH hand the incoming champion a useful challenger bound —
	// min(the outgoing shard's fresh root, third), both in hand — so a
	// two-shard ping-pong (cores ticking alternate cycles, the measured
	// hot pattern) runs entirely on O(1) switches with no rescans at
	// all. Falls fold through the ladder top-down (push); a fall that
	// would need information below the ladder clears thirdOK, and the
	// next slow pop pays one rescan to re-establish everything exactly.
	third   eventRef
	towner  int32
	thirdOK bool

	// exec is the epoch-parallel executor state (ExecParallel mode);
	// nil under the default merged execution. See exec.go.
	exec *execState

	// Cross-shard traffic counters (atomic: see shardQueue).
	crossPosts atomic.Uint64
	violations atomic.Uint64

	// Epoch accounting: mask collects the shards that fired in the
	// current epoch (index = at / lookahead); a fire in a later epoch
	// flushes it into the totals. Only epochs with at least one event
	// count — idle epochs are free for any executor. epochEnd caches
	// (epoch+1)*lookahead so the per-event same-epoch test is a compare,
	// not a 64-bit division. mask/activeEpochs/shardEpochSum are
	// token-owned working counters (with small lookaheads an epoch
	// boundary is nearly as hot as the event path — ref-scale bT runs
	// flush around a million epochs); the pub* fields are their
	// published atomic mirrors for ShardStats readers, refreshed every
	// epochPublishStride active epochs and on every Run exit, so neither
	// a shard switch nor an ordinary epoch flush touches an atomic.
	epoch            Time
	epochEnd         Time
	mask             uint64
	activeEpochs     uint64
	shardEpochSum    uint64
	pubActiveMask    atomic.Uint64
	pubActiveEpochs  atomic.Uint64
	pubShardEpochSum atomic.Uint64
}

// epochPublishStride is how many active epochs may elapse between
// refreshes of the published ShardStats mirrors (power of two). At the
// smallest lookaheads this is a few thousand simulated cycles — far
// below anything a watchdog or serving-layer sampler can distinguish.
const epochPublishStride = 1024

// Shard partitions an empty kernel into n event shards with the given
// conservative lookahead (cycles). It must be called before any proc or
// event is created; the partition is fixed for the kernel's lifetime.
// n = 1 is valid (one shard holding everything) and exercises the same
// code paths. The lookahead must be at least 1 cycle.
func (k *Kernel) Shard(n int, lookahead Time) {
	if n < 1 || n > maxShards {
		panic(fmt.Sprintf("sim: Shard(%d) outside [1,%d]", n, maxShards))
	}
	if lookahead < 1 {
		panic("sim: Shard with zero lookahead")
	}
	if k.sh != nil {
		panic("sim: Shard called twice")
	}
	if k.queue.len() > 0 || len(k.slots) > 0 || len(k.procs) > 0 {
		panic("sim: Shard on a non-empty kernel")
	}
	width := int32(1)
	for int(width) < n {
		width <<= 1
	}
	ss := &shardSet{
		queues:      make([]shardQueue, n),
		lookahead:   lookahead,
		dispatching: -1,
		width:       width,
		tree:        make([]int32, 2*width),
		key:         make([]eventRef, width),
		live:        make([]bool, width),
		chal:        refInf,
		flat:        width <= 8,
		second:      -1,
		third:       refInf,
		towner:      -1,
		keyAt:       make([]Time, width),
		keySeq:      make([]uint64, width),
		epochEnd:    lookahead,
	}
	for i := range ss.key {
		ss.key[i] = refInf
		ss.keyAt[i] = refInf.at
		ss.keySeq[i] = refInf.seq
	}
	ss.rebuild()
	k.sh = ss
}

// Sharded reports whether Shard was called.
func (k *Kernel) Sharded() bool { return k.sh != nil }

// NumShards returns the number of event shards (1 on a serial kernel).
func (k *Kernel) NumShards() int {
	if k.sh == nil {
		return 1
	}
	return len(k.sh.queues)
}

// Lookahead returns the sharded kernel's conservative lookahead in
// cycles (0 on a serial kernel).
func (k *Kernel) Lookahead() Time {
	if k.sh == nil {
		return 0
	}
	return k.sh.lookahead
}

// cur returns the shard new plain callbacks belong to: the shard of the
// event currently dispatching, or shard 0 during setup.
func (ss *shardSet) cur() int16 {
	if ss.dispatching < 0 {
		return 0
	}
	return ss.dispatching
}

// refInf is the dead-leaf sentinel key. No real ref ever reaches
// seq ^uint64(0) (seq counts up from zero), so refInf sorts strictly
// after every schedulable event: dead and padding leaves lose every
// match on the key compare alone, with no liveness branch in beats.
var refInf = eventRef{at: Forever, seq: ^uint64(0)}

// leafLive reports whether tree leaf a holds a live cached root
// (padding leaves beyond the shard count never do; live is
// width-sized so this is a single load).
func (ss *shardSet) leafLive(a int32) bool {
	return ss.live[a]
}

// setKey writes shard s's cached root and its packed-column mirror.
// Every key write goes through here so the flat scan never sees a
// stale column.
func (ss *shardSet) setKey(s int32, ref eventRef) {
	ss.key[s] = ref
	ss.keyAt[s] = ref.at
	ss.keySeq[s] = ref.seq
}

// flatRescan recomputes the champion, the exact challenger, and the
// challenger's owner (the champion-elect) with one pass over the
// packed root columns (flat mode only). Dead and padding leaves hold
// the refInf sentinel and never strictly beat a live key, so the scan
// has no liveness branch; live (time, seq) pairs are unique, so no
// index tie-break is needed either. All leaves dead leaves the
// champion at leaf 0 with leafLive false — exactly what peekMin/popMin
// treat as empty — and chal at refInf (a dead runner-up is rejected by
// popMin's liveness revalidation, so second needs no special casing).
func (ss *shardSet) flatRescan() {
	at, sq := ss.keyAt, ss.keySeq
	bAt, bSeq := at[0], sq[0]
	cAt, cSeq := refInf.at, refInf.seq
	dAt, dSeq := refInf.at, refInf.seq
	b, c, d := 0, -1, -1
	for s := 1; s < len(at) && s < len(sq); s++ {
		a, q := at[s], sq[s]
		if a < bAt || a == bAt && q < bSeq {
			dAt, dSeq, d = cAt, cSeq, c
			cAt, cSeq, c = bAt, bSeq, b
			bAt, bSeq, b = a, q, s
		} else if a < cAt || a == cAt && q < cSeq {
			dAt, dSeq, d = cAt, cSeq, c
			cAt, cSeq, c = a, q, s
		} else if a < dAt || a == dAt && q < dSeq {
			dAt, dSeq, d = a, q, s
		}
	}
	ss.tree[1] = int32(b)
	ss.chal = eventRef{at: cAt, seq: cSeq}
	ss.second = int32(c)
	ss.third = eventRef{at: dAt, seq: dSeq}
	ss.towner = int32(d)
	ss.thirdOK = true
}

// beats reports whether leaf a's entry precedes leaf b's in the global
// (time, seq) dispatch order. Live keys never tie (seq is unique);
// dead leaves all hold refInf and tie-break by index — deterministic
// but meaningless (a dead champion is never popped, and a dead subtree
// winner only ever answers the question "is anything in there live":
// no).
func (ss *shardSet) beats(a, b int32) bool {
	ka, kb := ss.key[a], ss.key[b]
	if ka.at != kb.at {
		return ka.at < kb.at
	}
	if ka.seq != kb.seq {
		return ka.seq < kb.seq
	}
	return a < b
}

// winner plays internal match i: the better of its two children.
func (ss *shardSet) winner(i int32) int32 {
	l, r := ss.tree[2*i], ss.tree[2*i+1]
	if ss.beats(r, l) {
		return r
	}
	return l
}

// rebuild runs the whole tournament bottom-up. Construction only; every
// later repair replays one leaf's path.
func (ss *shardSet) rebuild() {
	for s := int32(0); s < ss.width; s++ {
		ss.tree[ss.width+s] = s
	}
	for i := ss.width - 1; i >= 1; i-- {
		ss.tree[i] = ss.winner(i)
	}
}

// updateFall repairs the tree after leaf s's key fell (a push, or s
// going live), for s not the reigning champion. The climb stops at the
// first match s loses: the rival there already beat s's old, larger
// key (or s was never the winner below it), so that node and every
// ancestor are unchanged — s just tightens the champion's challenger
// bound in O(1). When s instead wins through to the root it is the new
// champion, and the siblings it beat on the way up are exactly the
// rival subtree winners: their minimum is the new challenger, derived
// for free from values the matches already loaded.
// The walk carries s's key in a register and loads each rival's key
// once, serving both the match and the challenger fold (beats would
// re-load both keys per level).
func (ss *shardSet) updateFall(s int32) {
	ks := ss.key[s]
	chal := refInf
	for j := ss.width + s; j > 1; j >>= 1 {
		c := ss.tree[j^1]
		kc := ss.key[c]
		if kc.at < ks.at || kc.at == ks.at && (kc.seq < ks.seq || kc.seq == ks.seq && c < s) {
			if refLess(ks, ss.chal) {
				ss.chal = ks
			}
			return
		}
		if refLess(kc, chal) {
			chal = kc
		}
		ss.tree[j>>1] = s
	}
	ss.chal = chal
}

// updateRise re-plays the matches along leaf s's root-ward path after
// s's key rose, died, or otherwise changed arbitrarily (a pop, a
// stopped timer, a compaction). The walk carries the surviving winner
// up and folds every beaten rival into a fresh challenger bound. When
// s itself ends up champion the folded siblings are exactly the rival
// subtree winners, so chal is the exact global second minimum with no
// second walk. When the title moves to another leaf the fold is NOT
// exhaustive — the new champion's own former subtree-mates were
// represented only by the champion itself — so the challenger is
// recomputed along the new champion's path (the price the old scheme
// paid on every replay, now only on a champion change).
func (ss *shardSet) updateRise(s int32) {
	cur := s
	kcur := ss.key[s]
	chal := refInf
	meet := ss.width + s
	for j := ss.width + s; j > 1; j >>= 1 {
		c := ss.tree[j^1]
		kc := ss.key[c]
		if kc.at < kcur.at || kc.at == kcur.at && (kc.seq < kcur.seq || kc.seq == kcur.seq && c < cur) {
			// c takes over as carrier. The displaced carrier won every
			// match below j, so its key is the exact minimum of the whole
			// subtree rooted at j — the takeover node's sibling subtree —
			// and subsumes everything folded so far: reset the fold to it.
			chal = kcur
			cur, kcur = c, kc
			meet = j ^ 1
		} else if refLess(kc, chal) {
			chal = kc
		}
		ss.tree[j>>1] = cur
	}
	if cur != s {
		// The fold covers every subtree hanging off the carrier's path
		// from the last takeover up — but not the new champion's own
		// former subtree-mates below that point (the champion itself
		// represented them in every folded match). Fold its sub-path
		// below the takeover node; in the common case of a takeover near
		// the leaves this is zero or one level, not a full second walk.
		for j := ss.width + cur; j != meet; j >>= 1 {
			if kc := ss.key[ss.tree[j^1]]; refLess(kc, chal) {
				chal = kc
			}
		}
	}
	ss.chal = chal
}

// push inserts ref into its shard's heap and repairs the merge tree.
// An interior insert (the shard's root is unchanged) touches nothing;
// an insert that lowers the reigning champion's own root is O(1) (it
// still wins every match it won); only an insert that lowers another
// shard's root replays that one path.
func (ss *shardSet) push(ref eventRef) {
	s := int32(ref.shard)
	sq := &ss.queues[s]
	sq.q.push(ref)
	if ss.live[s] && !refLess(ref, ss.key[s]) {
		return
	}
	if !ss.live[s] {
		ss.live[s] = true
		ss.liveCount++
	}
	ss.setKey(s, ref)
	if s == ss.tree[1] {
		return
	}
	if ss.flat {
		// O(1): a fall enters the ladder at whatever rung it beats and
		// shifts the displaced rungs down — no walk. A dethroned
		// champion's key, as the minimum of every other leaf, IS the
		// exact new challenger, and the displaced challenger (never
		// above any non-champion root) is a sound new third either way.
		if w := ss.tree[1]; refLess(ref, ss.key[w]) {
			ss.tree[1] = s
			ss.third, ss.towner, ss.thirdOK = ss.chal, ss.second, true
			ss.chal = ss.key[w]
			ss.second = w
		} else if refLess(ref, ss.chal) {
			ss.third, ss.towner, ss.thirdOK = ss.chal, ss.second, true
			ss.chal = ref
			ss.second = s
		} else if ss.thirdOK && refLess(ref, ss.third) {
			// Below third every root outside {champion, second} is still
			// bounded by the old third, hence by ref as well.
			ss.third, ss.towner = ref, s
		}
		return
	}
	ss.updateFall(s)
}

// enqueue routes a ref onto its shard, counting cross-shard posts and
// lookahead violations. Accounting only applies while an event is
// dispatching: setup-time posts (initial resumes) have no sending
// shard. Under the parallel executor a cross-shard post is buffered in
// the sender's outbox instead of the target heap; it is applied — in
// the same (time, seq) position — at the epoch barrier (see exec.go).
func (ss *shardSet) enqueue(k *Kernel, ref eventRef) {
	ss.queues[ref.shard].scheduled++
	if ss.dispatching >= 0 && ref.shard != ss.dispatching {
		ss.crossPosts.Add(1)
		if ref.at < k.now+ss.lookahead {
			ss.violations.Add(1)
		}
		if ex := ss.exec; ex != nil {
			ex.post(ss.dispatching, ref)
			return
		}
	}
	ss.push(ref)
}

// hasQueued reports whether any shard holds a pending event — a live
// heap root or an outboxed cross-shard post. O(1): the eager-skim
// invariant keeps liveCount exact (a heap of pure tombstones is
// drained the moment its last live root goes).
func (ss *shardSet) hasQueued() bool {
	if ss.liveCount > 0 {
		return true
	}
	return ss.exec != nil && ss.exec.pending > 0
}

// skimDead pops reclaimable tombstones off one shard heap's root so the
// root, if present, is live. Reclamation has no observable effect on
// simulated time (same argument as peekLive).
func (ss *shardSet) skimDead(k *Kernel, sq *shardQueue) {
	for len(sq.q) > 0 {
		ref := sq.q[0]
		if s := &k.slots[ref.idx]; s.fn != nil || s.proc != nil {
			return
		}
		sq.q.popRoot()
		sq.tombstones--
		k.freeSlot(ref.idx)
	}
}

// refreshLeaf re-reads one shard's root after a mutation that may have
// removed or raised it — a stopped timer, a compaction — and repairs
// the merge tree. Raising a key can only demote its leaf, so the
// pop-time challenger shortcut does not apply; an unchanged root
// returns without touching the tree (the common case: an interior
// tombstone).
func (ss *shardSet) refreshLeaf(k *Kernel, shard int16) {
	s := int32(shard)
	sq := &ss.queues[s]
	ss.skimDead(k, sq)
	if len(sq.q) == 0 {
		if !ss.live[s] {
			return
		}
		ss.live[s] = false
		ss.liveCount--
		ss.setKey(s, refInf)
	} else {
		root := sq.q[0]
		if ss.live[s] && root == ss.key[s] {
			return
		}
		if !ss.live[s] {
			ss.live[s] = true
			ss.liveCount++
		}
		ss.setKey(s, root)
	}
	if ss.flat {
		if s == ss.tree[1] {
			// The champion's root rose or died: rescan for the new title
			// holder and exact challenger.
			ss.flatRescan()
		} else if ks := ss.key[s]; refLess(ks, ss.chal) {
			// A non-champion root only ever rises here (tombstones are
			// removals), which leaves chal a valid lower bound untouched;
			// the folds are pure defense against a hypothetical fall.
			ss.third, ss.towner, ss.thirdOK = ss.chal, ss.second, true
			ss.chal = ks
			ss.second = s
		} else if ss.thirdOK && refLess(ks, ss.third) {
			ss.third, ss.towner = ks, s
		}
		return
	}
	ss.updateRise(s)
}

// peekMin returns (without removing) the globally minimum pending
// event, by the same (time, seq) order the serial kernel pops in.
// O(1): the tree champion folded with the executor's outbox minimum —
// a deferred cross-shard post must be visible here, or the WaitUntil
// fast path could elide simulated time straight past it.
func (ss *shardSet) peekMin() (eventRef, bool) {
	var best eventRef
	ok := false
	if w := ss.tree[1]; ss.leafLive(w) {
		best, ok = ss.key[w], true
	}
	if ex := ss.exec; ex != nil && ex.pending > 0 {
		if !ok || refLess(ex.outMin, best) {
			best, ok = ex.outMin, true
		}
	}
	return best, ok
}

// popMin removes and returns the globally minimum pending event. ok is
// false when nothing is pending. The fast path is a run of events on
// the champion shard: while its fresh root still beats the cached
// challenger the tree is provably unchanged and the pop is O(1); only
// when the run ends does one O(log K) replay re-seat the champion.
func (ss *shardSet) popMin(k *Kernel) (eventRef, bool) {
	if ex := ss.exec; ex != nil && ex.pending > 0 {
		// Epoch barrier: the moment the merged stream would run past the
		// earliest outboxed post, fold every outbox into the heaps. With
		// the lookahead promise intact this triggers only on epoch
		// boundaries; if the promise is broken (a counted violation) the
		// flush happens earlier and dispatch order is still exact.
		w := ss.tree[1]
		if !ss.leafLive(w) || refLess(ex.outMin, ss.key[w]) {
			ss.flushOutboxes()
		}
	}
	w := ss.tree[1]
	if !ss.leafLive(w) {
		return eventRef{}, false
	}
	ref := ss.key[w]
	sq := &ss.queues[w]
	sq.q.popRoot()
	ss.skimDead(k, sq)
	if len(sq.q) > 0 {
		ss.setKey(w, sq.q[0])
		if refLess(ss.key[w], ss.chal) {
			return ref, true
		}
	} else {
		ss.live[w] = false
		ss.liveCount--
		ss.setKey(w, refInf)
		if ss.chal == refInf {
			// No live rival either: the tree can wait for the next push.
			return ref, true
		}
	}
	if ss.flat {
		// O(1) champion switch: if the leaf that set the chal bound is
		// still live and still holds exactly that key, it is the global
		// minimum (chal is never above any live rival, and this shard's
		// fresh root just failed to beat it — seq uniqueness breaks any
		// tie). chal itself stays: it equals the new champion's own key,
		// which no live root is below. The check fails only when the
		// bound went stale (that root popped, cancelled, or compacted),
		// and then one rescan re-establishes everything exactly.
		if sd := ss.second; sd >= 0 && sd != w && ss.live[sd] &&
			ss.keyAt[sd] == ss.chal.at && ss.keySeq[sd] == ss.chal.seq {
			ss.tree[1] = sd
			// Hand the incoming champion its challenger: every root
			// outside {sd, w} is bounded by third (when valid), and w's
			// fresh root is in hand, so the exact smaller of the two is a
			// sound bound — and keeps the ladder a rung deep for the next
			// switch. Without a valid third, chal (== the new champion's
			// own key, which no live root is below) stands, and the next
			// slow pop pays the rescan.
			if !ss.thirdOK {
				ss.second = -1
			} else if kw := ss.key[w]; ss.live[w] && refLess(kw, ss.third) {
				ss.chal = kw
				ss.second = w
			} else if ss.towner != sd {
				ss.chal = ss.third
				ss.second = ss.towner
				ss.thirdOK = false
			} else {
				ss.chal = ss.third
				ss.second = -1
				ss.thirdOK = false
			}
			return ref, true
		}
		ss.flatRescan()
	} else {
		ss.updateRise(w)
	}
	return ref, true
}

// onFire records a dispatched event: the shard now executing (plain
// callbacks it schedules inherit it) and the epoch activity mask. The
// hot path — a same-shard same-epoch run — is one plain increment and
// two compares (dispatch time is monotonic, so at < epochEnd is the
// whole same-epoch test and the division only runs on epoch changes).
func (ss *shardSet) onFire(ref eventRef) {
	ss.queues[ref.shard].fired++
	if ref.at < ss.epochEnd && ref.shard == ss.dispatching {
		return
	}
	if ref.at >= ss.epochEnd {
		ss.flushEpoch()
		ss.epoch = ref.at / ss.lookahead
		ss.epochEnd = (ss.epoch + 1) * ss.lookahead
	}
	ss.dispatching = ref.shard
	ss.mask |= 1 << uint(ref.shard)
}

// flushEpoch folds the current epoch's activity mask into the totals.
// Every epochPublishStride active epochs it also refreshes the
// published counter mirrors for mid-run observers.
func (ss *shardSet) flushEpoch() {
	mask := ss.mask
	if mask == 0 {
		return
	}
	ss.mask = 0
	ss.activeEpochs++
	ss.shardEpochSum += uint64(bits.OnesCount64(mask))
	if ss.activeEpochs&(epochPublishStride-1) == 0 {
		ss.publish()
	}
}

// publish refreshes every published counter mirror from the token-owned
// fields. Run calls it (under the token) on every exit path, so
// ShardStats is exact once Run has returned; between the periodic
// epoch-stride publishes, readers see the last published snapshot.
func (ss *shardSet) publish() {
	for i := range ss.queues {
		sq := &ss.queues[i]
		sq.pubScheduled.Store(sq.scheduled)
		sq.pubFired.Store(sq.fired)
	}
	ss.pubActiveMask.Store(ss.mask)
	ss.pubActiveEpochs.Store(ss.activeEpochs)
	ss.pubShardEpochSum.Store(ss.shardEpochSum)
	if ex := ss.exec; ex != nil {
		ex.publish()
	}
}

// ShardCounters is one shard's slice of the host-performance counters.
type ShardCounters struct {
	Scheduled uint64 `json:"scheduled"`
	Fired     uint64 `json:"fired"`
}

// ShardStats is the sharded kernel's decomposition report: cross-shard
// traffic, lookahead-violation count (zero on a correctly partitioned
// machine), and the epoch-concurrency profile. Snapshot semantics; safe
// to call mid-run from any goroutine — a watchdog or serving layer may
// sample a simulation the parallel executor is actively running. The
// counters read published atomic mirrors refreshed every
// epochPublishStride active epochs and on every Run exit: mid-run
// values may trail the live run by up to that stride, and are exact
// once Run has returned. (The snapshot is per-counter atomic, not
// globally consistent: sums taken mid-run may be one event apart.)
type ShardStats struct {
	Shards       int             `json:"shards"`
	Lookahead    Time            `json:"lookahead"`
	CrossPosts   uint64          `json:"cross_posts"`
	Violations   uint64          `json:"violations"`
	ActiveEpochs uint64          `json:"active_epochs"`
	ShardEpochs  uint64          `json:"shard_epochs"`
	PerShard     []ShardCounters `json:"per_shard"`
}

// AvgConcurrency is the mean number of distinct shards active per
// non-idle epoch — the speedup ceiling for a lock-step epoch-parallel
// executor of this decomposition on this workload.
func (s *ShardStats) AvgConcurrency() float64 {
	if s == nil || s.ActiveEpochs == 0 {
		return 0
	}
	return float64(s.ShardEpochs) / float64(s.ActiveEpochs)
}

// ShardStats returns the decomposition report, or nil on a serial
// kernel. The in-progress epoch is included.
func (k *Kernel) ShardStats() *ShardStats {
	ss := k.sh
	if ss == nil {
		return nil
	}
	st := &ShardStats{
		Shards:       len(ss.queues),
		Lookahead:    ss.lookahead,
		CrossPosts:   ss.crossPosts.Load(),
		Violations:   ss.violations.Load(),
		ActiveEpochs: ss.pubActiveEpochs.Load(),
		ShardEpochs:  ss.pubShardEpochSum.Load(),
		PerShard:     make([]ShardCounters, len(ss.queues)),
	}
	if mask := ss.pubActiveMask.Load(); mask != 0 {
		st.ActiveEpochs++
		st.ShardEpochs += uint64(bits.OnesCount64(mask))
	}
	for i := range ss.queues {
		st.PerShard[i] = ShardCounters{
			Scheduled: ss.queues[i].pubScheduled.Load(),
			Fired:     ss.queues[i].pubFired.Load(),
		}
	}
	return st
}

// dump appends the shard report to DumpState output. dump always runs
// on the goroutine holding the control token (Run's watchdog path),
// when every executor worker is parked, so it reads the token-owned
// counters and heap lengths directly — no publish needed.
func (ss *shardSet) dump(w io.Writer) {
	fmt.Fprintf(w, "shards: %d, lookahead=%d cycles, cross-posts=%d violations=%d\n",
		len(ss.queues), ss.lookahead, ss.crossPosts.Load(), ss.violations.Load())
	if ex := ss.exec; ex != nil {
		fmt.Fprintf(w, "  exec: parallel, %d workers, %d handoffs, %d inline, %d outboxed, %d flushes\n",
			len(ex.workers), ex.handoffs, ex.inline, ex.outboxed, ex.flushes)
	}
	for i := range ss.queues {
		sq := &ss.queues[i]
		fmt.Fprintf(w, "  shard %d: queued=%d (%d cancelled) scheduled=%d fired=%d\n",
			i, len(sq.q)-sq.tombstones, sq.tombstones, sq.scheduled, sq.fired)
	}
}
