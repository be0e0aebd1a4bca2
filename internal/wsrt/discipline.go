package wsrt

// Paper Fig. 3 gives the three runtimes as one algorithm with
// operations inserted: HCC is HW plus an invalidate after each acquire
// and a flush before each release, and DTS swaps the deque lock for a
// ULI mask and makes the join's AMOs conditional on a steal. The engine
// is that one algorithm; a discipline row says which operations a
// variant inserts, one field per Fig. 3 line that differs.

// guard is how an access to a deque keeps the other threads off it.
type guard uint8

const (
	unguarded guard = iota // no row: only a deliberately broken test row
	lockGuard              // a test-and-set lock in the deque's lock line
	maskULI                // uli_disable/uli_enable around the owner's access
)

// when is the condition under which a conditional operation runs.
type when uint8

const (
	never when = iota
	always
	// ifStolen: only if the task's has_stolen_child flag is set (§IV-C),
	// read with a plain load of the descriptor.
	ifStolen
)

// discipline is one variant's row of Fig. 3.
type discipline struct {
	name string // the Variant's name
	// guard protects every push, pop and shared-memory steal.
	guard guard
	// fence invalidates after taking the guard and flushes before the
	// owner drops it (Fig. 3b), so the deque's words are read fresh and
	// its writes published. A thief's flush before it drops the guard is
	// stealFlush.
	fence bool
	// probeInv invalidates before a thief's lock-free emptiness probe so
	// the probe's loads of head and tail observe fresh values. The probe
	// itself (plain loads, no lock) keeps idle thieves from migrating
	// the lock line through every prober in turn: the recall storm of a
	// test-and-set spin without a test.
	probeInv bool
	// stolenFence invalidates before a stolen task runs, since it and
	// its inputs were produced on another core, and flushes after it so
	// its results are visible to the parent's thread.
	stolenFence bool
	// stealFlush is the flush in the steal hand-off: the thief's before
	// it releases the victim's deque, or under ULI the victim handler's
	// before it replies, which makes the task's arguments and the
	// parent's data visible to the thief.
	stealFlush bool
	// join is when the decrement of the parent's reference count is an
	// AMO; otherwise it is a plain read-modify-write. Under ifStolen a
	// stolen task always decrements with an AMO, and a local one does
	// only if a sibling was stolen (Fig. 3c line 17).
	join when
	// readRC is when wait reads its reference count with an AMO rather
	// than a load.
	readRC when
	// waitInv is when wait ends with an invalidate: the parent may hold
	// stale copies of data its stolen children wrote (Fig. 3b line 40,
	// 3c lines 43-44).
	waitInv when
	// doneAMOEvery is how an idle worker polls the done flag: 0 is a
	// plain load every iteration; n is an amo_or every nth iteration.
	// A load is right when the flag's copy is refreshed in time: under
	// MESI the main thread's write invalidates every cached copy, and
	// under HCC the invalidate at every deque access in the loop
	// refreshes it. Polling with an AMO there would migrate the line to
	// every poller in turn, a directory recall storm. A DTS worker never
	// self-invalidates while idle, so a cached zero would spin forever:
	// it pays a coherent read, but only every few iterations.
	doneAMOEvery uint64
	// uli steals through user-level interrupts (Fig. 3c lines 24-27)
	// rather than from the victim's deque in shared memory.
	uli bool
}

// disciplines holds one row per Variant.
var disciplines = [...]discipline{
	HW: {name: "HW", guard: lockGuard, join: always},
	HCC: {name: "HCC", guard: lockGuard, fence: true, probeInv: true, stolenFence: true, stealFlush: true,
		join: always, readRC: always, waitInv: always},
	DTS: {name: "DTS", guard: maskULI, stolenFence: true, stealFlush: true,
		join: ifStolen, readRC: ifStolen, waitInv: ifStolen, doneAMOEvery: 4, uli: true},
}
