// Package uli models the inter-processor user-level interrupt (ULI)
// mechanism that direct task stealing is built on (paper §IV-A, §V-A):
// a dedicated mesh network with single-word messages and two virtual
// channels (request/response, modelled as separate traffic categories on
// a dedicated mesh so they cannot deadlock against each other), plus a
// per-core hardware unit with a one-deep request buffer that NACKs when
// busy or when the receiving core has ULI disabled.
//
// A steal response carries the stolen task pointer as its single-word
// payload (the per-thread "mailbox" register of paper Fig. 3c).
package uli

import (
	"fmt"
	"io"

	"bigtiny/internal/fault"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

// Message sizes: a ULI message is a single word plus header.
const msgBytes = 16

// Handler services a steal request on the victim core. It runs on the
// victim's simulated thread (its env ops cost victim cycles) and
// returns the single-word payload for the response (the stolen task
// pointer, or 0 for "nothing to steal").
type Handler func(thief int) uint64

// Stats aggregates ULI activity for the paper's §VI-C overhead report.
// Every request terminates in exactly one of Acks, Nacks, or Drops
// (Reqs == Acks + Nacks + Drops); Timeouts, LateAcks, and Restitutions
// count recovery events and overlap the three terminal outcomes.
type Stats struct {
	Reqs        uint64 // requests sent
	Acks        uint64 // ACK responses sent and delivered (possibly late)
	Nacks       uint64 // NACK responses sent and delivered
	Drops       uint64 // requests lost: the request itself, or its response, vanished
	HandlerRuns uint64

	// Recovery events (lossy scenarios only).
	Timeouts     uint64 // thief gave up waiting and treated the steal as NACKed
	LateAcks     uint64 // ACK arrived after the thief timed out; payload salvaged
	Restitutions uint64 // victim re-enqueued a stolen task whose ACK was dropped

	// LatencySum accumulates request-to-response cycles for Acks.
	LatencySum sim.Time
}

// AvgLatency returns the mean ACK round-trip latency.
func (s *Stats) AvgLatency() float64 {
	if s.Acks == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Acks)
}

// DefaultStealTimeout is the steal-request timeout the machine arms for
// lossy scenarios, in cycles. It must comfortably exceed the worst-case
// round trip (mesh traversal + injected delay + handler entry + handler
// body): spurious timeouts only cost a retry, but a tight value would
// fire constantly under NACK-storm delay tails.
const DefaultStealTimeout = 4096

// Fabric is the ULI interconnect plus all core units.
type Fabric struct {
	kernel *sim.Kernel
	mesh   *noc.Mesh
	units  []*Unit
	Stats  Stats

	// Faults, when non-nil, injects forced NACKs, delivery delays, and
	// steal-path drops (see internal/fault).
	Faults *fault.Injector

	// Timeout, when nonzero, bounds how long SendReq waits for a
	// response before treating the steal as NACKed. Zero (the default)
	// keeps the original lossless protocol: no timer is ever armed and
	// responses write the thief's registers at victim send time, so
	// fault-free cycle counts are untouched by the recovery machinery.
	Timeout sim.Time

	// wire holds the messages in flight, in the order their arrival
	// events (onArrive) were scheduled, and free the spent records.
	wire, free []*request
	onArrive   func()
}

// NewFabric builds the ULI network for numCores cores whose positions
// are given by nodeOf.
func NewFabric(k *sim.Kernel, rows, cols, numCores int, nodeOf func(core int) noc.NodeID) *Fabric {
	f := &Fabric{kernel: k, mesh: noc.NewMesh(rows, cols)}
	f.onArrive = f.arrive
	for c := 0; c < numCores; c++ {
		f.units = append(f.units, &Unit{fabric: f, core: c, node: nodeOf(c)})
	}
	f.Reset()
	return f
}

// Reset returns the fabric to the state NewFabric leaves it in: idle
// units with no thread, handler or hook, an idle mesh, zero stats and
// no timeout. Faults, EntryLat, spare records and callbacks stay.
func (f *Fabric) Reset() {
	f.Stats, f.Timeout, f.wire = Stats{}, 0, f.wire[:0]
	f.mesh.Reset()
	for _, u := range f.units {
		*u = Unit{fabric: u.fabric, core: u.core, node: u.node, EntryLat: u.EntryLat, onTimeout: u.onTimeout}
	}
}

// Mesh exposes the dedicated ULI mesh (for utilization reporting).
func (f *Fabric) Mesh() *noc.Mesh { return f.mesh }

// Unit returns core's ULI unit.
func (f *Fabric) Unit(core int) *Unit { return f.units[core] }

// Unit is the per-core ULI send/receive hardware.
type Unit struct {
	fabric *Fabric
	core   int
	node   noc.NodeID

	enabled bool
	// pending is the one-deep request buffer.
	pending *request
	// handling marks that the handler is currently running.
	handling bool
	// waiting marks that this core is blocked inside SendReq; incoming
	// requests are NACKed (interrupts deferred during an in-flight send,
	// which also rules out thief/thief deadlock).
	waiting bool

	handler Handler
	// EntryLat models pipeline drain before vectoring to the handler
	// (a few cycles on the in-order tiny cores, 10-50 on the big cores;
	// paper §VI-C).
	EntryLat sim.Time

	// respPayload/respOK hold the hardware response register while the
	// sender is blocked.
	respPayload uint64
	respOK      bool
	respAt      sim.Time

	// epoch stamps each outgoing request so a response that limps in
	// after the thief timed out (or after a newer request went out) is
	// recognized as stale. respDone marks the current request as
	// terminated (response delivered or timed out). Both are only
	// consulted when fabric.Timeout > 0.
	epoch     uint64
	respDone  bool
	timer     sim.Timer
	onTimeout func()

	// late is the salvage mailbox: payloads of stale ACKs (task pointers
	// the victim handed over, but whose hand-off the thief had already
	// given up on). Drained at Poll via the salvage hook so no task is
	// ever lost.
	late []uint64
	// salvage takes ownership of a stale-ACK payload (runtime hook).
	salvage func(payload uint64)
	// restitute returns a stolen task to the victim when the ACK
	// carrying it was dropped (runtime hook; runs on the victim thread).
	restitute func(payload uint64)

	// proc is the simulated thread running on this core (set by Bind).
	proc *sim.Proc
}

// request is one steal request until its response is delivered or lost.
// Records belong to the fabric: a timed-out thief's may still be in flight.
type request struct {
	thief, victim  int
	at, sentAt     sim.Time // at: when the message in flight arrives
	epoch, payload uint64   // epoch: the thief's at send time, echoed in the response
	resp, ok       bool     // resp: the response is in flight (timeout-armed fabrics)
}

// SetSalvage installs the hook that takes ownership of stale-ACK
// payloads (tasks whose hand-off the thief timed out on).
func (u *Unit) SetSalvage(fn func(payload uint64)) { u.salvage = fn }

// SetRestitute installs the hook that returns a stolen task to this
// (victim) core when the ACK carrying it was dropped.
func (u *Unit) SetRestitute(fn func(payload uint64)) { u.restitute = fn }

// TakeLate pops one payload from the salvage mailbox without running
// the salvage hook. Used by reclaimers after this core fail-stopped
// and can no longer Poll (modelled as a memory-mapped mailbox read).
func (u *Unit) TakeLate() (payload uint64, ok bool) {
	if len(u.late) == 0 {
		return 0, false
	}
	p := u.late[0]
	u.late = append(u.late[:0], u.late[1:]...) // keeps the storage
	return p, true
}

// SetHandler installs the software ULI handler (runtime init).
func (u *Unit) SetHandler(h Handler) { u.handler = h }

// Enable turns on ULI delivery (uli_enable; 1 cycle, charged by caller).
func (u *Unit) Enable() { u.enabled = true }

// Disable turns off ULI delivery (uli_disable). A buffered,
// not-yet-delivered request is NACKed: a disabled core replies NACK
// (paper §IV-A), and this also guarantees that a core can never exit
// with a thief still blocked on it.
func (u *Unit) Disable() {
	u.enabled = false
	if u.pending != nil {
		req := u.pending
		u.pending = nil
		u.fabric.respond(u.fabric.kernel.Now(), u, req, 0, false)
	}
}

// SendReq sends a steal request from this core's thread (running on
// proc) to the victim core and blocks until the ACK or NACK arrives —
// or, when fabric.Timeout is armed, until the timeout fires, which the
// thief treats as a NACK (the caller retries with backoff). A request
// can be lost only with the timeout armed (the machine layer arms it
// for every lossy scenario); a loss without one panics. It returns
// the response payload and whether the steal was accepted. The victim's
// handler runs on the victim's own thread (paper: "the victim steals
// tasks on behalf of the thief").
func (u *Unit) SendReq(proc *sim.Proc, victim int) (payload uint64, ok bool) {
	f := u.fabric
	f.Stats.Reqs++
	v := f.units[victim]
	sentAt := proc.Now()
	arrive, dropped := f.mesh.SendLossy(sentAt, u.node, v.node, msgBytes, noc.SyncReq, f.Faults)
	arrive += f.Faults.ULIDelay(arrive)
	u.epoch++
	u.respDone = false
	ep := u.epoch
	if dropped {
		f.Stats.Drops++
		if f.Timeout == 0 {
			panic("uli: steal request dropped with no steal timeout armed")
		}
	} else {
		var r *request
		if n := len(f.free); n > 0 {
			r, f.free = f.free[n-1], f.free[:n-1]
		} else {
			r = new(request)
		}
		*r = request{thief: u.core, victim: victim, at: arrive, sentAt: sentAt, epoch: ep}
		f.wire = append(f.wire, r)
		f.kernel.At(arrive, f.onArrive)
	}
	u.waiting = true
	if f.Timeout > 0 {
		if u.onTimeout == nil {
			u.onTimeout = u.timeoutFire
		}
		f.kernel.ArmTimer(&u.timer, sentAt+f.Timeout, u.onTimeout)
	}
	proc.Block() // resumed by the response delivery or the timeout
	u.waiting = false
	u.timer.Stop()
	proc.WaitUntil(u.respAt)
	return u.respPayload, u.respOK
}

// arrive runs in the kernel when a message arrives at its victim or
// thief: the first one due now, as events due together fire in order.
func (f *Fabric) arrive() {
	now, i := f.kernel.Now(), 0
	for f.wire[i].at != now {
		i++
	}
	r := f.wire[i]
	f.wire = append(f.wire[:i], f.wire[i+1:]...)
	if !r.resp {
		f.units[r.victim].receive(now, r)
		return
	}
	f.units[r.thief].deliverResp(now, r.epoch, r.payload, r.ok)
	f.free = append(f.free, r)
}

// receive runs in the kernel at request-arrival time on the victim
// unit.
func (u *Unit) receive(now sim.Time, req *request) {
	// An injected NACK storm refuses the request before the unit even
	// looks at its own state, modelling a victim whose buffer is held
	// busy by adversarial timing.
	if u.fabric.Faults.ULIForceNack(now) {
		u.fabric.respond(now, u, req, 0, false)
		return
	}
	if !u.enabled || u.handling || u.waiting || u.pending != nil {
		u.fabric.respond(now, u, req, 0, false)
		return
	}
	// Buffer the request; the victim's thread picks it up at its next
	// interruptible instruction boundary (Poll).
	u.pending = req
}

// respond sends victim's answer to req back to its thief: an ACK
// carrying payload if ok, else a NACK. It reports false if the mesh
// dropped the response, which counts as a Drop; the thief's timeout
// recovers the request. With no timeout armed the thief's registers are
// written at send time; otherwise deliverResp writes them at arrival.
func (f *Fabric) respond(now sim.Time, victim *Unit, req *request, payload uint64, ok bool) bool {
	t := f.units[req.thief]
	arrive, dropped := f.mesh.SendLossy(now, victim.node, t.node, msgBytes, noc.SyncResp, f.Faults)
	arrive += f.Faults.ULIDelay(arrive)
	if dropped {
		f.Stats.Drops++
		f.free = append(f.free, req)
		return false
	}
	if ok {
		f.Stats.Acks++
		f.Stats.LatencySum += arrive - req.sentAt
	} else {
		f.Stats.Nacks++
	}
	if f.Timeout == 0 {
		t.respPayload, t.respOK, t.respAt = payload, ok, arrive
		t.unblockAt(arrive)
		f.free = append(f.free, req)
	} else {
		req.at, req.resp, req.payload, req.ok = arrive, true, payload, ok
		f.wire = append(f.wire, req)
		f.kernel.At(arrive, f.onArrive)
	}
	return true
}

// deliverResp runs in the kernel at response-arrival time on the thief
// unit (timeout-armed fabrics only). A response for a request the thief
// already gave up on is stale: its registers are not touched, and a
// stale ACK's payload — a task the victim handed over — goes to the
// salvage mailbox instead of being lost.
func (u *Unit) deliverResp(at sim.Time, ep uint64, payload uint64, ok bool) {
	if ep != u.epoch || u.respDone {
		if ok && payload != 0 {
			u.fabric.Stats.LateAcks++
			u.late = append(u.late, payload)
		}
		return
	}
	u.respDone = true
	u.timer.Stop()
	u.respPayload, u.respOK, u.respAt = payload, ok, at
	u.unblockAt(at)
}

// timeoutFire runs in the kernel when the thief's steal timer expires.
// The thief resumes as if NACKed; a response still in flight will be
// recognized as stale by deliverResp. A timer never outlives its
// request: deliverResp stops it.
func (u *Unit) timeoutFire() {
	if u.respDone {
		panic("uli: steal timer fired after its response")
	}
	u.respDone = true
	u.fabric.Stats.Timeouts++
	now := u.fabric.kernel.Now()
	u.respPayload, u.respOK, u.respAt = 0, false, now
	u.unblockAt(now)
}

// unblockAt wakes the blocked sending thread at time at.
func (u *Unit) unblockAt(at sim.Time) {
	if u.proc == nil {
		panic("uli: response for a core with no thread")
	}
	u.proc.Unblock(at)
}

// Bind attaches the simulated thread that runs on this unit's core.
func (u *Unit) Bind(p *sim.Proc) { u.proc = p }

// salvageDue and requestDue are Poll's two conditions: stale-ACK
// payloads it may hand to the salvage hook, and a buffered request it
// may deliver.
func (u *Unit) salvageDue() bool {
	return len(u.late) > 0 && u.enabled && !u.handling && u.salvage != nil
}

func (u *Unit) requestDue() bool {
	return u.pending != nil && u.enabled && !u.handling
}

// PollIdle reports whether Poll would return without doing anything, so
// that a caller may skip the call — and whatever it costs to get to a
// place that can make it.
func (u *Unit) PollIdle() bool { return !u.salvageDue() && !u.requestDue() }

// Poll must be called by the core model at every instruction boundary.
// First it drains the salvage mailbox (tasks from stale ACKs), then, if
// a buffered request is deliverable, the ULI handler runs inline on
// this (victim) thread: entry stall, handler body, then the response
// send. Poll returns after the response is sent; the victim resumes its
// interrupted work.
func (u *Unit) Poll(proc *sim.Proc) {
	if u.salvageDue() {
		// Salvage under the same discipline as a handler run: handling
		// is held so an arriving steal request cannot interrupt the
		// salvage's own deque operations.
		u.handling = true
		for len(u.late) > 0 {
			p := u.late[0]
			u.late = append(u.late[:0], u.late[1:]...)
			u.salvage(p)
		}
		u.handling = false
	}
	if !u.requestDue() {
		return
	}
	req := u.pending
	u.pending = nil
	u.handling = true
	u.fabric.Stats.HandlerRuns++
	proc.Delay(u.EntryLat)
	payload := uint64(0)
	if u.handler != nil {
		payload = u.handler(req.thief)
	}
	if !u.fabric.respond(proc.Now(), u, req, payload, true) && payload != 0 {
		// The hand-off is lost: the thief's timeout will treat the steal
		// as NACKed, so the victim takes the task back (restitution) —
		// it must not be lost, and the thief must not get it twice.
		u.fabric.Stats.Restitutions++
		if u.restitute == nil {
			panic("uli: dropped ACK with a task payload and no restitute hook")
		}
		u.restitute(payload)
	}
	u.handling = false
}

// DumpState writes the fabric's diagnostic state: aggregate stats plus
// every unit that is mid-protocol (waiting in SendReq, running a
// handler, or holding a buffered request) — the state needed to debug a
// steal livelock. Registered as a kernel dump hook by the machine
// layer.
func (f *Fabric) DumpState(w io.Writer) {
	enabled := 0
	for _, u := range f.units {
		if u.enabled {
			enabled++
		}
	}
	fmt.Fprintf(w, "uli: reqs=%d acks=%d nacks=%d drops=%d timeouts=%d late-acks=%d restitutions=%d handlers=%d, %d/%d units enabled\n",
		f.Stats.Reqs, f.Stats.Acks, f.Stats.Nacks, f.Stats.Drops,
		f.Stats.Timeouts, f.Stats.LateAcks, f.Stats.Restitutions,
		f.Stats.HandlerRuns, enabled, len(f.units))
	for _, u := range f.units {
		if !u.waiting && !u.handling && u.pending == nil && len(u.late) == 0 {
			continue
		}
		line := fmt.Sprintf("  unit %d: enabled=%v waiting=%v handling=%v",
			u.core, u.enabled, u.waiting, u.handling)
		if u.pending != nil {
			line += fmt.Sprintf(" pending(thief=%d arrived=%d)",
				u.pending.thief, u.pending.at)
		}
		if len(u.late) > 0 {
			line += fmt.Sprintf(" salvage-mailbox=%d", len(u.late))
		}
		fmt.Fprintln(w, line)
	}
}
