// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine replaces the OPNET Modeler kernel used in the paper's
// evaluation (thesis §4.1): it provides an ordered event queue, a virtual
// clock, and cancellable timers. Components (routers, NICs, traffic sources)
// are modelled as callbacks scheduled on the engine, mirroring OPNET's
// finite-state-machine processes.
//
// Two scheduling APIs coexist:
//
//   - The typed-event (actor) API — ScheduleEvent/AfterEvent — delivers a
//     (kind, arg) pair to a long-lived Actor. Event records are recycled
//     through a free list, so steady-state scheduling on this path performs
//     zero allocations. All hot-path components (ports, routers, NICs,
//     traffic sources) use it.
//   - The closure API — Schedule/After — remains as a compatibility shim
//     for cold paths (setup, experiment scripting, tests) where a captured
//     environment is worth one allocation.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so a simulation is
// a pure function of its configuration and RNG seed.
//
// Reservations: Reserve takes the (time, seq) slot an event scheduled now
// would occupy without queueing anything; ScheduleReserved later fills
// exactly that slot, and Passed reports whether execution has moved beyond
// it. A component whose follow-up event would usually find nothing to do
// (a port's link release with no packet waiting) reserves instead, and
// queues the event only if work arrives before the slot passes. The
// engine keeps just enough of its reservations — the latest one, and the
// latest below the running horizon — that Run's final clock and HasWork
// read as if every reserved slot had fired an event.
package sim

import "fmt"

// Time is a simulation timestamp in nanoseconds.
type Time int64

// Common duration units, all expressed in Time (nanoseconds).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Infinity is a timestamp later than any reachable simulation time.
const Infinity Time = 1<<63 - 1

// String renders the time in microseconds for log readability.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", float64(t)/1000.0)
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Handler is a scheduled event callback. It runs at its scheduled time with
// the engine as argument so it can schedule follow-up events.
type Handler func(e *Engine)

// Actor receives typed events. kind and arg are opaque to the engine; each
// actor defines its own kind space. Delivering to a persistent object with a
// payload word — instead of a fresh closure — is what makes the hot path
// allocation-free.
type Actor interface {
	HandleEvent(e *Engine, kind uint8, arg uint64)
}

// event is a queue entry. seq breaks timestamp ties deterministically.
// Exactly one of fn / actor is set.
type event struct {
	at  Time
	seq uint64
	fn  Handler
	// actor-dispatch fields; used when actor != nil.
	actor     Actor
	arg       uint64
	kind      uint8
	cancelled bool
	index     int32 // heap index; -1 once popped
	// gen guards recycled records: an EventID from a previous life of this
	// record must not cancel its current occupant.
	gen uint32
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct {
	ev  *event
	gen uint32
}

// Valid reports whether the ID refers to a scheduled (possibly already
// fired) event.
func (id EventID) Valid() bool { return id.ev != nil }

// Reservation is a slot in the (time, seq) event order taken by Reserve.
// Seq is unique: no event or other reservation shares it.
type Reservation struct {
	At  Time
	Seq uint64
}

// Engine is a discrete-event simulation kernel.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// curSeq is the seq of the event executing now; together with now it is
	// the position Passed compares against. Between Run calls it is the
	// next free seq, so every slot below the finished horizon reads passed
	// and every slot taken afterwards does not.
	curSeq  uint64
	queue   []*event
	stopped bool
	// pending counts scheduled, not-yet-fired, not-cancelled events; the
	// queue itself may additionally hold cancelled records awaiting pop.
	pending int
	// peakQueue tracks the high-water mark of the queue so the free list can
	// be sized to the simulation's observed depth (a saturated 64-node run
	// keeps tens of thousands of events in flight).
	peakQueue int
	// free recycles fired event records; a saturated simulation schedules
	// millions of events and the heap entries dominate allocation churn.
	free []*event
	// Processed counts events executed, useful for perf accounting.
	Processed uint64
	// wheel, when non-nil, switches the scheduler to the windowed-wheel
	// mode used by shard engines (see wheel.go). The heap then only holds
	// far-future overflow events.
	wheel *wheel

	// resLast is the latest reservation taken (At -1 before the first), so
	// HasWork sees an unpassed slot as remaining work.
	resLast Reservation
	// runH is the horizon of the heap-mode Run in progress, Infinity
	// outside Run and always in wheel mode. resBelow is the latest
	// reserved time below it: where the run's clock parks once the queue
	// drains or reaches the horizon, as the event in that slot would have
	// left it. resCarry holds reserved times at or past runH for the Runs
	// that follow.
	runH     Time
	resBelow Time
	resCarry []Time
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{runH: Infinity, resBelow: -1, resLast: Reservation{At: -1}}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// PeakQueue returns the event queue's high-water mark — how deep the
// schedule got at its busiest.
func (e *Engine) PeakQueue() int { return e.peakQueue }

// FreeListLen returns the number of recycled event records currently
// pooled; together with PeakQueue it shows how well the typed-event path
// amortizes allocation.
func (e *Engine) FreeListLen() int { return len(e.free) }

// Len returns the number of pending events. Cancelled events are excluded:
// they still occupy the internal queue until popped, but will never fire.
// Reservations are not events and are not counted; see HasWork.
func (e *Engine) Len() int { return e.pending }

// HasWork reports whether anything is left to execute: a pending event,
// or a reservation that has not passed. Samplers that re-arm "while work
// remains" use it, so a reserved slot keeps them ticking exactly as the
// event it stands for would have.
func (e *Engine) HasWork() bool { return e.pending > 0 || !e.Passed(e.resLast) }

// Reserve takes the (at, seq) slot that ScheduleEvent(at, ...) would give
// an event now, without queueing anything. The slot is filled later by
// ScheduleReserved, or left empty.
func (e *Engine) Reserve(at Time) Reservation {
	if at < e.now {
		panic(fmt.Sprintf("sim: reserve at %v before now %v", at, e.now))
	}
	r := Reservation{At: at, Seq: e.seq}
	e.seq++
	if at >= e.resLast.At {
		e.resLast = r // the newest seq wins time ties
	}
	if e.wheel != nil {
		e.wheel.reserve(at)
	}
	if at < e.runH {
		if at > e.resBelow {
			e.resBelow = at
		}
	} else {
		e.resCarry = append(e.resCarry, at)
	}
	return r
}

// Passed reports whether execution has moved beyond r: the event running
// now is ordered after it, or, between Run calls, r lies below the
// horizon the last Run reached. An event in r's slot would have fired.
func (e *Engine) Passed(r Reservation) bool {
	return r.At < e.now || (r.At == e.now && r.Seq < e.curSeq)
}

// ScheduleReserved delivers (kind, arg) to a in the slot r, which must not
// have passed: the event fires exactly where ScheduleEvent would have put
// it when r was reserved.
func (e *Engine) ScheduleReserved(r Reservation, a Actor, kind uint8, arg uint64) EventID {
	if e.Passed(r) {
		panic(fmt.Sprintf("sim: schedule into reservation %v/%d already passed", r.At, r.Seq))
	}
	if a == nil {
		panic("sim: nil actor")
	}
	ev := e.place(r.At, r.Seq)
	ev.actor = a
	ev.kind = kind
	ev.arg = arg
	return EventID{ev: ev, gen: ev.gen}
}

// eventLess orders the heap by (time, sequence): earliest first, and FIFO
// among events at the same timestamp.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts ev, maintaining heap order and index fields. Hand-rolled
// (rather than container/heap) to avoid interface-method calls and the
// `any`-boxing of Push/Pop on the hottest loop in the simulator.
func (e *Engine) heapPush(ev *event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
	e.queue = q
	if len(q) > e.peakQueue {
		e.peakQueue = len(q)
	}
}

// heapPop removes and returns the earliest event.
func (e *Engine) heapPop() *event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	e.queue = q
	top.index = -1
	if n > 0 {
		e.siftDown(last, 0)
	}
	return top
}

// siftDown places ev at heap position i, moving it toward the leaves until
// heap order holds.
func (e *Engine) siftDown(ev *event, i int) {
	q := e.queue
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(q[r], q[child]) {
			child = r
		}
		if !eventLess(q[child], ev) {
			break
		}
		q[i] = q[child]
		q[i].index = int32(i)
		i = child
	}
	q[i] = ev
	ev.index = int32(i)
}

// alloc takes the next sequence number and enqueues a record at (at, seq).
func (e *Engine) alloc(at Time) *event {
	ev := e.place(at, e.seq)
	e.seq++
	return ev
}

// place takes an event record from the free list (or the heap allocator),
// stamps it with the scheduling metadata, and enqueues it.
func (e *Engine) place(at Time, seq uint64) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		gen := ev.gen + 1
		*ev = event{at: at, seq: seq, gen: gen}
	} else {
		ev = &event{at: at, seq: seq}
	}
	e.pending++
	if e.wheel != nil {
		e.wheelPush(ev)
	} else {
		e.heapPush(ev)
	}
	return ev
}

// Schedule runs fn at absolute time at. Scheduling in the past panics: that
// is always a model bug and silently reordering would destroy causality.
//
// This is the closure-based compatibility API; hot paths should use
// ScheduleEvent, which does not allocate in steady state.
func (e *Engine) Schedule(at Time, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	ev := e.alloc(at)
	ev.fn = fn
	return EventID{ev: ev, gen: ev.gen}
}

// After runs fn after delay d (relative to the current time).
func (e *Engine) After(d Time, fn Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// ScheduleEvent delivers (kind, arg) to a at absolute time at. In steady
// state (free list warm) this performs no allocation.
func (e *Engine) ScheduleEvent(at Time, a Actor, kind uint8, arg uint64) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if a == nil {
		panic("sim: nil actor")
	}
	ev := e.alloc(at)
	ev.actor = a
	ev.kind = kind
	ev.arg = arg
	return EventID{ev: ev, gen: ev.gen}
}

// AfterEvent delivers (kind, arg) to a after delay d.
func (e *Engine) AfterEvent(d Time, a Actor, kind uint8, arg uint64) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.ScheduleEvent(e.now+d, a, kind, arg)
}

// Cancel marks a pending event so it will not fire. Cancelling an already
// fired or already cancelled event is a no-op. Returns whether the event was
// pending.
func (e *Engine) Cancel(id EventID) bool {
	// index == idxPopped means fired/drained; wheel-resident events carry
	// idxWheel and are still cancellable.
	if id.ev == nil || id.ev.gen != id.gen || id.ev.cancelled || id.ev.index == idxPopped {
		return false
	}
	id.ev.cancelled = true
	e.pending--
	return true
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single next event. It returns false when the queue is
// empty or the engine is stopped.
func (e *Engine) Step() bool {
	if e.wheel != nil {
		panic("sim: Step is not supported in wheel mode; use Run")
	}
	for len(e.queue) > 0 {
		ev := e.heapPop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.now, e.curSeq = ev.at, ev.seq
		e.Processed++
		e.pending--
		if a := ev.actor; a != nil {
			kind, arg := ev.kind, ev.arg
			e.recycle(ev)
			a.HandleEvent(e, kind, arg)
		} else {
			fn := ev.fn
			e.recycle(ev)
			fn(e)
		}
		return true
	}
	return false
}

// recycle returns a popped event record to the free list. Outstanding
// EventIDs referring to it become stale, which Cancel tolerates: a fired
// event has index -1 only transiently — after reuse it may be live again,
// so cancellation through a stale ID could hit the wrong event. Guard by
// generation: the gen field differs after reuse.
//
// The free list is sized from the observed queue depth (plus slack) rather
// than a fixed cap: a saturated 64-node run keeps far more than a thousand
// events pending, and recycling must keep up with that churn for the typed
// path to stay allocation-free.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.actor = nil
	limit := e.peakQueue + 64
	if limit < 1024 {
		limit = 1024
	}
	if len(e.free) < limit {
		e.free = append(e.free, ev)
	}
}

// Run executes events until the queue drains, Stop is called, or the clock
// passes horizon (exclusive). Events scheduled at exactly horizon do not run.
// It returns the number of events executed. Unless stopped, the clock then
// rests at the latest executed event or reserved slot below the horizon.
func (e *Engine) Run(horizon Time) uint64 {
	if e.wheel != nil {
		return e.runWheel(horizon)
	}
	start := e.Processed
	e.stopped = false
	e.openRun(horizon)
	for !e.stopped && len(e.queue) > 0 {
		// Peek: stop before executing events at/after the horizon.
		next := e.queue[0]
		if next.cancelled {
			// Recycle, not just pop: cancel-heavy runs (watchdog timers,
			// fault repair) would otherwise leak every cancelled record
			// past the free list.
			e.recycle(e.heapPop())
			continue
		}
		if next.at >= horizon {
			break
		}
		e.Step()
	}
	e.runH = Infinity
	if !e.stopped {
		e.parkClock()
	}
	return e.Processed - start
}

// openRun sets the heap-mode horizon and moves the carried reservations
// below it into resBelow (a reservation taken outside Run, where runH is
// Infinity, joins the carry if it lies past this horizon).
func (e *Engine) openRun(horizon Time) {
	e.runH = horizon
	if e.resBelow >= horizon {
		e.resCarry = append(e.resCarry, e.resBelow)
		e.resBelow = -1
	}
	keep := e.resCarry[:0]
	for _, at := range e.resCarry {
		if at < horizon {
			if at > e.resBelow {
				e.resBelow = at
			}
		} else {
			keep = append(keep, at)
		}
	}
	e.resCarry = keep
}

// parkClock ends a Run that drained or reached its horizon: the clock
// moves up to the latest reserved slot below the horizon, where the event
// in it would have left the clock, and every slot taken so far below the
// horizon now reads passed.
func (e *Engine) parkClock() {
	if e.resBelow > e.now {
		e.now = e.resBelow
	}
	e.curSeq = e.seq
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() uint64 { return e.Run(Infinity) }

// Timer is a restartable one-shot timer built on the engine, used for
// watchdogs (the FR-DRB fast-response variant, thesis §4.8.4). It is its own
// actor, so re-arming an existing timer does not allocate.
type Timer struct {
	eng *Engine
	id  EventID
	fn  Handler
}

// NewTimer returns an unarmed timer that runs fn when it expires.
func NewTimer(eng *Engine, fn Handler) *Timer {
	if fn == nil {
		panic("sim: nil timer handler")
	}
	return &Timer{eng: eng, fn: fn}
}

// HandleEvent implements Actor: the timer expired.
func (t *Timer) HandleEvent(e *Engine, kind uint8, arg uint64) {
	t.id = EventID{}
	t.fn(e)
}

// Reset (re)arms the timer to fire after d. Any previously armed expiry is
// cancelled.
func (t *Timer) Reset(d Time) {
	t.Stop()
	t.id = t.eng.AfterEvent(d, t, 0, 0)
}

// Stop disarms the timer. It is a no-op if the timer is not armed.
func (t *Timer) Stop() {
	if t.id.Valid() {
		t.eng.Cancel(t.id)
		t.id = EventID{}
	}
}

// Armed reports whether the timer has a pending expiry.
func (t *Timer) Armed() bool { return t.id.Valid() }
