package sim

import "math/bits"

// Windowed wheel scheduler — the per-shard fast path of the conservative
// parallel engine.
//
// A sharded simulation executes in bounded time windows (width = the
// cross-shard lookahead), so a shard's scheduler never needs a totally
// ordered queue over an unbounded horizon: it needs exact ordering inside
// the near future and anything-goes storage for far-out events. The wheel
// exploits that: events within the next wheelSpan nanoseconds go into a
// ring of coarse slots (wheelSlotWidth ns each), kept (time, seq)-sorted
// by a from-the-tail insertion that almost always degenerates to a plain
// append, and the rare far events (packet-tail serialization beyond the
// span, watchdogs, injection-window ends) overflow into the engine's
// existing binary heap and migrate into the ring as the cursor approaches
// them. The ring is deliberately small — wheelSlots slice headers fit in
// L1/L2 — because the previous per-nanosecond design spent more on cache
// misses over its 8192-slot ring than it saved in comparisons.
//
// Ordering is identical to heap mode: every slot is (time, seq)-sorted,
// the sequence counter is monotonic, and the drain cursor fires events in
// exactly (time, seq) order — the property TestWheelMatchesHeap pins.
// The serial engine keeps the heap as its only mode; the wheel is enabled
// per shard by the shard group, where the windowed run pattern makes it
// strictly better.

const (
	// wheelSlotShift sets the slot width: 16 ns buckets batch the typical
	// event spacing of a saturated run (a few tens of ns) into one or two
	// entries per slot, so the sorted insert is almost always an append.
	wheelSlotShift = 4
	// wheelSlots is the ring length in slots. Must be a power of two.
	wheelSlots = 512
	// wheelSpan is the ring horizon in nanoseconds. It comfortably covers
	// the default hot path: a 1024 B packet serializes in ~4096 ns, so
	// port free events — the furthest-out frequent event — stay in-ring.
	wheelSpan = wheelSlots << wheelSlotShift

	// Sentinel values for event.index (heap index when >= 0).
	idxPopped = -1 // fired or drained; not pending
	idxWheel  = -2 // pending in a wheel slot
)

// wheel is the ring half of the windowed scheduler. The far half reuses
// Engine.queue (the binary heap).
type wheel struct {
	// base is the drain cursor: every event at a time < base has fired;
	// every pending event within wheelSlots slots of base is in its slot,
	// later ones are in the far heap.
	base Time
	// curSlot/curIdx mark the slot being drained and the first index not
	// yet fired. Entries below curIdx have been recycled (their records
	// may already live a new life), so the sorted insert must never
	// compare against them; curIdx is that floor. curSlot is -1 outside
	// the drain loop.
	curSlot int
	curIdx  int
	slots   [wheelSlots][]*event
	// occ is the slot-occupancy bitmap (one bit per slot, indexed like
	// slots); it lets the drain loop skip empty regions 64 slots at a time.
	occ [wheelSlots / 64]uint64
	// farOverflows counts events pushed beyond the ring span into the far
	// heap; farMigrations counts the ones migrated back into a slot as the
	// cursor advanced (cancelled far events recycle without migrating, so
	// farMigrations <= farOverflows). Deterministic: both are functions of
	// the event schedule, not of wall time or GOMAXPROCS.
	farOverflows  uint64
	farMigrations uint64
	// Reserved times (Engine.Reserve), kept so NextEventTime opens the
	// window an event in the reserved slot would have needed. resNs[s]
	// has bit i set for a time reserved at ns i of ring slot s — exact
	// times, because a window end can fall inside a slot and only the
	// times at or after it count. resSlot[s] is the absolute slot number
	// (time >> wheelSlotShift) the bits belong to: a ring slot reused on
	// a later revolution starts afresh. resOcc has a bit per ring slot
	// with any resNs bit set; resFar holds times beyond the ring span.
	resOcc  [wheelSlots / 64]uint64
	resNs   [wheelSlots]uint16
	resSlot [wheelSlots]Time
	resFar  []Time
}

// resNs needs one bit per nanosecond of a slot.
const _ = uint(1<<wheelSlotShift-16) + uint(16-1<<wheelSlotShift)

// EnableWheel switches the engine's scheduler into windowed-wheel mode.
// It must be called before any event is scheduled.
func (e *Engine) EnableWheel() {
	if len(e.queue) > 0 || e.seq != 0 {
		panic("sim: EnableWheel on a used engine")
	}
	e.wheel = &wheel{curSlot: -1}
}

// WheelEnabled reports whether the engine runs the windowed-wheel
// scheduler.
func (e *Engine) WheelEnabled() bool { return e.wheel != nil }

// FarStats reports the wheel's far-heap traffic: events that overflowed
// past the ring span into the binary heap, and those migrated back into
// ring slots as the cursor advanced. Always (0, 0) in heap mode.
func (e *Engine) FarStats() (overflows, migrations uint64) {
	if e.wheel == nil {
		return 0, 0
	}
	return e.wheel.farOverflows, e.wheel.farMigrations
}

// slotFor maps an absolute time to its ring slot.
func slotFor(at Time) int { return int(at>>wheelSlotShift) & (wheelSlots - 1) }

// slotInsert files ev into its (time, seq)-sorted position within its ring
// slot. Scheduling runs forward in time, so the scan from the tail is an
// append in the common case.
func (e *Engine) slotInsert(ev *event) {
	w := e.wheel
	s := slotFor(ev.at)
	q := w.slots[s]
	i := len(q)
	floor := 0
	if s == w.curSlot {
		floor = w.curIdx
	}
	for i > floor && eventLess(ev, q[i-1]) {
		i--
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = ev
	w.slots[s] = q
	w.occ[s>>6] |= 1 << uint(s&63)
	ev.index = idxWheel
}

// wheelPush files ev into its ring slot or the far heap.
func (e *Engine) wheelPush(ev *event) {
	w := e.wheel
	d := (ev.at >> wheelSlotShift) - (w.base >> wheelSlotShift)
	if d < 0 {
		// A negative slot distance would alias into a slot the cursor has
		// already passed and silently fire one ring revolution late.
		panic("sim: wheel push behind the drain cursor")
	}
	if d < wheelSlots {
		e.slotInsert(ev)
		if e.pending > e.peakQueue {
			// In wheel mode peakQueue tracks the pending high-water mark —
			// the same freelist-sizing role it plays in heap mode.
			e.peakQueue = e.pending
		}
		return
	}
	w.farOverflows++
	e.heapPush(ev)
}

// migrateFar moves far-heap events whose slot has entered the ring span
// into their sorted slot positions. Called whenever base advances.
func (e *Engine) migrateFar() {
	w := e.wheel
	baseSlot := w.base >> wheelSlotShift
	for len(e.queue) > 0 && (e.queue[0].at>>wheelSlotShift)-baseSlot < wheelSlots {
		ev := e.heapPop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		w.farMigrations++
		e.slotInsert(ev)
	}
}

// NextEventTime returns the timestamp of the earliest pending event, or
// Infinity if nothing is pending. The shard group uses it at barriers to
// fast-forward across globally idle spans. In wheel mode a reserved slot
// that has not passed counts as an event, so the group opens every window
// the event standing behind the reservation would have opened; heap-mode
// engines never run in a group and report events only.
func (e *Engine) NextEventTime() Time {
	if e.wheel != nil {
		next := e.wheelNext()
		if r := e.wheel.nextReserved(); r < next {
			next = r
		}
		return next
	}
	for len(e.queue) > 0 {
		if top := e.queue[0]; top.cancelled {
			e.recycle(e.heapPop())
		} else {
			return top.at
		}
	}
	return Infinity
}

// wheelNext returns the time of the earliest pending event at or after
// base, or Infinity. It prunes fully cancelled slots as it scans.
func (e *Engine) wheelNext() Time {
	w := e.wheel
	if e.pending == 0 {
		// Only cancelled far events may remain; drop them.
		for len(e.queue) > 0 {
			e.recycle(e.heapPop())
		}
		return Infinity
	}
	baseSlot := w.base >> wheelSlotShift
	for ds := Time(0); ds < wheelSlots; {
		s := int(baseSlot+ds) & (wheelSlots - 1)
		b := w.occ[s>>6] >> uint(s&63)
		if b == 0 {
			ds += Time(64 - s&63)
			continue
		}
		ds += Time(bits.TrailingZeros64(b))
		if ds >= wheelSlots {
			break
		}
		if at, ok := e.slotFirst(int(baseSlot+ds) & (wheelSlots - 1)); ok {
			return at
		}
		ds++
	}
	for len(e.queue) > 0 {
		if top := e.queue[0]; top.cancelled {
			e.recycle(e.heapPop())
		} else {
			return top.at
		}
	}
	return Infinity
}

// reserve records a reserved time at or after base.
func (w *wheel) reserve(at Time) {
	abs := at >> wheelSlotShift
	if abs-(w.base>>wheelSlotShift) >= wheelSlots {
		w.resFar = append(w.resFar, at)
		return
	}
	s := slotFor(at)
	if w.resSlot[s] != abs || w.resOcc[s>>6]&(1<<uint(s&63)) == 0 {
		w.resSlot[s], w.resNs[s] = abs, 0
	}
	w.resNs[s] |= 1 << uint(at&(1<<wheelSlotShift-1))
	w.resOcc[s>>6] |= 1 << uint(s&63)
}

// nextReserved returns the earliest reserved time at or after base, or
// Infinity. Between windows base is the horizon just reached, so exactly
// the reservations that have not passed qualify.
func (w *wheel) nextReserved() Time {
	next := Infinity
	baseSlot := w.base >> wheelSlotShift
	for ds := Time(0); ds < wheelSlots; {
		s := int(baseSlot+ds) & (wheelSlots - 1)
		b := w.resOcc[s>>6] >> uint(s&63)
		if b == 0 {
			ds += Time(64 - s&63)
			continue
		}
		ds += Time(bits.TrailingZeros64(b))
		if ds >= wheelSlots {
			break
		}
		abs := baseSlot + ds
		s = int(abs) & (wheelSlots - 1)
		ns := w.resNs[s]
		if w.resSlot[s] != abs {
			ns = 0 // an earlier revolution's
		} else if ds == 0 {
			ns &^= 1<<uint(w.base&(1<<wheelSlotShift-1)) - 1 // below base
		}
		if ns != 0 {
			next = abs<<wheelSlotShift + Time(bits.TrailingZeros16(ns))
			break
		}
		w.resOcc[s>>6] &^= 1 << uint(s&63) // every time in it passed
		ds++
	}
	keep := w.resFar[:0]
	for _, at := range w.resFar {
		if at >= w.base {
			keep = append(keep, at)
			next = min(next, at)
		}
	}
	w.resFar = keep
	return next
}

// slotFirst returns the time of slot s's earliest live event (the first
// non-cancelled entry — slots are sorted), clearing the slot and its bit
// when everything in it was cancelled.
func (e *Engine) slotFirst(s int) (Time, bool) {
	w := e.wheel
	q := w.slots[s]
	for _, ev := range q {
		if !ev.cancelled {
			return ev.at, true
		}
	}
	for _, ev := range q {
		ev.index = idxPopped
		e.recycle(ev)
	}
	w.slots[s] = q[:0]
	w.occ[s>>6] &^= 1 << uint(s&63)
	return 0, false
}

// AdvanceTo moves the clock (and in wheel mode the drain cursor) forward
// to at. It is the shard group's window-alignment hook: the caller
// guarantees no pending event lies before at.
func (e *Engine) AdvanceTo(at Time) {
	if at <= e.now {
		return
	}
	e.now, e.curSeq = at, 0
	if w := e.wheel; w != nil && at > w.base {
		w.base = at
		e.migrateFar()
	}
}

// runWheel executes events with time < horizon in (time, seq) order,
// returning when the horizon is reached, the engine stops, or nothing is
// pending below the horizon. A finite horizon leaves cursor and clock at
// the horizon itself (the window end), so every slot reserved below it
// reads passed.
func (e *Engine) runWheel(horizon Time) uint64 {
	start := e.Processed
	w := e.wheel
	e.stopped = false
	defer e.closeWindow(horizon)
	for {
		if e.pending == 0 {
			if horizon != Infinity && w.base < horizon {
				w.base = horizon
			}
			break
		}
		if w.base >= horizon {
			break
		}
		s := slotFor(w.base)
		if w.occ[s>>6]&(1<<uint(s&63)) == 0 {
			// Empty slot: hop over the whole empty region via the bitmap.
			e.hopEmpty(horizon)
			continue
		}
		// Drain the slot in (time, seq) order. Handlers may insert
		// same-window events into this very slot mid-drain; re-reading the
		// slice header each iteration picks them up in sorted position
		// (slotInsert's curIdx floor keeps them past the fired prefix).
		w.curSlot = s
		i := 0
		halted := false
		for i < len(w.slots[s]) {
			ev := w.slots[s][i]
			if ev.cancelled {
				i++
				w.curIdx = i
				ev.index = idxPopped
				e.recycle(ev)
				continue
			}
			if ev.at >= horizon {
				halted = true
				break
			}
			i++
			w.curIdx = i
			e.now, e.curSeq = ev.at, ev.seq
			e.Processed++
			e.pending--
			ev.index = idxPopped
			if a := ev.actor; a != nil {
				kind, arg := ev.kind, ev.arg
				e.recycle(ev)
				a.HandleEvent(e, kind, arg)
			} else {
				fn := ev.fn
				e.recycle(ev)
				fn(e)
			}
			if e.stopped {
				halted = true
				break
			}
		}
		w.curSlot = -1
		if halted {
			// Preserve the un-run suffix of the slot in place.
			rest := w.slots[s][i:]
			n := copy(w.slots[s], rest)
			w.slots[s] = w.slots[s][:n]
			if n == 0 {
				w.occ[s>>6] &^= 1 << uint(s&63)
			}
			if e.stopped {
				return e.Processed - start
			}
			// Horizon reached mid-slot: everything below it has fired, the
			// suffix is at or after it, so the cursor lands exactly there.
			if w.base < horizon {
				w.base = horizon
			}
			break
		}
		w.slots[s] = w.slots[s][:0]
		w.occ[s>>6] &^= 1 << uint(s&63)
		w.base = ((w.base >> wheelSlotShift) + 1) << wheelSlotShift
		if w.base > horizon {
			// Never overshoot the window end: the next window delivers
			// cross-shard events at times in [horizon, slot end), which must
			// stay ahead of the cursor.
			w.base = horizon
		}
		if len(e.queue) > 0 {
			e.migrateFar()
		}
	}
	return e.Processed - start
}

// closeWindow parks the clock when runWheel returns without a Stop: at
// the horizon, or after a full drain at the latest reserved slot.
func (e *Engine) closeWindow(horizon Time) {
	if e.stopped {
		return
	}
	if horizon == Infinity {
		e.parkClock()
		return
	}
	if e.now < horizon {
		e.now = horizon
	}
	e.curSeq = 0
}

// hopEmpty advances base across a run of empty slots, bounded by horizon
// and the ring span, migrating far events when new span opens up.
func (e *Engine) hopEmpty(horizon Time) {
	w := e.wheel
	limit := ((w.base >> wheelSlotShift) + wheelSlots) << wheelSlotShift
	if horizon < limit {
		limit = horizon
	}
	at := w.base
	for at < limit {
		s := slotFor(at)
		b := w.occ[s>>6] >> uint(s&63)
		if b != 0 {
			if off := Time(bits.TrailingZeros64(b)); off > 0 {
				at = ((at >> wheelSlotShift) + off) << wheelSlotShift
			}
			break
		}
		at = ((at >> wheelSlotShift) + Time(64-s&63)) << wheelSlotShift
	}
	if at > limit {
		at = limit
	}
	w.base = at
	if e.now < at {
		e.now = at
	}
	e.migrateFar()
}
