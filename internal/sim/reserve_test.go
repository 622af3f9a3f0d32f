package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// forModes runs fn against a fresh heap-mode and a fresh wheel-mode engine.
func forModes(t *testing.T, fn func(t *testing.T, e *Engine)) {
	for _, wheel := range []bool{false, true} {
		name := "heap"
		if wheel {
			name = "wheel"
		}
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			if wheel {
				e.EnableWheel()
			}
			fn(t, e)
		})
	}
}

// tagActor logs "tag@now" for every event it receives; arg is the tag.
type tagActor struct{ log *[]string }

func (a tagActor) HandleEvent(e *Engine, _ uint8, arg uint64) {
	*a.log = append(*a.log, fmt.Sprintf("%d@%d", arg, e.Now()))
}

// fillActor fills a reservation when it fires, as a port does when a
// packet arrives while its link release is reserved.
type fillActor struct {
	r   *Reservation
	dst Actor
	tag uint64
}

func (f fillActor) HandleEvent(e *Engine, _ uint8, _ uint64) {
	e.ScheduleReserved(*f.r, f.dst, 0, f.tag)
}

// TestReservedEventFiresInItsSlot: an event queued into a reservation fires
// exactly where ScheduleEvent at reserve time would have put it, between
// same-time events scheduled before and after the reservation.
func TestReservedEventFiresInItsSlot(t *testing.T) {
	// The reference schedules the event directly; the subject reserves its
	// slot and fills it from an earlier event (time 50) at the same time.
	run := func(e *Engine, reserve bool) []string {
		var log []string
		tag := tagActor{&log}
		var r Reservation
		e.ScheduleEvent(100, tag, 0, 1) // same time, scheduled before
		if reserve {
			r = e.Reserve(100)
		} else {
			e.ScheduleEvent(100, tag, 0, 2)
		}
		e.ScheduleEvent(100, tag, 0, 3) // same time, scheduled after
		e.ScheduleEvent(99, tag, 0, 4)
		e.ScheduleEvent(101, tag, 0, 5)
		if reserve {
			e.ScheduleEvent(50, fillActor{&r, tag, 2}, 0, 0)
		} else {
			e.ScheduleEvent(50, tag, 0, 0)
		}
		e.RunAll()
		if reserve {
			// The filler fired at 50 without logging; add its entry so the
			// two sequences line up.
			log = append([]string{"0@50"}, log...)
		}
		return log
	}
	forModes(t, func(t *testing.T, e *Engine) {
		ref := NewEngine()
		if e.WheelEnabled() {
			ref.EnableWheel()
		}
		want := run(ref, false)
		got := run(e, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reserved order %v, direct order %v", got, want)
		}
		if want := []string{"0@50", "4@99", "1@100", "2@100", "3@100", "5@101"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v, want %v", got, want)
		}
	})
}

// passProbe records Passed(r) each time it fires.
type passProbe struct {
	r   *Reservation
	got *[]string
}

func (p passProbe) HandleEvent(e *Engine, _ uint8, arg uint64) {
	*p.got = append(*p.got, fmt.Sprintf("%d:%v", arg, e.Passed(*p.r)))
}

// TestReservationPassed: Passed is false up to and including the events
// ordered before the slot, true from the first event ordered after it, and
// between Run calls true exactly for slots below the horizon reached.
func TestReservationPassed(t *testing.T) {
	forModes(t, func(t *testing.T, e *Engine) {
		var got []string
		var r Reservation
		p := passProbe{&r, &got}
		e.ScheduleEvent(99, p, 0, 1)
		e.ScheduleEvent(100, p, 0, 2) // same time, before the slot
		r = e.Reserve(100)
		e.ScheduleEvent(100, p, 0, 3) // same time, after the slot
		e.ScheduleEvent(101, p, 0, 4)
		if e.Passed(r) {
			t.Fatal("slot passed before anything ran")
		}
		e.Run(100)
		if e.Passed(r) {
			t.Fatal("slot at the horizon reads passed after Run(100)")
		}
		e.Run(Infinity)
		if !e.Passed(r) {
			t.Fatal("slot not passed after the drain")
		}
		if want := []string{"1:false", "2:false", "3:true", "4:true"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Passed inside events %v, want %v", got, want)
		}
		// A reservation taken between Run calls, at the parked clock,
		// has not passed.
		r2 := e.Reserve(e.Now())
		if e.Passed(r2) {
			t.Fatal("reservation taken between runs reads passed")
		}
	})
}

// reserveAt takes reservations at the listed times when it fires.
type reserveAt []Time

func (ts reserveAt) HandleEvent(e *Engine, _ uint8, _ uint64) {
	for _, at := range ts {
		e.Reserve(at)
	}
}

// TestRunParksClockAtReservation: a Run that drains or reaches its horizon
// leaves the clock at the latest reserved slot below the horizon — where
// the event in that slot would have left it — in both modes when drained,
// and in heap mode across a horizon (a wheel window ends at its horizon).
func TestRunParksClockAtReservation(t *testing.T) {
	forModes(t, func(t *testing.T, e *Engine) {
		e.ScheduleEvent(50, reserveAt{80, 70, 120}, 0, 0)
		if !e.WheelEnabled() {
			e.Run(100)
			if e.Now() != 80 {
				t.Fatalf("Now after Run(100) = %v, want the reserved 80", e.Now())
			}
			// 120 was carried past the first horizon.
			e.Run(130)
			if e.Now() != 120 {
				t.Fatalf("Now after Run(130) = %v, want the carried 120", e.Now())
			}
			return
		}
		e.Run(100)
		if e.Now() != 100 {
			t.Fatalf("wheel Now after Run(100) = %v, want the horizon", e.Now())
		}
		e.RunAll()
		if e.Now() != 120 {
			t.Fatalf("Now after drain = %v, want the reserved 120", e.Now())
		}
	})
	// A horizon-stopped heap run with events left: the reserved slot below
	// the horizon is later than the last executed event.
	e := NewEngine()
	e.ScheduleEvent(10, reserveAt{95, 400}, 0, 0)
	e.ScheduleEvent(90, reserveAt{}, 0, 0)
	e.ScheduleEvent(300, reserveAt{}, 0, 0)
	e.Run(100)
	if e.Now() != 95 {
		t.Fatalf("Now after Run(100) = %v, want 95", e.Now())
	}
	e.RunAll()
	if e.Now() != 400 {
		t.Fatalf("Now after drain = %v, want 400", e.Now())
	}
}

// ticker re-arms every period while the engine has work, like the status
// and congestion samplers.
type ticker struct {
	period Time
	ticks  *[]Time
}

func (tk ticker) HandleEvent(e *Engine, _ uint8, _ uint64) {
	*tk.ticks = append(*tk.ticks, e.Now())
	if e.HasWork() {
		e.AfterEvent(tk.period, tk, 0, 0)
	}
}

// TestHasWorkCountsUnpassedReservation: a sampler that re-arms while work
// remains ticks exactly as long over a reservation as over the no-op event
// it replaces.
func TestHasWorkCountsUnpassedReservation(t *testing.T) {
	run := func(e *Engine, reserve bool) []Time {
		var ticks []Time
		if reserve {
			e.ScheduleEvent(5, reserveAt{450}, 0, 0)
		} else {
			e.ScheduleEvent(5, noop{}, 0, 0)
			e.ScheduleEvent(450, noop{}, 0, 0)
		}
		e.ScheduleEvent(100, ticker{100, &ticks}, 0, 0)
		e.RunAll()
		return ticks
	}
	forModes(t, func(t *testing.T, e *Engine) {
		if e.HasWork() {
			t.Fatal("fresh engine reports work")
		}
		ref := NewEngine()
		if e.WheelEnabled() {
			ref.EnableWheel()
		}
		want := run(ref, false)
		got := run(e, true)
		if !reflect.DeepEqual(got, want) || len(got) != 5 {
			t.Fatalf("ticks over a reservation %v, over an event %v (want 5 ticks)", got, want)
		}
		if e.HasWork() {
			t.Fatal("drained engine still reports work")
		}
	})
}

type noop struct{}

func (noop) HandleEvent(*Engine, uint8, uint64) {}

// TestWheelNextEventTimeCountsReservations: between windows, a reserved
// slot that has not passed bounds NextEventTime like an event would, and a
// passed one (or one beyond the ring span, once reached) no longer does —
// also when the window ends inside a ring slot holding both.
func TestWheelNextEventTimeCountsReservations(t *testing.T) {
	e := NewEngine()
	e.EnableWheel()
	// 1605 and 1612 share the 16 ns ring slot [1600, 1616).
	e.ScheduleEvent(10, reserveAt{300, 1605, 1612, 100_000}, 0, 0)
	e.ScheduleEvent(5_000, noop{}, 0, 0)
	e.Run(200)
	if got := e.NextEventTime(); got != 300 {
		t.Fatalf("NextEventTime = %v, want the reserved 300", got)
	}
	e.Run(1_610)
	if got := e.NextEventTime(); got != 1_612 {
		t.Fatalf("NextEventTime = %v, want the reserved 1612 after a window ending mid-slot", got)
	}
	e.Run(1_700)
	if got := e.NextEventTime(); got != 5_000 {
		t.Fatalf("NextEventTime past the slots = %v, want the event at 5000", got)
	}
	e.Run(6_000)
	if got := e.NextEventTime(); got != 100_000 {
		t.Fatalf("NextEventTime = %v, want the far reservation 100000", got)
	}
	e.AdvanceTo(100_001)
	if got := e.NextEventTime(); got != Infinity {
		t.Fatalf("NextEventTime after every slot passed = %v", got)
	}
}

// TestScheduleReservedPassedPanics guards the contract: filling a slot the
// engine has already moved beyond would fire an event out of order.
func TestScheduleReservedPassedPanics(t *testing.T) {
	e := NewEngine()
	r := e.Reserve(10)
	e.ScheduleEvent(20, noop{}, 0, 0)
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic filling a passed reservation")
		}
	}()
	e.ScheduleReserved(r, noop{}, 0, 0)
}

// TestWheelReservedTimesMatchReference drives a wheel engine through
// random reservations (near, far, across ring revolutions) and windows
// ending anywhere inside 16 ns slots, and checks NextEventTime against the
// earliest reserved time at or after each window end.
func TestWheelReservedTimesMatchReference(t *testing.T) {
	rng := NewRNG(9)
	e := NewEngine()
	e.EnableWheel()
	var all []Time
	h := Time(0)
	for step := 0; step < 5000; step++ {
		for k := rng.Intn(4); k > 0; k-- {
			d := Time(rng.Intn(600))
			if rng.Intn(20) == 0 {
				d = Time(9000 + rng.Intn(20000)) // beyond the ring span
			}
			at := e.Now() + d
			e.Reserve(at)
			all = append(all, at)
		}
		h += Time(1 + rng.Intn(40))
		e.Run(h)
		want := Infinity
		for _, at := range all {
			if at >= h && at < want {
				want = at
			}
		}
		if got := e.NextEventTime(); got != want {
			t.Fatalf("step %d, window end %v: NextEventTime %v, want %v", step, h, got, want)
		}
	}
}
