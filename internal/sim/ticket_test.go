package sim

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestScheduleTicketSameTimeOrder: events armed at one instant fire in
// the order their tickets were issued, whatever order they were armed in,
// and a plainly scheduled event slots in by the sequence number it took.
func TestScheduleTicketSameTimeOrder(t *testing.T) {
	e := New()
	var order []int
	rec := func(arg uint64) { order = append(order, int(arg)) }
	timers := make([]Event, 4)
	tickets := make([]uint64, 4)
	for i := range timers {
		timers[i] = e.NewTimer(rec, uint64(i))
	}
	tickets[0] = e.Ticket()
	tickets[1] = e.Ticket()
	e.AfterCall(time.Second, rec, 9) // takes the sequence number between 1 and 2
	tickets[2] = e.Ticket()
	tickets[3] = e.Ticket()
	for _, i := range []int{3, 1, 2, 0} {
		if err := timers[i].ScheduleTicket(time.Second, tickets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 9, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestTicketAdvancesLikeSchedule: Ticket hands out the sequence number the
// next Schedule would have taken and advances the counter by exactly one,
// the same step every scheduling call takes.
func TestTicketAdvancesLikeSchedule(t *testing.T) {
	e := New()
	tm := e.NewTimer(func(uint64) {}, 0)
	for i := 0; i < 6; i++ {
		before := e.seq
		switch i % 3 {
		case 0:
			if got := e.Ticket(); got != before {
				t.Fatalf("Ticket = %d, want %d", got, before)
			}
		case 1:
			if err := tm.Schedule(time.Duration(i) * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := e.slots[tm.id].seq; got != before {
				t.Fatalf("Schedule took seq %d, want %d", got, before)
			}
		case 2:
			e.After(time.Second, func() {})
		}
		if e.seq != before+1 {
			t.Fatalf("step %d advanced the counter from %d to %d, want +1", i, before, e.seq)
		}
	}
}

// TestTicketRunMatchesScheduleRun replays one random workload twice. The
// eager run re-arms a set of timers with Schedule the moment their due
// time changes. The lazy run takes a Ticket at that moment instead and
// arms the timer with ScheduleTicket only once its due time falls at or
// before the next periodic tick, the way netsim arms flow completions.
// Both runs must fire the same events in the same order at the same
// times.
func TestTicketRunMatchesScheduleRun(t *testing.T) {
	const (
		nTimers = 12
		tick    = 10 * time.Millisecond
		ticks   = 200
	)
	type fired struct {
		at Time
		id int
	}
	run := func(lazy bool) []fired {
		rng := rand.New(rand.NewSource(7))
		e := New()
		var log []fired
		timers := make([]Event, nTimers)
		due := make([]Time, nTimers)
		ticket := make([]uint64, nTimers)
		var horizon Time
		for i := range timers {
			timers[i] = e.NewTimer(func(arg uint64) {
				log = append(log, fired{e.Now(), int(arg)})
				due[arg] = -1
			}, uint64(i))
			due[i] = -1
		}
		// move gives timer i a new due time, as a rate change would.
		move := func(i int, at Time) {
			if !lazy {
				if err := timers[i].Schedule(at); err != nil {
					t.Fatal(err)
				}
				return
			}
			due[i], ticket[i] = at, e.Ticket()
			if at <= horizon {
				if err := timers[i].ScheduleTicket(at, ticket[i]); err != nil {
					t.Fatal(err)
				}
			} else {
				timers[i].Cancel()
			}
		}
		var tickEv Event
		n := 0
		tickEv = e.NewTimer(func(uint64) {
			now := e.Now()
			// After the last tick nothing re-arms, so every due time
			// counts as inside the horizon.
			horizon = MaxTime
			if n++; n < ticks {
				horizon = now + tick
				if err := tickEv.Schedule(horizon); err != nil {
					t.Fatal(err)
				}
			}
			for k := rng.Intn(4); k > 0; k-- {
				move(rng.Intn(nTimers), now+Time(rng.Int63n(int64(5*tick))))
			}
			// Some moves land exactly on the next tick or on now.
			if rng.Intn(3) == 0 {
				move(rng.Intn(nTimers), now+tick)
			}
			if rng.Intn(3) == 0 {
				move(rng.Intn(nTimers), now)
			}
			if lazy {
				for i := range timers {
					if due[i] >= 0 && due[i] <= horizon && !timers[i].Pending() {
						if err := timers[i].ScheduleTicket(due[i], ticket[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}, 0)
		if err := tickEv.Schedule(0); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	eager, lazy := run(false), run(true)
	if len(eager) == 0 {
		t.Fatal("workload fired no timers")
	}
	if len(eager) != len(lazy) {
		t.Fatalf("eager run fired %d events, lazy run %d", len(eager), len(lazy))
	}
	for i := range eager {
		if eager[i] != lazy[i] {
			t.Fatalf("event %d: eager %+v, lazy %+v", i, eager[i], lazy[i])
		}
	}
}

func TestScheduleTicketErrors(t *testing.T) {
	e := New()
	tm := e.NewTimer(func(uint64) {}, 0)
	if err := tm.ScheduleTicket(time.Second, 0); !errors.Is(err, ErrTicketNotIssued) {
		t.Errorf("unissued ticket: got %v, want ErrTicketNotIssued", err)
	}
	seq := e.Ticket()
	e.After(2*time.Second, func() {
		if err := tm.ScheduleTicket(time.Second, seq); !errors.Is(err, ErrPast) {
			t.Errorf("past time: got %v, want ErrPast", err)
		}
		if err := tm.ScheduleTicket(3*time.Second, seq); err != nil {
			t.Errorf("valid ticket: %v", err)
		}
	})
	var zero Event
	if err := zero.ScheduleTicket(time.Second, seq); err == nil {
		t.Error("ScheduleTicket on the zero Event succeeded")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if tm.At() != 3*time.Second {
		t.Errorf("timer at %v, want 3s", tm.At())
	}
}
