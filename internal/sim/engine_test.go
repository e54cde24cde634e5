package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("clock = %v, want 3s", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, func() { order = append(order, i) })
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := New()
	fired := false
	ev := e.After(time.Second, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("Pending() = false before Cancel")
	}
	ev.Cancel()
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if ev.Pending() {
		t.Error("Pending() = true after Cancel")
	}
	// Double-cancel and zero-value cancel are no-ops.
	ev.Cancel()
	var zero Event
	zero.Cancel()
	if zero.Pending() {
		t.Error("zero Event reports pending")
	}
}

// A cancelled one-shot's slot is recycled eagerly; the stale handle must
// not cancel or move the slot's next occupant.
func TestStaleHandleCannotTouchRecycledSlot(t *testing.T) {
	e := New()
	stale := e.After(time.Second, func() {})
	stale.Cancel()

	fired := false
	fresh := e.After(2*time.Second, func() { fired = true })
	if fresh.id != stale.id {
		t.Fatalf("slot not recycled: fresh id %d, stale id %d", fresh.id, stale.id)
	}
	stale.Cancel() // must be a no-op against the new occupant
	if err := stale.Schedule(5 * time.Second); err == nil {
		t.Error("Schedule on stale handle succeeded")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("new occupant was disturbed by a stale handle")
	}
	if e.Now() != 2*time.Second {
		t.Errorf("clock = %v, want 2s (stale Schedule must not move the occupant)", e.Now())
	}
}

func TestScheduleInPastRejected(t *testing.T) {
	e := New()
	e.After(time.Second, func() {
		if _, err := e.At(0, func() {}); err == nil {
			t.Error("scheduling in the past succeeded")
		}
	})
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := New()
	var at Time
	e.After(time.Second, func() {
		e.After(-5*time.Second, func() { at = e.Now() })
	})
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != time.Second {
		t.Errorf("negative-delay event fired at %v, want 1s", at)
	}
}

func TestRunUntilBound(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Time{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.After(d, func() { fired = append(fired, d) })
	}
	if _, err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=2s, want 2", len(fired))
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Errorf("fired %d events total, want 3", len(fired))
	}
}

func TestEventBudgetDetectsLivelock(t *testing.T) {
	e := New()
	e.MaxEvents = 100
	var spin func()
	spin = func() { e.After(0, spin) }
	e.After(0, spin)
	if _, err := e.RunAll(); err != ErrHorizon {
		t.Errorf("err = %v, want ErrHorizon", err)
	}
}

func TestStepProcessesOneEvent(t *testing.T) {
	e := New()
	n := 0
	e.After(time.Second, func() { n++ })
	e.After(2*time.Second, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("after first Step n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("after second Step n=%d", n)
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestReentrantRunRejected(t *testing.T) {
	e := New()
	var innerErr error
	e.After(time.Second, func() {
		_, innerErr = e.RunAll()
	})
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if innerErr == nil {
		t.Error("re-entrant Run succeeded")
	}
}

func TestScheduleMovesEvent(t *testing.T) {
	e := New()
	var fired []string
	ev := e.After(time.Second, func() { fired = append(fired, "moved") })
	e.After(2*time.Second, func() { fired = append(fired, "fixed") })
	// Push the first event past the second, then pull it back earlier.
	if err := ev.Schedule(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ev.Schedule(1500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != "moved" || fired[1] != "fixed" {
		t.Errorf("order = %v, want [moved fixed]", fired)
	}
}

func TestScheduleLeavesNoDeadEvents(t *testing.T) {
	e := New()
	ev := e.After(time.Second, func() {})
	for i := 0; i < 100; i++ {
		if err := ev.Schedule(Time(i)*time.Millisecond + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d after 100 reschedules, want 1 (no tombstones)", e.Pending())
	}
	if ev.At() != 99*time.Millisecond+time.Second {
		t.Errorf("At() = %v after reschedules", ev.At())
	}
}

// A fired or cancelled one-shot cannot be revived — its slot is recycled
// and its callback gone. Persistent timers are the revivable form.
func TestScheduleRejectsStaleOneShot(t *testing.T) {
	e := New()
	ev := e.After(time.Second, func() {})
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := ev.Schedule(2 * time.Second); err == nil {
		t.Error("Schedule on fired one-shot succeeded")
	}
	ev2 := e.After(time.Second, func() {})
	ev2.Cancel()
	if err := ev2.Schedule(2 * time.Second); err == nil {
		t.Error("Schedule on cancelled one-shot succeeded")
	}
}

func TestTimerReArmAndCancel(t *testing.T) {
	e := New()
	var fired []Time
	var tm Event
	tm = e.NewTimer(func(uint64) {
		fired = append(fired, e.Now())
		if len(fired) < 3 {
			if err := tm.Schedule(e.Now() + time.Second); err != nil {
				t.Error(err)
			}
		}
	}, 0)
	if tm.Pending() {
		t.Fatal("fresh timer reports pending")
	}
	if err := tm.Schedule(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[2] != 3*time.Second {
		t.Fatalf("timer fired at %v, want [1s 2s 3s]", fired)
	}
	// Cancel parks the timer but keeps it revivable.
	if err := tm.Schedule(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	tm.Cancel()
	if tm.Pending() {
		t.Error("cancelled timer reports pending")
	}
	if err := tm.Schedule(11 * time.Second); err != nil {
		t.Fatalf("re-arm after cancel: %v", err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 || fired[3] != 11*time.Second {
		t.Fatalf("re-armed timer fired at %v", fired)
	}
}

func TestAfterCallPassesArg(t *testing.T) {
	e := New()
	var got []uint64
	cb := func(arg uint64) { got = append(got, arg) }
	e.AfterCall(time.Second, cb, 7)
	e.AfterCall(2*time.Second, cb, 9)
	e.AfterCall(0, cb, 1)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 7 || got[2] != 9 {
		t.Errorf("args = %v, want [1 7 9]", got)
	}
}

// TestScheduleSameTimeFIFO: a rescheduled event lands at the back of
// the FIFO among events at the same instant, as if newly scheduled.
func TestScheduleSameTimeFIFO(t *testing.T) {
	e := New()
	var order []int
	ev := e.After(time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	if err := ev.Schedule(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestScheduleRejectsPastAndZero(t *testing.T) {
	e := New()
	ev := e.After(2*time.Second, func() {})
	e.After(time.Second, func() {
		if err := ev.Schedule(0); err == nil {
			t.Error("reschedule into the past succeeded")
		}
	})
	var zero Event
	if err := zero.Schedule(time.Second); err == nil {
		t.Error("schedule of zero Event succeeded")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestStepHonorsEventBudget(t *testing.T) {
	e := New()
	e.MaxEvents = 2
	n := 0
	for i := 0; i < 5; i++ {
		e.After(Time(i)*time.Second, func() { n++ })
	}
	for e.Step() {
	}
	if n != 2 {
		t.Errorf("Step executed %d events with MaxEvents=2", n)
	}
	if e.Pending() != 3 {
		t.Errorf("pending = %d, want 3 (budget must not drop events)", e.Pending())
	}
}

func TestStepRejectsReentrancy(t *testing.T) {
	e := New()
	inner := true
	e.After(time.Second, func() {
		inner = e.Step()
	})
	e.After(2*time.Second, func() {})
	if !e.Step() {
		t.Fatal("outer Step returned false")
	}
	if inner {
		t.Error("re-entrant Step executed an event")
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

// TestClockMonotonic property: for any batch of scheduled delays, events
// fire in non-decreasing time order.
func TestClockMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var times []Time
		for _, d := range delays {
			e.After(Time(d)*time.Millisecond, func() { times = append(times, e.Now()) })
		}
		if _, err := e.RunAll(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// waitCollected GCs until the finalizer-observed flag flips or the
// attempt budget runs out. The flag is atomic because finalizers run on
// their own goroutine.
func waitCollected(collected *atomic.Bool) bool {
	for i := 0; i < 20 && !collected.Load(); i++ {
		runtime.GC()
	}
	return collected.Load()
}

// Regression test for event-heap churn: a cancelled event must not keep
// its callback (and everything the closure captures) reachable through
// the engine's internal storage.
func TestCancelReleasesCallback(t *testing.T) {
	e := New()
	var collected atomic.Bool
	func() {
		payload := make([]byte, 1<<16)
		runtime.SetFinalizer(&payload[0], func(*byte) { collected.Store(true) })
		ev := e.After(time.Second, func() { _ = payload[0] })
		ev.Cancel()
	}()
	if !waitCollected(&collected) {
		t.Error("cancelled event still holds its callback closure")
	}
	_ = e.Pending()
}

// A fired event's callback must be released too, even when the heap's
// backing array still has capacity covering its old slot.
func TestFiredEventReleasesCallback(t *testing.T) {
	e := New()
	var collected atomic.Bool
	func() {
		payload := make([]byte, 1<<16)
		runtime.SetFinalizer(&payload[0], func(*byte) { collected.Store(true) })
		e.After(time.Second, func() { _ = payload[0] })
	}()
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !waitCollected(&collected) {
		t.Error("fired event still holds its callback closure")
	}
}

// Re-arming one persistent timer must not allocate: this is the engine
// half of the zero-alloc steady-state guarantee.
func TestTimerReArmZeroAlloc(t *testing.T) {
	e := New()
	tick := func(uint64) {}
	tm := e.NewTimer(tick, 0)
	if err := tm.Schedule(time.Second); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := tm.Schedule(tm.At() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Schedule allocates %v times per re-arm, want 0", avg)
	}
}

// TestEveryTiesLikeAfterLoop: an Every loop interleaves with same-time
// events exactly as the self-rescheduling After loop it stands for —
// loops whose beats coincide, ticks that schedule work now and one
// period ahead, one-shots landing on beat instants, and loops that stop.
func TestEveryTiesLikeAfterLoop(t *testing.T) {
	type loopFn func(e *Engine, first, period Time, tick func() bool)
	run := func(loop loopFn) ([]string, uint64) {
		e := New()
		var log []string
		note := func(s string) { log = append(log, fmt.Sprintf("%v %s", e.Now(), s)) }
		for i, first := range []Time{0, time.Second, 500 * time.Millisecond, time.Second} {
			name := fmt.Sprintf("loop%d", i)
			beats := 0
			loop(e, first, time.Second, func() bool {
				beats++
				note(name)
				e.After(0, func() { note(name + "/work") })
				e.After(time.Second, func() { note(name + "/due") })
				return beats < 3+i
			})
			e.After(2*time.Second, func() { note(fmt.Sprintf("shot%d", i)) })
		}
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return log, e.Processed()
	}
	afterLoop := func(e *Engine, first, period Time, tick func() bool) {
		var beat func()
		beat = func() {
			if tick() {
				e.After(period, beat)
			}
		}
		e.After(first, beat)
	}
	want, wantN := run(afterLoop)
	got, gotN := run((*Engine).Every)
	if gotN != wantN {
		t.Errorf("Every processed %d events, the After loop %d", gotN, wantN)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Every order differs from the After loop:\n got %v\nwant %v", got, want)
	}
}

// An Every loop allocates its callback once, not once per beat.
func TestEveryAllocatesOncePerLoop(t *testing.T) {
	e := New()
	beats := 0
	tick := func() bool {
		beats++
		return beats%1000 != 0
	}
	avg := testing.AllocsPerRun(10, func() {
		e.Every(0, time.Millisecond, tick)
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Errorf("a 1000-beat loop allocates %v times, want at most 2", avg)
	}
}

func TestReservePreservesQueue(t *testing.T) {
	e := New()
	var order []int
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.Reserve(1024)
	e.After(3*time.Second, func() { order = append(order, 3) })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestBackoffDoublesToCap(t *testing.T) {
	base := 500 * time.Millisecond
	for attempt, want := range []Time{base, 2 * base, 4 * base, 8 * base} {
		if got := Backoff(base, attempt); got != want {
			t.Errorf("Backoff(%v, %d) = %v, want %v", base, attempt, got, want)
		}
	}
	for _, attempt := range []int{6, 7, 1000} {
		if got := Backoff(base, attempt); got != 30*time.Second {
			t.Errorf("Backoff(%v, %d) = %v, want the 30s cap", base, attempt, got)
		}
	}
	if got := Backoff(time.Minute, 0); got != 30*time.Second {
		t.Errorf("Backoff(1m, 0) = %v, want the 30s cap", got)
	}
}
