// Package sim provides a deterministic single-threaded discrete-event
// simulation engine. All higher layers (network, HDFS, YARN, MapReduce)
// schedule callbacks on one Engine so that an entire cluster run is a pure
// function of its inputs and RNG seed.
//
// Events live in a per-engine slab and are addressed by int32 slot ids
// ordered by an index heap, so the hot path never boxes through interfaces
// or allocates per event. Slots are recycled through a free list and
// generation-counted: a handle to a fired or cancelled event goes stale
// instead of aliasing the slot's next occupant.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"keddah/internal/telemetry"
)

// Time is simulated time measured from the start of the run.
// It uses time.Duration so call sites read naturally (500*time.Millisecond).
type Time = time.Duration

// MaxTime is the largest representable simulation instant.
const MaxTime Time = math.MaxInt64

// Backoff returns the retry delay before attempt number attempt
// (0-based): base doubled once per earlier attempt, capped at 30 s. HDFS
// pipeline and read recovery and the MapReduce shuffle fetch retry share
// it.
func Backoff(base Time, attempt int) Time {
	const maxBackoff = 30 * time.Second
	d := base
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// eventSlot is one slab entry. Exactly one of fn and cb is set: fn is the
// closure form, cb+arg the closure-free form hot paths use so that
// re-arming a pooled event allocates nothing.
type eventSlot struct {
	at  Time
	seq uint64
	fn  func()
	cb  func(uint64)
	arg uint64
	// gen is bumped every time the slot is freed, invalidating handles.
	gen uint32
	// heapIdx is the slot's position in the engine heap, -1 when unqueued.
	heapIdx int32
	// used marks the slot as owned (queued one-shot or live timer).
	used bool
	// persistent slots (timers) survive firing and cancellation; their
	// owner re-arms them with Schedule. One-shot slots are freed on fire.
	persistent bool
}

// Event is a generation-counted handle to a scheduled callback. It is a
// small value (copy freely); the zero value refers to no event and every
// operation on it is a safe no-op or error. Handles to one-shot events go
// stale once the event fires or is cancelled; handles to timers made with
// NewTimer stay valid for the engine's lifetime.
type Event struct {
	eng *Engine
	id  int32
	gen uint32
}

// Valid reports whether the handle was ever bound to an event. It does
// not imply the event is still pending — see Pending.
func (ev Event) Valid() bool { return ev.eng != nil }

// live returns the slot if the handle still refers to its event.
func (ev Event) live() *eventSlot {
	if ev.eng == nil || int(ev.id) >= len(ev.eng.slots) {
		return nil
	}
	s := &ev.eng.slots[ev.id]
	if s.gen != ev.gen || !s.used {
		return nil
	}
	return s
}

// Pending reports whether the event is queued to fire.
func (ev Event) Pending() bool {
	s := ev.live()
	return s != nil && s.heapIdx >= 0
}

// At returns the simulated time the event is scheduled for, or zero if
// the handle is stale.
func (ev Event) At() Time {
	if s := ev.live(); s != nil {
		return s.at
	}
	return 0
}

// Cancel removes a pending event from the queue. A cancelled one-shot
// event's slot is recycled immediately and its callback released, so
// cancellation storms leave no tombstones in the heap and no reachable
// closures. Cancelling a stale handle (already fired or cancelled) or the
// zero Event is a no-op. A cancelled timer stays owned and can be
// re-armed with Schedule.
func (ev Event) Cancel() {
	s := ev.live()
	if s == nil {
		return
	}
	if s.heapIdx >= 0 {
		ev.eng.heapRemove(s.heapIdx)
	}
	if !s.persistent {
		ev.eng.freeSlot(ev.id)
	}
}

// Schedule arms (or re-arms) the event to fire at absolute time t. A
// pending event is moved in place; an idle timer is queued. The event is
// given a fresh sequence number, so among same-time events it fires as if
// newly scheduled. Scheduling into the past, on the zero Event, or on a
// stale one-shot handle is an error (a fired one-shot's callback is gone —
// use NewTimer for events that must be revivable).
func (ev Event) Schedule(t Time) error {
	s, err := ev.armable(t)
	if err != nil {
		return err
	}
	ev.eng.arm(ev.id, s, t, ev.eng.Ticket())
	return nil
}

// ScheduleTicket arms (or re-arms) the event at absolute time t like
// Schedule, but keys it with seq, a sequence number taken earlier from
// Engine.Ticket, instead of a fresh one. Among same-time events it
// therefore fires exactly where it would have had it been scheduled when
// the ticket was issued, which lets a caller decide late whether an
// event needs queueing at all without changing the run's order. A
// ticket should key at most one pending event. A seq Ticket has not
// handed out yet fails with ErrTicketNotIssued, a t before now with
// ErrPast; the zero Event and stale one-shot handles fail as in Schedule.
func (ev Event) ScheduleTicket(t Time, seq uint64) error {
	s, err := ev.armable(t)
	if err != nil {
		return err
	}
	if seq >= ev.eng.seq {
		return fmt.Errorf("%w: ticket %d, next %d", ErrTicketNotIssued, seq, ev.eng.seq)
	}
	ev.eng.arm(ev.id, s, t, seq)
	return nil
}

// armable returns the slot of an event that may be armed at t.
func (ev Event) armable(t Time) (*eventSlot, error) {
	if ev.eng == nil {
		return nil, errors.New("sim: Schedule on zero Event")
	}
	s := ev.live()
	if s == nil {
		return nil, errors.New("sim: Schedule on stale event handle")
	}
	if t < ev.eng.now {
		return nil, fmt.Errorf("%w: reschedule at %v before now %v", ErrPast, t, ev.eng.now)
	}
	return s, nil
}

// ErrPast is returned when an event is scheduled before the current
// simulated time: the engine cannot rewind.
var ErrPast = errors.New("sim: schedule in the past")

// ErrTicketNotIssued is returned by Event.ScheduleTicket for a sequence
// number that Engine.Ticket has not handed out yet.
var ErrTicketNotIssued = errors.New("sim: ticket not issued")

// ErrHorizon is returned by Run when the event limit is exhausted before the
// queue drains, which almost always indicates a scheduling livelock.
var ErrHorizon = errors.New("sim: event budget exhausted before queue drained")

// Engine is the discrete-event core. The zero value is not usable; call New.
type Engine struct {
	now     Time
	slots   []eventSlot
	free    []int32
	heap    []int32
	seq     uint64
	running bool
	// MaxEvents bounds a single Run; 0 means the default of 500 million.
	MaxEvents uint64
	processed uint64
	metrics   telemetry.SimMetrics
}

// SetMetrics attaches engine instrumentation. The zero value detaches
// it (every hook degrades to a nil check).
func (e *Engine) SetMetrics(m telemetry.SimMetrics) { e.metrics = m }

// New returns an Engine with the clock at zero and an empty queue.
func New() *Engine {
	return &Engine{}
}

// Reserve pre-sizes the event slab and heap for at least n concurrent
// events, so a capture whose peak is known up front performs no slab
// growth on the hot path.
func (e *Engine) Reserve(n int) {
	if n <= cap(e.slots) {
		return
	}
	slots := make([]eventSlot, len(e.slots), n)
	copy(slots, e.slots)
	e.slots = slots
	heap := make([]int32, len(e.heap), n)
	copy(heap, e.heap)
	e.heap = heap
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently queued. Cancelled events
// leave the queue immediately, so the count is exact.
func (e *Engine) Pending() int { return len(e.heap) }

// allocSlot takes a slot from the free list or grows the slab.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.slots = append(e.slots, eventSlot{heapIdx: -1, gen: 1})
	return int32(len(e.slots) - 1)
}

// freeSlot recycles a slot: the generation bump invalidates every
// outstanding handle and the callback references are dropped so cancelled
// work is collectable.
func (e *Engine) freeSlot(id int32) {
	s := &e.slots[id]
	s.gen++
	s.fn = nil
	s.cb = nil
	s.arg = 0
	s.used = false
	s.persistent = false
	s.heapIdx = -1
	e.free = append(e.free, id)
}

// schedule books a slot and queues it.
func (e *Engine) schedule(t Time, fn func(), cb func(uint64), arg uint64) Event {
	id := e.allocSlot()
	s := &e.slots[id]
	s.at = t
	s.seq = e.seq
	e.seq++
	s.fn = fn
	s.cb = cb
	s.arg = arg
	s.used = true
	e.heapPush(id)
	return Event{eng: e, id: id, gen: s.gen}
}

// Ticket takes the next sequence number exactly as scheduling an event
// would, without queueing anything. Event.ScheduleTicket arms an event
// with it later, so the event ties with same-time events as if it had
// been scheduled at the moment of the Ticket call.
func (e *Engine) Ticket() uint64 {
	seq := e.seq
	e.seq++
	return seq
}

// arm keys slot id (s) with (t, seq) and queues it, or restores heap
// order after the key changed in place if it is already queued.
func (e *Engine) arm(id int32, s *eventSlot, t Time, seq uint64) {
	s.at = t
	s.seq = seq
	if s.heapIdx >= 0 {
		e.heapFix(s.heapIdx)
	} else {
		e.heapPush(id)
	}
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is an error: the engine cannot rewind.
func (e *Engine) At(t Time, fn func()) (Event, error) {
	if t < e.now {
		return Event{}, fmt.Errorf("%w: schedule at %v before now %v", ErrPast, t, e.now)
	}
	return e.schedule(t, fn, nil, 0), nil
}

// After schedules fn to run d after the current time. Negative delays
// clamp to zero (fire "now", after currently-running event returns).
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+d, fn, nil, 0)
}

// AfterCall is After for the closure-free callback form: cb(arg) runs d
// after the current time. Passing a long-lived func value (stored once by
// the caller) makes scheduling allocation-free.
func (e *Engine) AfterCall(d Time, cb func(uint64), arg uint64) Event {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+d, nil, cb, arg)
}

// Every runs tick first after the current time and then every period
// while tick returns true. The loop allocates one callback, not one per
// beat, and re-arms only after tick returns, so each beat takes its
// sequence number where a tick ending in After(period, ...) would: the
// loop ties with same-time events exactly as that hand-rolled one does.
func (e *Engine) Every(first, period Time, tick func() bool) {
	var beat func(uint64)
	beat = func(uint64) {
		if tick() {
			e.AfterCall(period, beat, 0)
		}
	}
	e.AfterCall(first, beat, 0)
}

// NewTimer reserves a persistent event slot bound to cb(arg). The timer
// starts unarmed; arm it with Schedule and disarm with Cancel, both any
// number of times — the slot is never recycled, so one timer re-armed per
// occurrence replaces an allocation-per-occurrence stream of one-shots.
func (e *Engine) NewTimer(cb func(uint64), arg uint64) Event {
	id := e.allocSlot()
	s := &e.slots[id]
	s.cb = cb
	s.arg = arg
	s.used = true
	s.persistent = true
	return Event{eng: e, id: id, gen: s.gen}
}

// less orders the heap by (time, sequence): equal-time events fire in the
// order they were scheduled, which is what makes runs reproducible.
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *Engine) heapPush(id int32) {
	e.slots[id].heapIdx = int32(len(e.heap))
	e.heap = append(e.heap, id)
	e.siftUp(len(e.heap) - 1)
	e.metrics.HeapDepthMax.SetMax(float64(len(e.heap)))
}

// heapRemove deletes the heap entry at position i.
func (e *Engine) heapRemove(i int32) {
	n := len(e.heap) - 1
	id := e.heap[i]
	if int(i) != n {
		e.heap[i] = e.heap[n]
		e.slots[e.heap[i]].heapIdx = i
	}
	e.heap = e.heap[:n]
	if int(i) != n {
		e.heapFix(i)
	}
	e.slots[id].heapIdx = -1
}

// heapFix restores heap order for the entry at position i after its key
// changed in place.
func (e *Engine) heapFix(i int32) {
	if !e.siftDown(int(i)) {
		e.siftUp(int(i))
	}
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e.heap[i], e.heap[parent]) {
			break
		}
		e.heapSwap(i, parent)
		i = parent
	}
}

// siftDown returns true if the entry moved.
func (e *Engine) siftDown(i int) bool {
	moved := false
	n := len(e.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && e.less(e.heap[right], e.heap[left]) {
			least = right
		}
		if !e.less(e.heap[least], e.heap[i]) {
			break
		}
		e.heapSwap(i, least)
		i = least
		moved = true
	}
	return moved
}

func (e *Engine) heapSwap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.slots[e.heap[i]].heapIdx = int32(i)
	e.slots[e.heap[j]].heapIdx = int32(j)
}

// fire pops and executes the heap minimum. The slot is released (or, for
// timers, parked) before the callback runs, so callbacks can freely
// schedule new events — including re-arming the very timer that fired.
func (e *Engine) fire() {
	id := e.heap[0]
	e.heapRemove(0)
	s := &e.slots[id]
	e.processed++
	e.metrics.Events.Inc()
	e.now = s.at
	fn, cb, arg := s.fn, s.cb, s.arg
	if !s.persistent {
		e.freeSlot(id)
	}
	if cb != nil {
		cb(arg)
	} else {
		fn()
	}
}

// Run processes events until the queue is empty or until simulated time
// would exceed until. Events exactly at until still fire. It returns the
// time of the last processed event (or the starting time if none fired).
func (e *Engine) Run(until Time) (Time, error) {
	if e.running {
		return e.now, errors.New("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	budget := e.MaxEvents
	if budget == 0 {
		budget = 500_000_000
	}
	for len(e.heap) > 0 {
		if e.slots[e.heap[0]].at > until {
			return e.now, nil
		}
		if e.processed >= budget {
			return e.now, ErrHorizon
		}
		e.fire()
	}
	return e.now, nil
}

// RunAll processes every queued event with no time bound.
func (e *Engine) RunAll() (Time, error) { return e.Run(MaxTime) }

// NextEventAt returns the time of the earliest queued event, or false if
// the queue is empty. The sharded window scheduler peeks every shard's
// queue to derive the next conservative window boundary.
func (e *Engine) NextEventAt() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.slots[e.heap[0]].at, true
}

// RunBefore processes events strictly before bound: an event scheduled
// exactly at bound does not fire. This is the half-open window the
// sharded scheduler needs — a window [t, B) must leave boundary events
// for the next window, where cross-shard deliveries merged at the
// barrier can still be ordered ahead of them. Time counts whole
// nanoseconds, so that is Run(bound-1).
func (e *Engine) RunBefore(bound Time) (Time, error) { return e.Run(bound - 1) }

// Step executes exactly one pending event and returns true, or returns
// false if the queue is empty. Like Run, it refuses to execute
// re-entrantly (from inside an event callback) and stops once the
// MaxEvents budget is exhausted.
func (e *Engine) Step() bool {
	if e.running {
		return false
	}
	e.running = true
	defer func() { e.running = false }()

	budget := e.MaxEvents
	if budget == 0 {
		budget = 500_000_000
	}
	if len(e.heap) == 0 || e.processed >= budget {
		return false
	}
	e.fire()
	return true
}
