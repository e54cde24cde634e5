// Sharded conservative-window scheduler: several slab engines advance in
// lockstep through time windows derived from a lookahead bound, with
// cross-shard events exchanged through fixed-order merge queues at window
// barriers. Within a window the shards share nothing, so they may run on
// separate goroutines; the merge order at every barrier is fixed
// (destination pod, then source pod, then send order), which makes a run
// byte-identical at any GOMAXPROCS and any shard count.
package sim

import (
	"errors"
	"fmt"
	"time"

	"keddah/internal/telemetry"
)

// post is one cross-shard event waiting in a mailbox for the next barrier.
type post struct {
	at Time
	fn func()
}

// ShardedEngine multiplexes `pods` logical shards onto one or more slab
// engines and advances them through conservative time windows.
//
// The protocol: every window, the scheduler peeks each engine's earliest
// event to derive tmin, sets the boundary B = tmin + lookahead, and runs
// every engine over the half-open window [·, B). Events executing inside
// a window may hand work to another pod only through Post, whose delivery
// time must be at least B — guaranteed whenever the cross-pod delay is at
// least the lookahead, since the sender's clock is at least tmin. At the
// barrier the mailboxes are merged in fixed (destination, source, FIFO)
// order onto the destination engines, so sequence numbers — and therefore
// same-instant tie-breaks — are assigned identically however many engines
// exist and however the goroutines interleave.
type ShardedEngine struct {
	engines   []*Engine
	podEng    []int // pod -> engine index
	lookahead Time
	// mail[src*pods+dst] is the (src → dst) mailbox. Each cell is
	// appended to only by src's goroutine and drained only at barriers,
	// so no cell is ever written concurrently.
	mail      [][]post
	windowEnd Time
	inWindow  bool
	windows   uint64
	// barrierHook, when set, runs after every barrier merge; a non-nil
	// error aborts the run (the invariants layer samples sweeps here,
	// where no shard goroutine is in flight).
	barrierHook func() error

	metrics telemetry.ShardMetrics
	busyNs  []int64
	winBusy []int64
	stallNs int64
	// critNs sums each window's slowest shard: the run's parallel
	// critical path, i.e. the wall time a machine with one core per
	// engine would need inside windows. Comparing the serial layout's
	// critNs against a sharded layout's measures achievable speedup
	// even on hosts without that many cores.
	critNs int64

	active  []int
	runErrs []error

	// Persistent window workers: one goroutine per engine, parked on its
	// work channel between windows. Spawning goroutines per window costs
	// more than a typical window's work, so RunWindows starts these once
	// and stops them on exit.
	work  []chan Time
	wdone chan int
}

// NewSharded builds a scheduler of `pods` logical shards multiplexed onto
// `engines` slab engines; pod i runs on engine i % engines. One engine is
// the serial baseline (every pod on one heap, still windowed, so barriers
// and boundary merges happen at identical instants); engines == pods is
// the fully sharded layout. lookahead is the minimum cross-pod delay and
// must be positive.
func NewSharded(pods, engines int, lookahead Time) (*ShardedEngine, error) {
	if pods < 1 {
		return nil, fmt.Errorf("sim: sharded scheduler needs at least one pod, got %d", pods)
	}
	if engines < 1 || engines > pods {
		return nil, fmt.Errorf("sim: engine count %d outside [1, %d pods]", engines, pods)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: non-positive lookahead %v", lookahead)
	}
	s := &ShardedEngine{
		engines:   make([]*Engine, engines),
		podEng:    make([]int, pods),
		lookahead: lookahead,
		mail:      make([][]post, pods*pods),
		busyNs:    make([]int64, engines),
		winBusy:   make([]int64, engines),
		active:    make([]int, 0, engines),
		runErrs:   make([]error, engines),
	}
	for i := range s.engines {
		s.engines[i] = New()
	}
	for p := range s.podEng {
		s.podEng[p] = p % engines
	}
	return s, nil
}

// Pods returns the logical shard count.
func (s *ShardedEngine) Pods() int { return len(s.podEng) }

// Lookahead returns the minimum cross-pod delay windows are derived from.
func (s *ShardedEngine) Lookahead() Time { return s.lookahead }

// PodEngine returns the engine hosting pod's events. Callers schedule
// pod-local work on it directly; only cross-pod work goes through Post.
func (s *ShardedEngine) PodEngine(pod int) *Engine { return s.engines[s.podEng[pod]] }

// Windows returns how many windows have executed.
func (s *ShardedEngine) Windows() uint64 { return s.windows }

// ProcessedTotal returns the events executed across all engines. By
// construction it is identical at every barrier whatever the engine
// count, so it can pace deterministic sampling (e.g. invariant sweeps).
func (s *ShardedEngine) ProcessedTotal() uint64 {
	var n uint64
	for _, eng := range s.engines {
		n += eng.Processed()
	}
	return n
}

// Now returns the scheduler clock: the furthest any engine has advanced.
func (s *ShardedEngine) Now() Time {
	var max Time
	for _, eng := range s.engines {
		if t := eng.Now(); t > max {
			max = t
		}
	}
	return max
}

// SetBarrierHook installs fn to run after every barrier merge.
func (s *ShardedEngine) SetBarrierHook(fn func() error) { s.barrierHook = fn }

// SetMetrics attaches scheduler instrumentation (telemetry.ShardSet).
func (s *ShardedEngine) SetMetrics(m telemetry.ShardMetrics) { s.metrics = m }

// Post queues fn to run on dst's engine at absolute time at, delivered
// at the next window barrier. During a window the delivery time must be
// at least the window boundary — callers satisfy this by scheduling at
// least `lookahead` after their own clock. Same-pod posts are rejected:
// pod-local work belongs directly on PodEngine(pod).
func (s *ShardedEngine) Post(src, dst int, at Time, fn func()) error {
	pods := len(s.podEng)
	if src < 0 || src >= pods || dst < 0 || dst >= pods {
		return fmt.Errorf("sim: post between pods %d and %d outside [0, %d)", src, dst, pods)
	}
	if src == dst {
		return errors.New("sim: post to own pod (schedule on PodEngine instead)")
	}
	if fn == nil {
		return errors.New("sim: post with nil callback")
	}
	if s.inWindow && at < s.windowEnd {
		return fmt.Errorf("sim: post at %v violates window boundary %v (cross-pod delay below lookahead %v)",
			at, s.windowEnd, s.lookahead)
	}
	s.mail[src*pods+dst] = append(s.mail[src*pods+dst], post{at: at, fn: fn})
	return nil
}

// nextEventAt returns the earliest event time across every engine.
func (s *ShardedEngine) nextEventAt() (Time, bool) {
	var min Time
	found := false
	for _, eng := range s.engines {
		if at, ok := eng.NextEventAt(); ok && (!found || at < min) {
			min, found = at, true
		}
	}
	return min, found
}

// window runs every engine over [·, bound) — in parallel when more than
// one has work and the window workers run — then merges the mailboxes at
// the barrier.
func (s *ShardedEngine) window(bound Time) error {
	s.windowEnd = bound
	s.active = s.active[:0]
	for i, eng := range s.engines {
		if at, ok := eng.NextEventAt(); ok && at < bound {
			s.active = append(s.active, i)
		}
	}
	s.inWindow = true
	wallStart := time.Now()
	if len(s.active) <= 1 || s.work == nil {
		var winMax int64
		for _, i := range s.active {
			start := time.Now()
			_, err := s.engines[i].RunBefore(bound)
			took := time.Since(start).Nanoseconds()
			s.busyNs[i] += took
			if took > winMax {
				winMax = took
			}
			if err != nil {
				s.inWindow = false
				return fmt.Errorf("sim: shard %d: %w", i, err)
			}
		}
		s.critNs += winMax
	} else {
		for _, i := range s.active {
			s.work[i] <- bound
		}
		for range s.active {
			<-s.wdone
		}
		wallNs := time.Since(wallStart).Nanoseconds()
		var winMax int64
		for _, i := range s.active {
			s.busyNs[i] += s.winBusy[i]
			s.stallNs += wallNs - s.winBusy[i] // barrier wait: window wall minus this shard's work
			if s.winBusy[i] > winMax {
				winMax = s.winBusy[i]
			}
			if err := s.runErrs[i]; err != nil {
				s.runErrs[i] = nil
				s.inWindow = false
				return fmt.Errorf("sim: shard %d: %w", i, err)
			}
		}
		s.critNs += winMax
	}
	s.inWindow = false
	s.windows++
	s.metrics.Windows.Inc()

	// Barrier merge: deliver mailboxes in fixed (dst, src, FIFO) order so
	// sequence numbers — hence same-instant ordering — are reproducible.
	pods := len(s.podEng)
	delivered := 0
	for dst := 0; dst < pods; dst++ {
		eng := s.engines[s.podEng[dst]]
		for src := 0; src < pods; src++ {
			cell := &s.mail[src*pods+dst]
			for _, p := range *cell {
				if _, err := eng.At(p.at, p.fn); err != nil {
					return fmt.Errorf("sim: deliver boundary event %d→%d: %w", src, dst, err)
				}
			}
			delivered += len(*cell)
			*cell = (*cell)[:0]
		}
	}
	if delivered > 0 {
		s.metrics.BoundaryEvents.Add(int64(delivered))
	}
	if s.barrierHook != nil {
		if err := s.barrierHook(); err != nil {
			return err
		}
	}
	return nil
}

// RunWindows advances every shard window by window until done reports
// true at a barrier. A nil done drains: windows run until every engine's
// queue and every mailbox is empty. With a non-nil done, running out of
// events before done is satisfied is an error, mirroring the serial
// cluster loop's "queue drained with tasks pending". It returns the
// scheduler clock at exit.
func (s *ShardedEngine) RunWindows(done func() bool) (Time, error) {
	if len(s.engines) > 1 {
		s.startWorkers()
		defer s.stopWorkers()
	}
	for {
		if done != nil && done() {
			break
		}
		tmin, ok := s.nextEventAt()
		if !ok {
			if done == nil {
				break
			}
			return s.Now(), errors.New("sim: sharded queues drained with work pending")
		}
		if err := s.window(tmin + s.lookahead); err != nil {
			return s.Now(), err
		}
	}
	s.flushGauges()
	return s.Now(), nil
}

// Drain processes every remaining event (shutdown teardown, pre-scheduled
// fault recoveries) with no completion predicate.
func (s *ShardedEngine) Drain() (Time, error) { return s.RunWindows(nil) }

// startWorkers parks one goroutine per engine on its work channel. Each
// worker runs only its own engine over the window bound it receives, so
// the shard-local invariant (no engine touched by two goroutines) holds
// by construction; the barrier in window() is the completion drain.
func (s *ShardedEngine) startWorkers() {
	if s.work != nil {
		return
	}
	s.work = make([]chan Time, len(s.engines))
	s.wdone = make(chan int, len(s.engines))
	for i := range s.work {
		s.work[i] = make(chan Time)
		go s.runWorker(i, s.work[i])
	}
}

// stopWorkers releases the parked worker goroutines. RunWindows defers
// this, so a ShardedEngine holds no goroutines between runs.
func (s *ShardedEngine) stopWorkers() {
	for _, ch := range s.work {
		close(ch)
	}
	s.work = nil
	s.wdone = nil
}

// runWorker is the persistent window worker for engine i: run the engine
// up to each bound received, record busy time and error, announce done.
// The channel is passed in rather than read from s.work so a worker that
// is slow to start never observes stopWorkers clearing the slice.
func (s *ShardedEngine) runWorker(i int, work <-chan Time) {
	for bound := range work {
		start := time.Now()
		_, err := s.engines[i].RunBefore(bound)
		s.winBusy[i] = time.Since(start).Nanoseconds()
		s.runErrs[i] = err
		s.wdone <- i
	}
}

// flushGauges publishes the volatile per-shard utilisation gauges. These
// depend on wall clock and shard layout, so they are Prometheus-only —
// the deterministic snapshot stays byte-identical at any shard count.
func (s *ShardedEngine) flushGauges() {
	s.metrics.StallMs.Set(float64(s.stallNs) / 1e6)
	s.metrics.CritPathMs.Set(float64(s.critNs) / 1e6)
	for i, eng := range s.engines {
		if i < len(s.metrics.ShardEvents) {
			s.metrics.ShardEvents[i].Set(float64(eng.Processed()))
		}
		if i < len(s.metrics.ShardBusyMs) {
			s.metrics.ShardBusyMs[i].Set(float64(s.busyNs[i]) / 1e6)
		}
	}
}
