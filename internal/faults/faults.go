// Package faults is the unified fault-injection subsystem: a declarative,
// seedable schedule of link faults (down/up, capacity degradation) and
// transient node crashes with rejoin, applied to a simulated Hadoop
// cluster. Faults surface to the stack through the substrates' own
// recovery machinery — flow aborts and reroutes in netsim, write-pipeline
// recovery and read retries in HDFS, heartbeat-expiry detection and NM
// re-registration in YARN, shuffle fetch retry and blacklisting in
// MapReduce — so a chaos capture contains exactly the retry/recovery
// traffic a degraded physical cluster would.
//
// Injection is bit-deterministic: an empty Schedule leaves the cluster's
// event and RNG sequences untouched, and equal seeds with equal schedules
// reproduce identical traces.
package faults

import (
	"fmt"

	"keddah/internal/hadoop"
	"keddah/internal/netsim"
	"keddah/internal/sim"
	"keddah/internal/stats"
	"keddah/internal/telemetry"
)

// Kind selects the fault mechanism.
type Kind string

// The supported fault kinds.
const (
	// LinkDown takes a link (both directions) out of service: routes are
	// recomputed, in-flight flows re-route where an alternate path exists
	// and abort otherwise, and new flows toward partitioned destinations
	// time out like a failed TCP connect.
	LinkDown Kind = "linkDown"
	// LinkDegrade scales a link's capacity (both directions) by Factor —
	// the brown-out regime of a flapping optic or saturated middlebox.
	LinkDegrade Kind = "linkDegrade"
	// NodeCrash takes a whole worker down — network, DataNode and
	// NodeManager — and rejoins it after the duration, exercising
	// detection timers, re-registration and task re-execution.
	NodeCrash Kind = "nodeCrash"
)

// Fault is one scheduled fault on one target.
type Fault struct {
	Kind Kind `json:"kind"`
	// Link is the directed link index for link faults; the reverse
	// direction is faulted in lockstep.
	Link int `json:"link,omitempty"`
	// Worker is the worker index for node faults.
	Worker int `json:"worker,omitempty"`
	// AtNs is the injection time; DurationNs is how long the fault
	// lasts before healing.
	AtNs       int64 `json:"atNs"`
	DurationNs int64 `json:"durationNs"`
	// Factor is the LinkDegrade capacity multiplier in (0, 1].
	Factor float64 `json:"factor,omitempty"`
}

// Schedule is a set of faults to inject into one capture session. The
// zero value is the healthy schedule: injecting it is a guaranteed no-op.
type Schedule struct {
	Faults []Fault `json:"faults,omitempty"`
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Faults) == 0 }

// target keys faults that contend for the same resource.
func (f Fault) target() string {
	switch f.Kind {
	case LinkDown, LinkDegrade:
		return fmt.Sprintf("link:%d", f.Link)
	default:
		return fmt.Sprintf("worker:%d", f.Worker)
	}
}

// Validate checks every fault against the cluster dimensions and rejects
// overlapping faults on the same target (whose heal events would race).
func (s Schedule) Validate(links, workers int) error {
	for i, f := range s.Faults {
		switch f.Kind {
		case LinkDown, LinkDegrade:
			if f.Link < 0 || f.Link >= links {
				return fmt.Errorf("faults: fault %d: link %d out of range [0,%d)", i, f.Link, links)
			}
		case NodeCrash:
			if f.Worker < 0 || f.Worker >= workers {
				return fmt.Errorf("faults: fault %d: worker %d out of range [0,%d)", i, f.Worker, workers)
			}
		default:
			return fmt.Errorf("faults: fault %d: unknown kind %q", i, f.Kind)
		}
		if f.AtNs < 0 {
			return fmt.Errorf("faults: fault %d: negative injection time %d", i, f.AtNs)
		}
		if f.DurationNs <= 0 {
			return fmt.Errorf("faults: fault %d: non-positive duration %d", i, f.DurationNs)
		}
		if f.Kind == LinkDegrade && (f.Factor <= 0 || f.Factor > 1) {
			return fmt.Errorf("faults: fault %d: degrade factor %v outside (0,1]", i, f.Factor)
		}
		for k, g := range s.Faults[:i] {
			if f.target() != g.target() {
				continue
			}
			if f.AtNs < g.AtNs+g.DurationNs && g.AtNs < f.AtNs+f.DurationNs {
				return fmt.Errorf("faults: faults %d and %d overlap on %s", k, i, f.target())
			}
		}
	}
	return nil
}

// Inject schedules every fault of s onto the cluster. It validates the
// schedule against the cluster's link and worker counts first, so a bad
// schedule errors here instead of panicking mid-simulation. Call before
// Cluster.RunToIdle. An empty schedule schedules nothing.
func Inject(c *hadoop.Cluster, s Schedule) error {
	topo := c.Net.Topology()
	workers := c.Workers()
	if err := s.Validate(topo.NumLinks(), len(workers)); err != nil {
		return err
	}
	tel := c.Telemetry()
	for _, f := range s.Faults {
		f := f
		at := sim.Time(f.AtNs)
		heal := sim.Time(f.AtNs + f.DurationNs)
		record(tel, f)
		switch f.Kind {
		case LinkDown:
			lid := netsim.LinkID(f.Link)
			rev := topo.ReverseLink(lid)
			if _, err := c.Eng.At(at, func() { inject(tel, f); setLinkPair(c.Net, lid, rev, false) }); err != nil {
				return fmt.Errorf("faults: schedule %s: %w", f.target(), err)
			}
			if _, err := c.Eng.At(heal, func() { healed(tel, f); setLinkPair(c.Net, lid, rev, true) }); err != nil {
				return fmt.Errorf("faults: schedule %s heal: %w", f.target(), err)
			}
		case LinkDegrade:
			lid := netsim.LinkID(f.Link)
			rev := topo.ReverseLink(lid)
			if _, err := c.Eng.At(at, func() { inject(tel, f); scaleLinkPair(c.Net, lid, rev, f.Factor) }); err != nil {
				return fmt.Errorf("faults: schedule %s: %w", f.target(), err)
			}
			if _, err := c.Eng.At(heal, func() { healed(tel, f); scaleLinkPair(c.Net, lid, rev, 1) }); err != nil {
				return fmt.Errorf("faults: schedule %s heal: %w", f.target(), err)
			}
		case NodeCrash:
			if err := c.CrashWorker(workers[f.Worker], at, heal); err != nil {
				return fmt.Errorf("faults: schedule %s: %w", f.target(), err)
			}
			// CrashWorker schedules its own events; bracket them with the
			// counters at the same instants.
			if _, err := c.Eng.At(at, func() { inject(tel, f) }); err != nil {
				return fmt.Errorf("faults: schedule %s: %w", f.target(), err)
			}
			if _, err := c.Eng.At(heal, func() { healed(tel, f) }); err != nil {
				return fmt.Errorf("faults: schedule %s heal: %w", f.target(), err)
			}
		}
	}
	return nil
}

// record adds the fault's lifetime as a span; injection counters fire at
// the scheduled instants via inject/healed.
func record(tel *telemetry.Telemetry, f Fault) {
	if tel == nil {
		return
	}
	tel.Trace.Add(telemetry.Span{
		Cat: "fault", Name: string(f.Kind), Attr: f.target(),
		StartNs: f.AtNs, EndNs: f.AtNs + f.DurationNs,
	})
}

func inject(tel *telemetry.Telemetry, f Fault) {
	if tel != nil {
		tel.Fault.Injected(string(f.Kind)).Inc()
	}
}

func healed(tel *telemetry.Telemetry, f Fault) {
	if tel != nil {
		tel.Fault.Healed(string(f.Kind)).Inc()
	}
}

// setLinkPair flips both directions of a link; a missing reverse (never
// the case for Connect-built fabrics) is skipped.
func setLinkPair(net *netsim.Network, lid, rev netsim.LinkID, up bool) {
	if err := net.SetLinkState(lid, up); err != nil {
		panic(fmt.Sprintf("faults: set link state: %v", err))
	}
	if rev >= 0 {
		if err := net.SetLinkState(rev, up); err != nil {
			panic(fmt.Sprintf("faults: set link state: %v", err))
		}
	}
}

// scaleLinkPair rescales both directions of a link's capacity.
func scaleLinkPair(net *netsim.Network, lid, rev netsim.LinkID, factor float64) {
	if err := net.SetLinkCapacityScale(lid, factor); err != nil {
		panic(fmt.Sprintf("faults: scale link: %v", err))
	}
	if rev >= 0 {
		if err := net.SetLinkCapacityScale(rev, factor); err != nil {
			panic(fmt.Sprintf("faults: scale link: %v", err))
		}
	}
}

// RandomOpts parameterises Random schedule generation.
type RandomOpts struct {
	// N is the fault count to generate.
	N int
	// Kinds restricts the kinds drawn (default: all three).
	Kinds []Kind
	// Links / Workers are the target pool sizes (the cluster's directed
	// link count and worker count).
	Links   int
	Workers int
	// WindowStartNs / WindowEndNs bound injection times (default window
	// end: 60 s).
	WindowStartNs int64
	WindowEndNs   int64
	// MinDurationNs / MaxDurationNs bound fault durations (defaults 3 s
	// and 10 s).
	MinDurationNs int64
	MaxDurationNs int64
}

// Random draws LinkDegrade factors uniformly from [minDegradeFactor,
// maxDegradeFactor): a link keeps a tenth to a half of its capacity.
const (
	minDegradeFactor = 0.1
	maxDegradeFactor = 0.5
)

func (o *RandomOpts) applyDefaults() {
	if len(o.Kinds) == 0 {
		o.Kinds = []Kind{LinkDown, LinkDegrade, NodeCrash}
	}
	if o.WindowEndNs <= o.WindowStartNs {
		o.WindowEndNs = o.WindowStartNs + 60_000_000_000
	}
	if o.MinDurationNs <= 0 {
		o.MinDurationNs = 3_000_000_000
	}
	if o.MaxDurationNs < o.MinDurationNs {
		o.MaxDurationNs = o.MinDurationNs + 7_000_000_000
	}
}

// Random generates a deterministic schedule from seed: equal seeds and
// options produce identical schedules. Draws that would overlap an
// already-placed fault on the same target are re-drawn a bounded number
// of times and dropped if space cannot be found, so the result always
// validates.
func Random(seed int64, opts RandomOpts) Schedule {
	opts.applyDefaults()
	rng := stats.NewRNG(seed)
	var s Schedule
	for i := 0; i < opts.N; i++ {
		for try := 0; try < 64; try++ {
			f := draw(rng, opts)
			ok := true
			for _, g := range s.Faults {
				if f.target() != g.target() {
					continue
				}
				if f.AtNs < g.AtNs+g.DurationNs && g.AtNs < f.AtNs+f.DurationNs {
					ok = false
					break
				}
			}
			if ok {
				s.Faults = append(s.Faults, f)
				break
			}
		}
	}
	return s
}

// draw samples one fault uniformly within the option bounds.
func draw(rng *stats.RNG, opts RandomOpts) Fault {
	f := Fault{Kind: opts.Kinds[rng.Intn(len(opts.Kinds))]}
	span := opts.WindowEndNs - opts.WindowStartNs
	f.AtNs = opts.WindowStartNs + int64(rng.Float64()*float64(span))
	durSpan := opts.MaxDurationNs - opts.MinDurationNs
	f.DurationNs = opts.MinDurationNs + int64(rng.Float64()*float64(durSpan))
	switch f.Kind {
	case LinkDown, LinkDegrade:
		f.Link = rng.Intn(opts.Links)
	case NodeCrash:
		f.Worker = rng.Intn(opts.Workers)
	}
	if f.Kind == LinkDegrade {
		f.Factor = minDegradeFactor + rng.Float64()*(maxDegradeFactor-minDegradeFactor)
	}
	return f
}
