package invariants

import (
	"fmt"
	"strings"

	"keddah/internal/hadoop"
	"keddah/internal/pcap"
	"keddah/internal/telemetry"
)

// wireErr describes a wire-conservation failure.
func wireErr(wire, repl int64, rel string) error {
	return fmt.Errorf("write-pipeline wire bytes %d vs replica-pinned bytes %d (want wire %s pinned)", wire, repl, rel)
}

// Options tunes a Checker. The zero value is usable: checks sample every
// defaultEvery engine steps, with the (expensive) allocator oracle on
// every defaultOracleEvery-th sweep, and violations carry no span context.
type Options struct {
	// Tracer, when non-nil, supplies the span context attached to
	// violations.
	Tracer *telemetry.Tracer
	// Every is the number of engine steps between layer sweeps
	// (default 64).
	Every int
	// OracleEvery runs the from-scratch max-min allocator oracle on every
	// OracleEvery-th sweep (default 8) — it is O(rounds × flows × links),
	// far heavier than the other checks.
	OracleEvery int
}

const (
	defaultEvery       = 64
	defaultOracleEvery = 8
)

// Checker samples cross-layer invariants of a running cluster. Create
// with Attach; every check is read-only, so a checked capture's
// trajectory is identical to an unchecked one.
type Checker struct {
	cluster *hadoop.Cluster
	opts    Options
	steps   int
	sweeps  int
	// capture is the checker's own packet capture, whose trains and
	// ground truth Final verifies.
	capture *pcap.Capture
}

// Attach installs a Checker as the cluster's step hook: after every
// event the cluster's RunToIdle loop processes, the checker counts the
// step and — at the sampling interval — sweeps the netsim, HDFS, YARN,
// and MapReduce invariants. A violation aborts the run through
// RunToIdle's error path. Attach also taps the cluster's network with a
// packet capture for Final's train and wire checks, so call it before
// any flow starts; that capture makes the network record rate history.
func Attach(cluster *hadoop.Cluster, opts Options) *Checker {
	if opts.Every <= 0 {
		opts.Every = defaultEvery
	}
	if opts.OracleEvery <= 0 {
		opts.OracleEvery = defaultOracleEvery
	}
	ck := &Checker{cluster: cluster, opts: opts, capture: pcap.NewCapture()}
	cluster.Net.AddTap(ck.capture)
	cluster.SetStepCheck(ck.step)
	return ck
}

// step is the per-event hook: run a sweep every opts.Every steps.
func (ck *Checker) step() error {
	ck.steps++
	if ck.steps%ck.opts.Every != 0 {
		return nil
	}
	ck.sweeps++
	return ck.sweep(ck.sweeps%ck.opts.OracleEvery == 0)
}

// Steps returns how many engine steps the checker has observed.
func (ck *Checker) Steps() int { return ck.steps }

// Sweep runs one layer sweep on demand, keeping the checker's oracle
// cadence. Multi-pod captures call it from the sharded scheduler's
// barrier hook — paced by processed-event deltas rather than per-event
// steps — where no shard goroutine is in flight, so the read-only checks
// stay race-free.
func (ck *Checker) Sweep() error {
	ck.sweeps++
	return ck.sweep(ck.sweeps%ck.opts.OracleEvery == 0)
}

// sweep runs every layer's invariant check once, optionally including
// the max-min allocator oracle.
func (ck *Checker) sweep(withOracle bool) error {
	now := int64(ck.cluster.Eng.Now())
	if err := ck.cluster.Net.VerifyState(); err != nil {
		return violation("netsim", "state", now, ck.opts.Tracer, err)
	}
	if withOracle {
		if err := ck.cluster.Net.CheckAllocatorOracle(); err != nil {
			return violation("netsim", "maxmin-oracle", now, ck.opts.Tracer, err)
		}
	}
	if err := ck.cluster.FS.VerifyInvariants(); err != nil {
		return violation("hdfs", "conservation", now, ck.opts.Tracer, err)
	}
	if err := ck.cluster.RM.VerifyInvariants(); err != nil {
		return violation("yarn", "slots", now, ck.opts.Tracer, err)
	}
	for _, j := range ck.cluster.Jobs() {
		if err := j.VerifyInvariants(); err != nil {
			return violation("mr", "shuffle-conservation", now, ck.opts.Tracer, err)
		}
	}
	return nil
}

// Final runs the end-of-capture checks once the cluster is idle: a full
// layer sweep including the allocator oracle, per-flow packet-train
// verification, and HDFS wire conservation against the ground truth of
// the checker's capture. faultFree asserts exact conservation — every
// byte the replica placement pins was carried exactly once by a
// write-pipeline flow; under fault injection, recovery restreaming makes
// the wire side a lower bound instead.
func (ck *Checker) Final(faultFree bool) error {
	if err := ck.sweep(true); err != nil {
		return err
	}
	now := int64(ck.cluster.Eng.Now())
	if err := ck.capture.VerifyTrains(); err != nil {
		return violation("pcap", "train", now, ck.opts.Tracer, err)
	}
	var wire int64
	for _, tr := range ck.capture.Truth() {
		if strings.HasSuffix(tr.Label, "/hdfsWrite") ||
			strings.HasSuffix(tr.Label, "/hdfsWrite-recovery") ||
			strings.HasSuffix(tr.Label, "/reReplication") {
			wire += tr.Bytes
		}
	}
	repl := ck.cluster.FS.ReplicatedBytes()
	if faultFree && wire != repl {
		return violation("hdfs", "wire-conservation", now, ck.opts.Tracer,
			wireErr(wire, repl, "=="))
	}
	if !faultFree && wire < repl {
		return violation("hdfs", "wire-conservation", now, ck.opts.Tracer,
			wireErr(wire, repl, ">="))
	}
	return nil
}
