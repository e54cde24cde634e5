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

// Sampling cadence: a layer sweep every sweepEvery engine steps, with the
// from-scratch max-min allocator oracle — O(rounds × flows × links), far
// heavier than the other checks — on every oracleEvery-th sweep.
const (
	sweepEvery  = 64
	oracleEvery = 8
)

// Checker samples cross-layer invariants of a running cluster. Create
// with Attach; every check is read-only, so a checked capture's
// trajectory is identical to an unchecked one.
type Checker struct {
	cluster *hadoop.Cluster
	// tracer, when non-nil, supplies the span context attached to
	// violations.
	tracer *telemetry.Tracer
	steps  int
	sweeps int
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
// A non-nil tracer supplies the span context attached to violations.
func Attach(cluster *hadoop.Cluster, tracer *telemetry.Tracer) *Checker {
	ck := &Checker{cluster: cluster, tracer: tracer, capture: pcap.NewCapture()}
	cluster.Net.AddTap(ck.capture)
	cluster.SetStepCheck(ck.step)
	return ck
}

// step is the per-event hook: run a sweep every sweepEvery steps.
func (ck *Checker) step() error {
	ck.steps++
	if ck.steps%sweepEvery != 0 {
		return nil
	}
	ck.sweeps++
	return ck.sweep(ck.sweeps%oracleEvery == 0)
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
	return ck.sweep(ck.sweeps%oracleEvery == 0)
}

// sweep runs every layer's invariant check once, optionally including
// the max-min allocator oracle.
func (ck *Checker) sweep(withOracle bool) error {
	now := int64(ck.cluster.Eng.Now())
	if err := ck.cluster.Net.VerifyState(); err != nil {
		return violation("netsim", "state", now, ck.tracer, err)
	}
	if withOracle {
		if err := ck.cluster.Net.CheckAllocatorOracle(); err != nil {
			return violation("netsim", "maxmin-oracle", now, ck.tracer, err)
		}
	}
	if err := ck.cluster.FS.VerifyInvariants(); err != nil {
		return violation("hdfs", "conservation", now, ck.tracer, err)
	}
	if err := ck.cluster.RM.VerifyInvariants(); err != nil {
		return violation("yarn", "slots", now, ck.tracer, err)
	}
	for _, j := range ck.cluster.Jobs() {
		if err := j.VerifyInvariants(); err != nil {
			return violation("mr", "shuffle-conservation", now, ck.tracer, err)
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
		return violation("pcap", "train", now, ck.tracer, err)
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
		return violation("hdfs", "wire-conservation", now, ck.tracer,
			wireErr(wire, repl, "=="))
	}
	if !faultFree && wire < repl {
		return violation("hdfs", "wire-conservation", now, ck.tracer,
			wireErr(wire, repl, ">="))
	}
	return nil
}
