package hadoop

import (
	"testing"

	"keddah/internal/flows"
	"keddah/internal/hadoop/mapreduce"
	"keddah/internal/netsim"
	"keddah/internal/pcap"
	"keddah/internal/sim"
)

// runSortWithFailure runs a sort job and fails worker w at the given
// simulated time; returns the job result and the capture.
func runSortWithFailure(t *testing.T, failAt sim.Time) (mapreduce.Result, *pcap.FlowLog, *Cluster) {
	t.Helper()
	c, capt := newTestCluster(t, 21)
	var result mapreduce.Result
	err := c.Ingest("/data/in", 1<<30, func() {
		err := c.Submit(mapreduce.JobConfig{
			Name: "sortf", InputPath: "/data/in", OutputPath: "/out",
			NumReducers: 4, MapSelectivity: 1, ReduceSelectivity: 1,
			MapCostSecPerMB: 0.05, // slow maps so the failure lands mid-job
		}, func(r mapreduce.Result) { result = r })
		if err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if failAt > 0 {
		victim := c.Workers()[3]
		if err := c.FailWorker(victim, failAt); err != nil {
			t.Fatalf("fail worker: %v", err)
		}
	}
	if _, err := c.RunToIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return result, capt, c
}

func TestWorkerFailureJobStillCompletes(t *testing.T) {
	baseline, _, _ := runSortWithFailure(t, 0)
	failed, capt, cluster := runSortWithFailure(t, sim.Time(15_000_000_000))

	if failed.Finished == 0 || failed.Failed {
		t.Fatalf("job did not complete after worker failure: %+v", failed)
	}
	if failed.OutputBytes <= 0 {
		t.Error("no output committed after failure")
	}
	// Failure costs correctness nothing; durations may wobble a little
	// with placement jitter but must not collapse.
	if failed.Duration() < baseline.Duration()*8/10 {
		t.Errorf("failure run (%v) implausibly faster than baseline (%v)",
			failed.Duration(), baseline.Duration())
	}
	// Re-replication traffic must appear, classified as HDFS write.
	var reReplBytes int64
	for _, r := range capt.Truth() {
		if r.Label == "hdfs/reReplication" {
			reReplBytes += r.Bytes
			if flows.Classify(r) != flows.PhaseHDFSWrite {
				t.Errorf("re-replication flow classified as %s", flows.Classify(r))
			}
		}
	}
	if reReplBytes == 0 {
		t.Error("no re-replication traffic captured")
	}
	if cluster.FS.ReReplicatedBlocks == 0 {
		t.Error("FS recorded no re-replicated blocks")
	}
	if cluster.FS.LostBlocks != 0 {
		t.Errorf("lost %d blocks at replication 3 with one failure", cluster.FS.LostBlocks)
	}
}

func TestWorkerFailureReexecutesTasks(t *testing.T) {
	failed, _, cluster := runSortWithFailure(t, sim.Time(12_000_000_000))
	if failed.ReexecutedMaps == 0 && failed.ReexecutedReducers == 0 &&
		cluster.RM.LostContainers == 0 {
		t.Error("mid-job failure lost no containers and re-executed nothing")
	}
	if !cluster.RM.NodeAlive(cluster.Workers()[0]) {
		t.Error("unaffected node reported dead")
	}
	if cluster.RM.NodeAlive(cluster.Workers()[3]) {
		t.Error("failed node reported alive")
	}
}

func TestFailureBeforeJobOnlyReReplicates(t *testing.T) {
	// Failing a node after the ingest finished (≈9 s for 1 GiB) but
	// before heavy map progress: the namenode restores replication and
	// the job completes on the survivors.
	result, capt, cluster := runSortWithFailure(t, sim.Time(10_500_000_000))
	if result.Finished == 0 || result.Failed {
		t.Fatalf("job did not complete: %+v", result)
	}
	if cluster.FS.ReReplicatedBlocks == 0 {
		t.Error("no blocks re-replicated")
	}
	// All re-replication flows avoid the dead node.
	dead := cluster.Workers()[3]
	deadAddr := pcap.HostAddr(int(dead))
	for _, r := range capt.Truth() {
		if r.Label == "hdfs/reReplication" && r.Key.Dst == deadAddr {
			t.Error("re-replication targeted the dead node")
		}
	}
}

func TestFailMasterRejected(t *testing.T) {
	c, _ := newTestCluster(t, 5)
	if err := c.FailWorker(c.Master(), sim.Time(1)); err == nil {
		t.Error("failing the master was accepted")
	}
}

// TestFailureTargetEdgeCases drives FailWorker and CrashWorker through
// every rejected or degenerate target: bad hosts error at scheduling
// time (never a mid-simulation panic), while legal-but-odd schedules —
// failure before any job, the same worker failed twice — run to
// completion as clean no-ops.
func TestFailureTargetEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		schedule func(c *Cluster) error
		wantErr  bool
	}{
		{"fail master", func(c *Cluster) error {
			return c.FailWorker(c.Master(), 1)
		}, true},
		{"fail non-member host", func(c *Cluster) error {
			return c.FailWorker(netsim.NodeID(999), 1)
		}, true},
		{"fail negative host", func(c *Cluster) error {
			return c.FailWorker(netsim.NodeID(-1), 1)
		}, true},
		{"crash master", func(c *Cluster) error {
			return c.CrashWorker(c.Master(), 1, 2)
		}, true},
		{"crash non-member host", func(c *Cluster) error {
			return c.CrashWorker(netsim.NodeID(999), 1, 2)
		}, true},
		{"crash with recovery not after crash", func(c *Cluster) error {
			return c.CrashWorker(c.Workers()[0], 5, 5)
		}, true},
		{"fail before any job submitted", func(c *Cluster) error {
			return c.FailWorker(c.Workers()[0], 1)
		}, false},
		{"fail the same worker twice", func(c *Cluster) error {
			if err := c.FailWorker(c.Workers()[2], 1_000_000_000); err != nil {
				return err
			}
			return c.FailWorker(c.Workers()[2], 2_000_000_000)
		}, false},
		{"crash an already-failed worker", func(c *Cluster) error {
			if err := c.FailWorker(c.Workers()[4], 1_000_000_000); err != nil {
				return err
			}
			return c.CrashWorker(c.Workers()[4], 2_000_000_000, 3_000_000_000)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newTestCluster(t, 7)
			err := tc.schedule(c)
			if tc.wantErr {
				if err == nil {
					t.Fatal("bad failure target accepted")
				}
				return
			}
			if err != nil {
				t.Fatalf("schedule: %v", err)
			}
			// The scheduled events must drain without panicking even
			// though no job ever runs.
			if _, err := c.RunToIdle(); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
}

// TestCrashWorkerRejoins: a transient crash mid-job — the node drops
// off, then re-registers and is schedulable again. A 12 s crash outlasts
// the 10 s NM expiry, so YARN declares the node lost before it comes
// back; 1 s and 2 s crashes are shorter than the 3 s DataNode heartbeat
// interval, so no heartbeat loop notices the node was down. Either way
// the rejoined host heartbeats at the same rate as every other worker:
// its pre-crash loops end and only the rejoin loops run.
func TestCrashWorkerRejoins(t *testing.T) {
	const crashAt = sim.Time(12_000_000_000)
	for _, outage := range []sim.Time{12_000_000_000, 1_000_000_000, 2_000_000_000} {
		t.Run(outage.String(), func(t *testing.T) {
			c, capt := newTestCluster(t, 11)
			victim := c.Workers()[3]
			var result mapreduce.Result
			err := c.Ingest("/data/in", 1<<30, func() {
				err := c.Submit(mapreduce.JobConfig{
					Name: "crashj", InputPath: "/data/in", OutputPath: "/out",
					NumReducers: 4, MapSelectivity: 1, ReduceSelectivity: 1,
					MapCostSecPerMB: 0.05,
				}, func(r mapreduce.Result) { result = r })
				if err != nil {
					t.Errorf("submit: %v", err)
				}
			})
			if err != nil {
				t.Fatalf("ingest: %v", err)
			}
			if err := c.CrashWorker(victim, crashAt, crashAt+outage); err != nil {
				t.Fatalf("crash worker: %v", err)
			}
			if _, err := c.RunToIdle(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if result.Finished == 0 || result.Failed {
				t.Fatalf("job did not survive transient crash: %+v", result)
			}
			if !c.RM.NodeAlive(victim) {
				t.Error("rejoined node still reported dead")
			}
			// Rejoin traffic must be captured: NM registration and a
			// DataNode block report, both recovery-classified.
			seen := map[string]bool{}
			for _, r := range capt.Truth() {
				if flows.IsRecovery(r.Label) {
					seen[r.Label] = true
				}
			}
			for _, want := range []string{"yarn/nmRegister", "hdfs/register", "hdfs/blockReport"} {
				if !seen[want] {
					t.Errorf("no %s flow captured on rejoin (saw %v)", want, seen)
				}
			}
			// Count each worker's heartbeats from one DataNode interval
			// after the rejoin (every rejoin loop has beaten by then) to
			// the end of the job.
			from := int64(crashAt + outage + 3_000_000_000)
			beats := map[string]map[pcap.Addr]int{"hdfs/heartbeat": {}, "yarn/nmHeartbeat": {}}
			for _, r := range capt.Truth() {
				if m, ok := beats[r.Label]; ok && r.FirstNs >= from && r.FirstNs < int64(result.Finished) {
					m[r.Key.Src]++
				}
			}
			for label, m := range beats {
				got := m[pcap.HostAddr(int(victim))]
				for _, w := range c.Workers() {
					if n := m[pcap.HostAddr(int(w))]; got > n+1 || got < n-1 {
						t.Errorf("%s: rejoined host sent %d beats, worker %d sent %d", label, got, w, n)
					}
				}
			}
		})
	}
}

func TestDoubleFailureTolerated(t *testing.T) {
	// Two failures with replication 3 still lose nothing and the job
	// completes.
	c, _ := newTestCluster(t, 33)
	var result mapreduce.Result
	err := c.Ingest("/data/in", 512<<20, func() {
		err := c.Submit(mapreduce.JobConfig{
			Name: "j", InputPath: "/data/in", OutputPath: "/out",
			NumReducers: 2, MapSelectivity: 1, ReduceSelectivity: 1,
			MapCostSecPerMB: 0.05,
		}, func(r mapreduce.Result) { result = r })
		if err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := c.FailWorker(c.Workers()[1], sim.Time(8_000_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.FailWorker(c.Workers()[5], sim.Time(20_000_000_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunToIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if result.Finished == 0 || result.Failed {
		t.Fatalf("job did not survive two failures: %+v", result)
	}
	if c.FS.LostBlocks != 0 {
		t.Errorf("lost %d blocks", c.FS.LostBlocks)
	}
}
