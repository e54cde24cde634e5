package hdfs

import (
	"errors"
	"testing"

	"keddah/internal/netsim"
)

func TestFailDataNodeReReplicates(t *testing.T) {
	fs, net, c, master := testFS(t, Config{BlockSize: 64 << 20, Replication: 3})
	var blocks []Block
	if err := fs.WriteFile(master, "/f", 256<<20, 0, "w", func(b []Block) { blocks = b }); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}

	victim := blocks[0].Replicas[0]
	var victimBlocks int64
	for _, b := range blocks {
		for _, r := range b.Replicas {
			if r == victim {
				victimBlocks++
			}
		}
	}
	if victimBlocks == 0 {
		t.Skip("victim held no blocks (placement randomness)")
	}
	if err := fs.FailDataNode(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}

	if fs.ReReplicatedBlocks != victimBlocks {
		t.Errorf("re-replicated %d blocks, want %d", fs.ReReplicatedBlocks, victimBlocks)
	}
	if fs.LostBlocks != 0 {
		t.Errorf("lost %d blocks at replication 3", fs.LostBlocks)
	}
	// Every block must be back at full replication on live nodes.
	got, err := fs.File("/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if len(b.Replicas) != 3 {
			t.Errorf("block %d has %d replicas, want 3", b.ID, len(b.Replicas))
		}
		for _, r := range b.Replicas {
			if r == victim {
				t.Errorf("block %d still lists the dead node", b.ID)
			}
		}
	}
	// The copies show up as labelled flows.
	found := false
	for _, rec := range c.Truth() {
		if rec.Label == "hdfs/reReplication" {
			found = true
			if rec.Bytes != 64<<20 {
				t.Errorf("re-replication flow of %d bytes, want one block", rec.Bytes)
			}
		}
	}
	if !found {
		t.Error("no re-replication flows captured")
	}
}

func TestFailDataNodeExcludedFromNewWrites(t *testing.T) {
	fs, net, _, master := testFS(t, Config{Replication: 3})
	victim := fs.DataNodes()[0]
	if err := fs.FailDataNode(victim); err != nil {
		t.Fatal(err)
	}
	var blocks []Block
	if err := fs.WriteFile(master, "/f", 512<<20, 0, "w", func(b []Block) { blocks = b }); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		for _, r := range b.Replicas {
			if r == victim {
				t.Errorf("block %d placed on dead node", b.ID)
			}
		}
	}
	if fs.NodeAlive(victim) {
		t.Error("dead node reported alive")
	}
}

func TestFailDataNodeReadsAvoidDeadReplica(t *testing.T) {
	fs, net, _, master := testFS(t, Config{Replication: 3})
	var blocks []Block
	if err := fs.WriteFile(master, "/f", 64<<20, 0, "w", func(b []Block) { blocks = b }); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	victim := blocks[0].Replicas[0]
	if err := fs.FailDataNode(victim); err != nil {
		t.Fatal(err)
	}
	// Read immediately (before re-replication): must pick a live replica.
	var replica netsim.NodeID = -1
	fs.ReadBlock(victim, blocks[0], "r", func(r netsim.NodeID) { replica = r })
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if replica == victim || replica < 0 {
		t.Errorf("read served by %d (dead node was %d)", replica, victim)
	}
}

func TestFailDataNodeValidation(t *testing.T) {
	fs, net, _, master := testFS(t, Config{})
	if err := fs.FailDataNode(master); !errors.Is(err, ErrUnknownDataNode) {
		t.Errorf("failing the namenode host: err = %v", err)
	}
	victim := fs.DataNodes()[2]
	if err := fs.FailDataNode(victim); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := fs.FailDataNode(victim); err != nil {
		t.Errorf("second failure: %v", err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationDetectionDelayRespected(t *testing.T) {
	fs, net, _, master := testFS(t, Config{})
	var blocks []Block
	if err := fs.WriteFile(master, "/f", 128<<20, 0, "w", func(b []Block) { blocks = b }); err != nil {
		t.Fatal(err)
	}
	eng := net.Engine()
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	failAt := eng.Now()
	if err := fs.FailDataNode(blocks[0].Replicas[0]); err != nil {
		t.Fatal(err)
	}
	// Just before the delay elapses: no copy started.
	if _, err := eng.Run(failAt + replicationDetectionDelay - 1); err != nil {
		t.Fatal(err)
	}
	if len(fs.pendingRepl) != 0 || fs.ReReplicatedBlocks != 0 {
		t.Error("re-replication started before the detection delay")
	}
	// At the delay: the NameNode schedules the copies.
	if _, err := eng.Run(failAt + replicationDetectionDelay); err != nil {
		t.Fatal(err)
	}
	if len(fs.pendingRepl) == 0 {
		t.Error("re-replication not scheduled at the detection delay")
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fs.ReReplicatedBlocks == 0 {
		t.Error("re-replication never started")
	}
}
