package hdfs

import (
	"errors"
	"testing"

	"keddah/internal/flows"
	"keddah/internal/netsim"
	"keddah/internal/pcap"
	"keddah/internal/sim"
	"keddah/internal/stats"
)

// testFS builds an FS over a 2-rack topology (8 workers) with a capture.
func testFS(t *testing.T, cfg Config) (*FS, *netsim.Network, *pcap.FlowLog, netsim.NodeID) {
	t.Helper()
	topo, err := netsim.MultiRack(2, 5, netsim.Gbps, 10*netsim.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.NewNetwork(eng, topo, netsim.Config{})
	c := pcap.NewFlowLog()
	net.AddTap(c)
	hosts := topo.Hosts()
	fs, err := New(net, hosts[0], hosts[1:], cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	return fs, net, c, hosts[0]
}

func TestWriteFileBlocksAndReplication(t *testing.T) {
	fs, net, _, master := testFS(t, Config{BlockSize: 64 << 20, Replication: 3})
	var blocks []Block
	err := fs.WriteFile(master, "/f", 200<<20, 0, "t", func(b []Block) { blocks = b })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 { // ceil(200/64)
		t.Fatalf("blocks = %d, want 4", len(blocks))
	}
	var total int64
	for _, b := range blocks {
		total += b.Size
		if len(b.Replicas) != 3 {
			t.Errorf("block %d has %d replicas, want 3", b.ID, len(b.Replicas))
		}
		seen := map[netsim.NodeID]bool{}
		for _, r := range b.Replicas {
			if seen[r] {
				t.Errorf("block %d has duplicate replica %d", b.ID, r)
			}
			seen[r] = true
		}
	}
	if total != 200<<20 {
		t.Errorf("total block bytes = %d, want %d", total, 200<<20)
	}
	if blocks[3].Size != 200<<20-3*(64<<20) {
		t.Errorf("last partial block = %d", blocks[3].Size)
	}
	if fs.BytesWritten != 200<<20 {
		t.Errorf("BytesWritten = %d", fs.BytesWritten)
	}
}

func TestPlacementPolicySpansRacks(t *testing.T) {
	fs, net, _, master := testFS(t, Config{Replication: 3})
	var blocks []Block
	if err := fs.WriteFile(master, "/f", 128<<20, 0, "t", func(b []Block) { blocks = b }); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	topo := net.Topology()
	racks := map[int]bool{}
	for _, r := range blocks[0].Replicas {
		racks[topo.Rack(r)] = true
	}
	if len(racks) < 2 {
		t.Errorf("replicas all in one rack: %v", blocks[0].Replicas)
	}
}

func TestWriterLocalFirstReplica(t *testing.T) {
	fs, net, _, _ := testFS(t, Config{Replication: 3})
	writer := fs.DataNodes()[2]
	var blocks []Block
	if err := fs.WriteFile(writer, "/f", 64<<20, 0, "t", func(b []Block) { blocks = b }); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if blocks[0].Replicas[0] != writer {
		t.Errorf("first replica = %d, want writer %d", blocks[0].Replicas[0], writer)
	}
}

func TestWriteTrafficScalesWithReplication(t *testing.T) {
	volumes := map[int]int64{}
	for _, repl := range []int{1, 3} {
		fs, net, c, master := testFS(t, Config{Replication: repl})
		if err := fs.WriteFile(master, "/f", 256<<20, 0, "t", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Engine().RunAll(); err != nil {
			t.Fatal(err)
		}
		ds := flows.NewDataset(c.Truth())
		volumes[repl] = ds.Volume(flows.PhaseHDFSWrite)
	}
	if volumes[3] != 3*volumes[1] {
		t.Errorf("write volume at repl 3 = %d, want 3 x %d", volumes[3], volumes[1])
	}
}

func TestReadPrefersLocalReplica(t *testing.T) {
	fs, net, _, _ := testFS(t, Config{Replication: 3})
	writer := fs.DataNodes()[0]
	var blocks []Block
	if err := fs.WriteFile(writer, "/f", 64<<20, 0, "t", func(b []Block) { blocks = b }); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	// Reading from the writer host must hit the local replica.
	var replica netsim.NodeID = -1
	fs.ReadBlock(writer, blocks[0], "t", func(r netsim.NodeID) { replica = r })
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if replica != writer {
		t.Errorf("read chose replica %d, want local %d", replica, writer)
	}
	if fs.LocalReads != 1 || fs.RemoteReads != 0 {
		t.Errorf("local/remote reads = %d/%d", fs.LocalReads, fs.RemoteReads)
	}
}

func TestReadFileSequential(t *testing.T) {
	fs, net, c, master := testFS(t, Config{BlockSize: 32 << 20})
	if err := fs.WriteFile(master, "/f", 96<<20, 0, "w", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	done := false
	reader := fs.DataNodes()[7]
	if err := fs.ReadFile(reader, "/f", "r", func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("read never completed")
	}
	// The read flows (label r/hdfsRead) must total the file size.
	var readBytes int64
	for _, r := range c.Truth() {
		if r.Label == "r/hdfsRead" {
			readBytes += r.Bytes
		}
	}
	if readBytes != 96<<20 {
		t.Errorf("read bytes on the wire = %d, want %d", readBytes, 96<<20)
	}
}

func TestNamespaceErrors(t *testing.T) {
	fs, net, _, master := testFS(t, Config{})
	if err := fs.WriteFile(master, "/f", 1<<20, 0, "t", nil); err != nil {
		t.Fatal(err)
	}
	// Double create rejected (even while in flight).
	if err := fs.WriteFile(master, "/f", 1<<20, 0, "t", nil); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: err = %v, want ErrExists", err)
	}
	// Reading an in-flight file is rejected.
	if _, err := fs.File("/f"); !errors.Is(err, ErrIncomplete) {
		t.Errorf("in-flight read: err = %v, want ErrIncomplete", err)
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.File("/f"); err != nil {
		t.Errorf("complete read: err = %v", err)
	}
	if _, err := fs.File("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing read: err = %v, want ErrNotFound", err)
	}
	if err := fs.WriteFile(master, "/g", 0, 0, "t", nil); err == nil {
		t.Error("zero-size write accepted")
	}
	if err := fs.WriteFile(master, "/h", 1, 99, "t", nil); err == nil {
		t.Error("replication > datanodes accepted")
	}
	fs.Delete("/f")
	if fs.Exists("/f") {
		t.Error("delete did not remove the file")
	}
}

func TestHeartbeatsStopAfterShutdown(t *testing.T) {
	fs, net, c, _ := testFS(t, Config{})
	fs.StartHeartbeats()
	eng := net.Engine()
	if _, err := eng.Run(11 * heartbeatInterval / 2); err != nil {
		t.Fatal(err)
	}
	fs.Shutdown()
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	ds := flows.NewDataset(c.Truth())
	n := ds.Count(flows.PhaseControl)
	// 9 datanodes × ~5 beats each (jittered start) ⇒ between 30 and 60.
	if n < 30 || n > 60 {
		t.Errorf("heartbeat control flows = %d, want ≈45", n)
	}
}

func TestNewValidation(t *testing.T) {
	topo, err := netsim.Star(3, netsim.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork(sim.New(), topo, netsim.Config{})
	h := topo.Hosts()
	if _, err := New(net, h[0], nil, Config{}, stats.NewRNG(1)); err == nil {
		t.Error("no datanodes accepted")
	}
	if _, err := New(net, h[0], h[1:], Config{Replication: 5}, stats.NewRNG(1)); err == nil {
		t.Error("replication beyond cluster accepted")
	}
}
