package netsim

import (
	"testing"

	"keddah/internal/sim"
)

// observedBatch returns a batch that starts 32 flows through StartFlow,
// each on a fresh source port and half of them with an OnComplete
// callback, and runs the network dry; a counting tap sees every flow. It
// checks after each batch that the tap saw all 32 flows and the callbacks
// all 16 of theirs.
func observedBatch(t *testing.T, net *Network, spec func(i int) FlowSpec) func() {
	tap := &countingTap{}
	net.AddTap(tap)
	var called int
	onComplete := func(Flow) { called++ }
	port := 1000
	return func() {
		tap.completed, called = 0, 0
		for i := 0; i < 32; i++ {
			s := spec(i)
			s.SrcPort = port + i
			if i%2 == 0 {
				s.OnComplete = onComplete
			}
			if _, err := net.StartFlow(s); err != nil {
				t.Fatal(err)
			}
		}
		port += 32
		if _, err := net.Engine().RunAll(); err != nil {
			t.Fatal(err)
		}
		if tap.completed != 32 || called != 16 {
			t.Fatalf("tap saw %d of 32 flows, callbacks %d of 16", tap.completed, called)
		}
	}
}

// TestSteadyStateZeroAlloc is the flow core's end-state guarantee: once a
// pre-sized network has warmed up — slot slabs, per-slot completion
// timers, the path arena and allocator scratch all populated — a full
// capture cycle (start flows, activate, reallocate under max-min
// fairness, complete, report each finished flow to a tap and to its
// callback, recycle) performs zero heap allocations. No rate tap is
// attached, so no rate history is recorded or pooled.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	topo := mustStar(t, 9, Gbps)
	net := NewNetwork(sim.New(), topo, Config{})
	net.Reserve(64)
	hosts := topo.Hosts()

	batch := observedBatch(t, net, func(i int) FlowSpec {
		src := hosts[i%len(hosts)]
		dst := hosts[(i+1+i/len(hosts))%len(hosts)]
		return FlowSpec{Src: src, Dst: dst, DstPort: 80, SizeBytes: 4 << 20}
	})
	batch() // warm-up: populate every slab and pool

	avg := testing.AllocsPerRun(10, batch)
	if avg != 0 {
		t.Errorf("steady-state capture loop allocates %v times per batch, want 0", avg)
	}
	if err := net.VerifyState(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateZeroAllocTCP extends the guarantee to the TCP transport:
// the per-slot TCP arrays, the per-slot persistent RTO timers and the
// global tick timer are all warmed by a first batch driven deep into
// incast (every flow funnels into one host, so the warm-up provokes both
// fast retransmits and RTO stalls, forcing every slot's RTO timer into
// existence), after which repeated batches — observed by a tap and
// callbacks as in TestSteadyStateZeroAlloc — allocate nothing. Every
// measured batch stalls flows again, so parking a stalled flow and
// unparking it when its timer fires happen inside the zero-allocation
// window.
func TestSteadyStateZeroAllocTCP(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	topo := mustStar(t, 9, Gbps)
	net := NewNetwork(sim.New(), topo, Config{Transport: "tcp"})
	net.Reserve(64)
	hosts := topo.Hosts()

	batch := observedBatch(t, net, func(i int) FlowSpec {
		return FlowSpec{Src: hosts[1+i%(len(hosts)-1)], Dst: hosts[0], DstPort: 13562, SizeBytes: 512 << 10}
	})
	batch() // warm-up: populate slabs, TCP slot arrays and RTO timers

	rtx, rto := net.TCPStats()
	if rtx == 0 || rto == 0 {
		t.Fatalf("warm-up batch saw %d fast rtx / %d RTOs — the workload is not exercising the loss paths", rtx, rto)
	}
	avg := testing.AllocsPerRun(10, batch)
	if avg != 0 {
		t.Errorf("steady-state TCP capture loop allocates %v times per batch, want 0", avg)
	}
	// AllocsPerRun runs one unmeasured batch, then the ten it measures.
	if _, after := net.TCPStats(); after-rto < 11 {
		t.Errorf("the 11 batches after warm-up fired %d RTOs, want at least one per batch", after-rto)
	}
	if err := net.VerifyState(); err != nil {
		t.Fatal(err)
	}
}
