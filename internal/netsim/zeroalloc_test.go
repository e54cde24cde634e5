package netsim

import (
	"testing"

	"keddah/internal/sim"
)

// TestSteadyStateZeroAlloc is the tentpole's end-state guarantee: once a
// pre-sized network has warmed up — slot slabs, per-slot completion
// timers, the path arena and allocator scratch all populated — a full
// capture cycle (start flows by id, activate, reallocate under max-min
// fairness, complete, recycle) performs zero heap allocations. No rate
// tap is attached, so no rate history is recorded or pooled.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	topo := mustStar(t, 9, Gbps)
	eng := sim.New()
	net := NewNetwork(eng, topo, Config{ExpectedFlows: 64})
	hosts := topo.Hosts()

	port := 1000
	batch := func() {
		for i := 0; i < 32; i++ {
			src := hosts[i%len(hosts)]
			dst := hosts[(i+1+i/len(hosts))%len(hosts)]
			if _, err := net.StartFlowID(FlowSpec{
				Src: src, Dst: dst, SrcPort: port + i, DstPort: 80, SizeBytes: 4 << 20,
			}); err != nil {
				t.Fatal(err)
			}
		}
		port += 32
		if _, err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
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
// existence), after which repeated batches allocate nothing.
func TestSteadyStateZeroAllocTCP(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	topo := mustStar(t, 9, Gbps)
	eng := sim.New()
	net := NewNetwork(eng, topo, Config{Transport: "tcp", ExpectedFlows: 64})
	hosts := topo.Hosts()

	port := 1000
	batch := func() {
		for i := 0; i < 32; i++ {
			if _, err := net.StartFlowID(FlowSpec{
				Src: hosts[1+i%(len(hosts)-1)], Dst: hosts[0], SrcPort: port + i, DstPort: 13562, SizeBytes: 512 << 10,
			}); err != nil {
				t.Fatal(err)
			}
		}
		port += 32
		if _, err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	batch() // warm-up: populate slabs, TCP slot arrays and RTO timers

	rtx, rto := net.TCPStats()
	if rtx == 0 || rto == 0 {
		t.Fatalf("warm-up batch saw %d fast rtx / %d RTOs — the workload is not exercising the loss paths", rtx, rto)
	}
	avg := testing.AllocsPerRun(10, batch)
	if avg != 0 {
		t.Errorf("steady-state TCP capture loop allocates %v times per batch, want 0", avg)
	}
	if err := net.VerifyState(); err != nil {
		t.Fatal(err)
	}
}
