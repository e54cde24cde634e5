package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"keddah/internal/sim"
)

// TestMaxMinInvariantsUnderRandomLoad: for arbitrary flow sets on
// arbitrary fabrics, at every allocation instant (a) link capacities are
// respected and (b) every flow is bottlenecked — the defining properties
// of a max-min fair allocation.
func TestMaxMinInvariantsUnderRandomLoad(t *testing.T) {
	f := func(seed int64, topoPick uint8, nFlowsRaw uint8) bool {
		var topo *Topology
		var err error
		switch topoPick % 3 {
		case 0:
			topo, err = Star(6, Gbps)
		case 1:
			topo, err = MultiRack(2, 3, Gbps, 2*Gbps)
		default:
			topo, err = FatTree(4, Gbps)
		}
		if err != nil {
			return false
		}
		eng := sim.New()
		net := NewNetwork(eng, topo, Config{})
		hosts := topo.Hosts()

		// Deterministic pseudo-random flow set from the seed.
		state := uint64(seed)*2862933555777941757 + 3037000493
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		nFlows := int(nFlowsRaw%40) + 2
		for i := 0; i < nFlows; i++ {
			src := hosts[next(len(hosts))]
			dst := hosts[next(len(hosts))]
			if src == dst {
				dst = hosts[(next(len(hosts)-1)+1+int(src))%len(hosts)]
				if src == dst {
					continue
				}
			}
			size := int64(next(50_000_000) + 1000)
			delay := sim.Time(next(1_000_000_000))
			s, d := src, dst
			eng.After(delay, func() {
				if _, err := net.StartFlow(FlowSpec{Src: s, Dst: d, SrcPort: 1000 + i, DstPort: 2000, SizeBytes: size}); err != nil {
					t.Error(err)
				}
			})
		}

		// Sample the allocation every 50 ms of simulated time.
		ok := true
		var probe func()
		probe = func() {
			if err := net.CheckInvariants(); err != nil {
				t.Log(err)
				ok = false
				return
			}
			if net.ActiveFlows() > 0 || eng.Pending() > 1 {
				eng.After(50*time.Millisecond, probe)
			}
		}
		eng.After(60*time.Millisecond, probe)

		if _, err := eng.RunAll(); err != nil {
			return false
		}
		return ok && net.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEqualSplitNeverOversubscribes: even the naive ablation allocator
// must respect link capacities (it under-uses them, never over-uses).
func TestEqualSplitNeverOversubscribes(t *testing.T) {
	topo, err := MultiRack(2, 3, Gbps, Gbps)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := NewNetwork(eng, topo, Config{Allocator: "equalsplit"})
	h := topo.Hosts()
	for i := 0; i < 8; i++ {
		if _, err := net.StartFlow(FlowSpec{Src: h[i%3], Dst: h[3+i%3], SrcPort: i, DstPort: 80, SizeBytes: 10_000_000}); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	var probe func()
	probe = func() {
		if err := net.CheckInvariants(); err != nil {
			t.Error(err)
			return
		}
		checked++
		if net.ActiveFlows() > 0 {
			eng.After(10*time.Millisecond, probe)
		}
	}
	eng.After(time.Millisecond, probe)
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Error("probe never ran")
	}
}

func TestLinkRatesSumToFlows(t *testing.T) {
	topo := mustStar(t, 3, Gbps)
	eng := sim.New()
	net := NewNetwork(eng, topo, Config{})
	h := topo.Hosts()
	if _, err := net.StartFlow(FlowSpec{Src: h[0], Dst: h[1], SrcPort: 1, DstPort: 2, SizeBytes: 100_000_000}); err != nil {
		t.Fatal(err)
	}
	eng.After(10*time.Millisecond, func() {
		rates := net.LinkRates()
		var active float64
		for _, r := range rates {
			if r > active {
				active = r
			}
		}
		// One flow alone gets the full 1 Gbps on its links.
		if active < 0.99*Gbps {
			t.Errorf("peak link rate %v, want ~1 Gbps", active)
		}
	})
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
}
