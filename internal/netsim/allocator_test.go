package netsim

import (
	"math"
	"testing"

	"keddah/internal/sim"
)

// buildScenario schedules nFlows pseudo-random flows (sizes, endpoints,
// arrival times derived from seed) onto the network, each recording its
// outcome into rec. The same seed produces the identical schedule on any
// network.
func buildScenario(t *testing.T, net *Network, seed int64, nFlows int, rec map[uint64]flowOutcome) {
	t.Helper()
	hosts := net.Topology().Hosts()
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	record := func(f Flow) {
		rec[f.ID] = flowOutcome{End: f.End, Aborted: f.Aborted, Transferred: f.Transferred, Segments: f.Segments}
	}
	for i := 0; i < nFlows; i++ {
		src := hosts[next(len(hosts))]
		dst := hosts[next(len(hosts))]
		if src == dst {
			dst = hosts[(int(src)+1+next(len(hosts)-1))%len(hosts)]
			if src == dst {
				continue
			}
		}
		size := int64(next(80_000_000) + 500)
		delay := sim.Time(next(2_000_000_000))
		spec := FlowSpec{Src: src, Dst: dst, SrcPort: 1000 + i, DstPort: 2000, SizeBytes: size,
			OnComplete: record, OnAbort: record}
		net.Engine().After(delay, func() {
			if _, err := net.StartFlow(spec); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestIncrementalMatchesReferenceAllocator is the allocator property
// test: for randomized topologies and flow sets (100–1000 flows), the
// incremental max-min allocator's rates must match the from-scratch
// oracle and satisfy the max-min invariants at every settled event, and
// the final per-flow outcomes must match digests recorded while the
// original from-scratch allocator still ran in lockstep beside it and
// agreed bit for bit.
func TestIncrementalMatchesReferenceAllocator(t *testing.T) {
	build := map[string]func() (*Topology, error){
		"star":      func() (*Topology, error) { return Star(17, Gbps) },
		"fattree":   func() (*Topology, error) { return FatTree(4, Gbps) },
		"multirack": func() (*Topology, error) { return MultiRack(3, 6, Gbps, 4*Gbps) },
	}
	cases := []struct {
		topo   string
		seed   int64
		nFlows int
		digest string
	}{
		{"star", 11, 100, "cf50136676c3cc55e223481620d28acfe84c2f429e9c3f791b491e0d5f18837a"},
		{"star", 12, 1000, "a29fe310d94f2b28fb25914e921833f683c5b2c8db338699789c59ac8543fa59"},
		{"fattree", 21, 150, "ff1c8f15873f1b65c180128687f7bb30a8b5eb881a3e62aa178c5a4f26166176"},
		{"fattree", 22, 600, "177d51de493f5b5ceb2e03f7f3667d86e1e14431fe376cac592709845c56bbb0"},
		{"multirack", 31, 100, "adfaf7309437c27e922c3b3c9c0ffeae347d1161ef28012a527e31df3578d164"},
		{"multirack", 32, 400, "78034acaf4b68feab51447efac2b22cab3e814a935e3b7becd8c79868ff50707"},
	}
	for _, tc := range cases {
		topo, err := build[tc.topo]()
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		net := NewNetwork(eng, topo, Config{})
		net.AddTap(rateTap{})
		rec := make(map[uint64]flowOutcome, tc.nFlows)
		buildScenario(t, net, tc.seed, tc.nFlows, rec)
		runChecked(t, eng, net)
		if got := outcomeDigest(net, rec); got != tc.digest {
			t.Errorf("%s/seed%d: outcome digest %s, want %s", tc.topo, tc.seed, got, tc.digest)
		}
	}
}

// TestMaxMinRatesOracle pins the oracle on hand-solved allocations. Link 1
// (6 bps) is shared by flows 1–3 and is the first bottleneck; flow 0 then
// takes link 0's remainder. A demand cap below the fair share freezes a
// flow at its demand and hands the slack to the others, a zero demand (a
// TCP flow stalled in RTO) claims nothing, and a flow crossing no link
// runs at its demand or, uncapped, at the loopback rate.
func TestMaxMinRatesOracle(t *testing.T) {
	inf := math.Inf(1)
	capacity := []float64{10, 6, 10}
	paths := [][]LinkID{{0}, {0, 1}, {1}, {1, 2}, {0}, {}, {}}
	cases := []struct {
		name   string
		demand []float64
		want   []float64
	}{
		{"uncapped", []float64{inf, inf, inf, inf, 0, inf, 3}, []float64{8, 2, 2, 2, 0, 100, 3}},
		{"capped", []float64{inf, inf, 1, inf, 0, inf, 3}, []float64{7.5, 2.5, 1, 2.5, 0, 100, 3}},
		{"all capped", []float64{4, 1, 1, 1, 0, 7, 3}, []float64{4, 1, 1, 1, 0, 7, 3}},
	}
	for _, tc := range cases {
		got := maxMinRates(paths, capacity, tc.demand, 100)
		for i := range tc.want {
			if !rateEqual(got[i], tc.want[i]) {
				t.Errorf("%s: rates %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

func TestDurationForClampsDegenerateRates(t *testing.T) {
	if d := durationFor(0, Gbps); d != 0 {
		t.Errorf("zero bytes → %v, want 0", d)
	}
	if d := durationFor(-5, Gbps); d != 0 {
		t.Errorf("negative bytes → %v, want 0", d)
	}
	// A zero or negative rate used to produce +Inf seconds and an
	// overflowed (negative) sim.Time; it must clamp to MaxTime.
	if d := durationFor(1000, 0); d != sim.MaxTime {
		t.Errorf("zero rate → %v, want MaxTime", d)
	}
	if d := durationFor(1000, -1); d != sim.MaxTime {
		t.Errorf("negative rate → %v, want MaxTime", d)
	}
	// Tiny-but-positive rates overflow the ns conversion; clamp too.
	if d := durationFor(1e18, 1e-12); d != sim.MaxTime {
		t.Errorf("tiny rate → %v, want MaxTime", d)
	}
	if d := durationFor(1000, Gbps); d <= 0 || d >= sim.MaxTime {
		t.Errorf("normal case → %v, want small positive", d)
	}
	// 1 Gbit at 1 Gbps is exactly one second.
	if d := durationFor(125_000_000, Gbps); d != 1_000_000_000 {
		t.Errorf("1 Gbit at 1 Gbps → %v, want 1s", d)
	}
}

// TestParkedFlowRevivesOnReallocation: a flow whose rate collapses to a
// value that would overflow the horizon parks without a completion event
// but must resume when capacity frees up.
func TestParkedFlowRevivesOnReallocation(t *testing.T) {
	if got := durationFor(1, math.SmallestNonzeroFloat64); got != sim.MaxTime {
		t.Fatalf("sanity: %v", got)
	}
	topo := mustStar(t, 3, Gbps)
	eng := sim.New()
	net := NewNetwork(eng, topo, Config{})
	h := topo.Hosts()
	done := 0
	for i := 0; i < 2; i++ {
		if _, err := net.StartFlow(FlowSpec{Src: h[i], Dst: h[2], SrcPort: i, DstPort: 80, SizeBytes: 10_000_000,
			OnComplete: func(Flow) { done++ }}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("completed %d flows, want 2", done)
	}
}
