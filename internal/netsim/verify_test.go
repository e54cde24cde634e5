package netsim

import (
	"strings"
	"testing"

	"keddah/internal/sim"
)

// checkedNet starts nFlows flows on a small star fabric and settles the
// first allocation so no reallocation is pending.
func checkedNet(t *testing.T, nFlows int, cfg Config) (*Network, *sim.Engine) {
	t.Helper()
	topo, err := Star(5, Gbps)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := NewNetwork(eng, topo, cfg)
	hosts := topo.Hosts()
	for i := 0; i < nFlows; i++ {
		if _, err := net.StartFlow(FlowSpec{
			Src: hosts[i%len(hosts)], Dst: hosts[(i+1)%len(hosts)],
			SrcPort: 40000 + i, DstPort: 80, SizeBytes: 64 << 20,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Flows join the active set after their SYN latency; settle until
	// every flow is active and the coalesced reallocation has fired.
	for net.ActiveFlows() < nFlows || net.reallocPending {
		if !eng.Step() {
			t.Fatalf("queue drained with %d/%d flows active (realloc pending %v)",
				net.ActiveFlows(), nFlows, net.reallocPending)
		}
	}
	return net, eng
}

// transports lists the configurations every checker runs under: the
// fluid model ("soa", named for the struct-of-arrays flow core it exercises) and the TCP
// transport, whose demand-capped rates the max-min oracle also checks.
var transports = []struct {
	name string
	cfg  Config
}{
	{"soa", Config{}},
	{"tcp", Config{Transport: "tcp"}},
}

// TestVerifyStateCatchesCorruption drives each netsim checker over a
// healthy allocation and over deliberate corruptions that must fire,
// under both transports.
func TestVerifyStateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(n *Network)
		check   func(n *Network) error
		want    string // "" = must stay nil
	}{
		{
			name:    "healthy state",
			corrupt: func(n *Network) {},
			check:   (*Network).VerifyState,
		},
		{
			name:    "healthy oracle",
			corrupt: func(n *Network) {},
			check:   (*Network).CheckAllocatorOracle,
		},
		{
			name:    "negative residue",
			corrupt: func(n *Network) { testSetRemaining(n, -1) },
			check:   (*Network).VerifyState,
			want:    "remaining",
		},
		{
			name:    "done flow in active set",
			corrupt: testMarkDone,
			check:   (*Network).VerifyState,
			want:    "done",
		},
		{
			name: "capacity oversubscription",
			// Shrink a loaded link's capacity behind the allocator's back
			// (Topology.SetLinkCapacityScale does not mark the network
			// dirty): the installed rates now exceed the link.
			corrupt: func(n *Network) {
				if err := n.topo.SetLinkCapacityScale(testFirstLink(n), 0.01); err != nil {
					panic(err)
				}
			},
			check: (*Network).VerifyState,
		},
		{
			name:    "rate disagrees with max-min oracle",
			corrupt: func(n *Network) { testScaleRate(n, 0.5) },
			check:   (*Network).CheckAllocatorOracle,
			want:    "max-min",
		},
	}
	for _, core := range transports {
		for _, tc := range cases {
			t.Run(core.name+"/"+tc.name, func(t *testing.T) {
				net, _ := checkedNet(t, 6, core.cfg)
				tc.corrupt(net)
				err := tc.check(net)
				mustFire := tc.name != "healthy state" && tc.name != "healthy oracle"
				if !mustFire {
					if err != nil {
						t.Fatalf("healthy network failed check: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatalf("corruption %q went undetected", tc.name)
				}
				if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %q does not mention %q", err, tc.want)
				}
			})
		}
	}
}

// TestVerifyStateSilentWhileReallocPending: between a structural change
// and its coalesced reallocation event the installed rates are stale by
// design; the checks must not fire inside that window.
func TestVerifyStateSilentWhileReallocPending(t *testing.T) {
	for _, core := range transports {
		t.Run(core.name, func(t *testing.T) {
			topo, err := Star(5, Gbps)
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.New()
			net := NewNetwork(eng, topo, core.cfg)
			hosts := topo.Hosts()
			if _, err := net.StartFlow(FlowSpec{Src: hosts[0], Dst: hosts[1], SrcPort: 1, DstPort: 80, SizeBytes: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			// Step until the flow's arrival marks the allocation dirty,
			// stopping before the coalesced reallocation event fires.
			for !net.reallocPending {
				if !eng.Step() {
					t.Fatal("queue drained before the allocation went dirty")
				}
			}
			if err := net.VerifyState(); err != nil {
				t.Fatalf("VerifyState fired on a pending reallocation: %v", err)
			}
			if err := net.CheckAllocatorOracle(); err != nil {
				t.Fatalf("oracle fired on a pending reallocation: %v", err)
			}
		})
	}
}
