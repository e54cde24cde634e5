package netsim

import (
	"slices"
	"strings"
	"testing"

	"keddah/internal/sim"
	"keddah/internal/telemetry"
)

// stalledIncast runs the staggered incast of the stalled-fault fence on a
// star until flows are parked in RTO wait and no reallocation is pending.
func stalledIncast(t *testing.T) *Network {
	t.Helper()
	topo, err := Star(25, Gbps)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := NewNetwork(eng, topo, Config{Transport: "tcp"})
	startStaggeredIncast(t, net, topo.Hosts()[1:], topo.Hosts()[0], map[uint64]Flow{})
	for len(net.parked) == 0 || len(net.active) == 0 || net.reallocPending {
		if !eng.Step() {
			t.Fatal("incast drained without parking a flow")
		}
	}
	if err := net.VerifyState(); err != nil {
		t.Fatalf("healthy stalled incast: %v", err)
	}
	return net
}

// TestVerifyStateCatchesParkedCorruption corrupts a parked flow, or the
// bookkeeping that tells parked from active flows, and requires
// VerifyState to fire.
func TestVerifyStateCatchesParkedCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(c *Network, s int32)
		want    string
	}{
		{"parked flow given a rate", func(c *Network, s int32) { c.rate[s] = 1e6 }, "parked flow"},
		{"parked flow demands", func(c *Network, s int32) { c.tcp.demand[s] = 1e6 }, "parked flow"},
		{"parked flow sending", func(c *Network, s int32) { c.tcp.tstate[s] = tcpSlowStart }, "not RTO wait"},
		{"parked flow without timer", func(c *Network, s int32) { c.tcp.rtoEv[s].Cancel() }, "retransmission timer"},
		{"parked flow in a link list", func(c *Network, s int32) {
			lid := c.path(s)[0]
			c.linkFlows[lid] = append(c.linkFlows[lid], s)
		}, "index"},
		{"active flow marked parked", func(c *Network, _ int32) { c.parkPos[c.active[0]] = 0 }, "both active and parked"},
		{"parked flow lost", func(c *Network, s int32) {
			c.dropParked(s)
		}, "transferring"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := stalledIncast(t)
			tc.corrupt(net, net.parked[0])
			err := net.VerifyState()
			if err == nil {
				t.Fatalf("corruption %q went undetected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestActiveFlowsCountStalledFlows takes ActiveFlows and a link-timeline
// sample mid-incast, while flows are parked in RTO wait: both count every
// transferring flow, stalled ones included.
func TestActiveFlowsCountStalledFlows(t *testing.T) {
	topo := mustStar(t, 25, Gbps)
	eng := sim.New()
	net := NewNetwork(eng, topo, Config{Transport: "tcp"})
	startStaggeredIncast(t, net, topo.Hosts()[1:], topo.Hosts()[0], map[uint64]Flow{})
	tl := telemetry.NewLinkTimeline()
	probe := NewUtilizationProbe(net, tl)

	var sampledAt int64 = -1
	want := make([]int, topo.NumLinks())
	at(net, 20, func() {
		stalled, sending := tcpFlowSets(net)
		if len(stalled) == 0 || len(net.parked) != len(stalled) {
			t.Fatalf("%d flows stalled, %d parked: want some, all parked", len(stalled), len(net.parked))
		}
		if got, n := net.ActiveFlows(), len(stalled)+len(sending); got != n {
			t.Errorf("ActiveFlows() = %d, want %d (%d stalled)", got, n, len(stalled))
		}
		for _, s := range append(stalled, sending...) {
			for _, lid := range net.path(s) {
				want[lid]++
			}
		}
		sampledAt = int64(eng.Now())
		probe.Start() // samples at once
	})
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, p := range tl.Points() {
		if p.AtNs != sampledAt {
			continue
		}
		seen++
		if p.Flows != want[p.Link] {
			t.Errorf("link %d timeline counts %d flows at %d ns, want %d", p.Link, p.Flows, p.AtNs, want[p.Link])
		}
	}
	if seen != topo.NumLinks() {
		t.Fatalf("timeline holds %d points at %d ns, want one per link (%d)", seen, sampledAt, topo.NumLinks())
	}
}

// orderTap records the IDs of finished flows in the order it sees them.
type orderTap struct{ ids []uint64 }

func (o *orderTap) FlowCompleted(f Flow) { o.ids = append(o.ids, f.ID) }

// TestFaultsMeetParkedFlowsInActivationOrder checks that fault handling
// enumerates parked and active flows merged in activation order — on a
// star the flows activate in start order, so in flow-ID order:
// AbortFlowsWhere asks its predicate about them in that order, and
// taking the receiver's link down aborts them in that order.
func TestFaultsMeetParkedFlowsInActivationOrder(t *testing.T) {
	net := stalledIncast(t)
	var asked []uint64
	byPort := map[int]uint64{}
	for _, s := range append(append([]int32{}, net.active...), net.parked...) {
		byPort[net.spec[s].SrcPort] = net.fid[s]
	}
	net.AbortFlowsWhere(func(s FlowSpec) bool {
		asked = append(asked, byPort[s.SrcPort])
		return false
	})
	if len(asked) != net.ActiveFlows() || !slices.IsSorted(asked) {
		t.Errorf("AbortFlowsWhere asked about flows %v, want all %d in ID order", asked, net.ActiveFlows())
	}

	tap := &orderTap{}
	net.AddTap(tap)
	n := net.ActiveFlows()
	var down LinkID = -1
	for i, l := range net.Topology().Links() {
		if l.To == net.Topology().Hosts()[0] {
			down = LinkID(i)
		}
	}
	if err := net.SetLinkState(down, false); err != nil {
		t.Fatal(err)
	}
	if len(tap.ids) != n || !slices.IsSorted(tap.ids) {
		t.Errorf("receiver link down aborted flows %v, want all %d in ID order", tap.ids, n)
	}
}
