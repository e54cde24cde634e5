package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"keddah/internal/sim"
)

// tcpFlowSets returns the slots of the flows transferring under TCP,
// split into those stalled in RTO wait and those that can send, each in
// flow-id order. It scans every slot, so it sees a flow wherever the core
// holds it.
func tcpFlowSets(net *Network) (stalled, sending []int32) {
	for s := range net.state {
		if net.state[s] != slotActive {
			continue
		}
		if net.tcp.tstate[s] == tcpRTOWait {
			stalled = append(stalled, int32(s))
		} else {
			sending = append(sending, int32(s))
		}
	}
	byFid := func(a, b int32) int {
		switch {
		case net.fid[a] < net.fid[b]:
			return -1
		case net.fid[a] > net.fid[b]:
			return 1
		}
		return 0
	}
	slices.SortFunc(stalled, byFid)
	slices.SortFunc(sending, byFid)
	return stalled, sending
}

// crossing returns the slots in set whose path crosses lid.
func crossing(net *Network, set []int32, lid LinkID) []int32 {
	var out []int32
	for _, s := range set {
		if slices.Contains(net.path(s), lid) {
			out = append(out, s)
		}
	}
	return out
}

// stallFaultRun is one finished stalled-fault scenario: every flow's
// final value, keyed by flow ID.
type stallFaultRun struct {
	net   *Network
	flows map[uint64]Flow
}

// startStaggeredIncast starts one flow from each sender into dst, 300 µs
// apart, with sizes cycling through 256 KiB, 512 KiB and 1 MiB — the
// E17 shuffle fan-in, staggered so that synchronised loss stalls some
// flows in RTO wait while others keep sending.
func startStaggeredIncast(t *testing.T, net *Network, senders []NodeID, dst NodeID, rec map[uint64]Flow) {
	t.Helper()
	record := func(f Flow) { rec[f.ID] = f }
	for i, h := range senders {
		spec := FlowSpec{
			Src: h, Dst: dst, SrcPort: 10000 + i, DstPort: 13562,
			SizeBytes:  int64(256<<10) << uint(i%3),
			OnComplete: record, OnAbort: record,
		}
		net.Engine().After(sim.Time(i)*300_000, func() {
			if _, err := net.StartFlow(spec); err != nil {
				t.Error(err)
			}
		})
	}
}

// abortStalledAndSending aborts, by source port, the lowest-id stalled
// flow and the lowest-id sending flow, so one predicate matches both
// kinds.
func abortStalledAndSending(t *testing.T, net *Network) {
	t.Helper()
	stalled, sending := tcpFlowSets(net)
	if len(stalled) == 0 || len(sending) == 0 {
		t.Fatalf("at %v: %d stalled and %d sending flows, want both", net.Engine().Now(), len(stalled), len(sending))
	}
	a, b := net.spec[stalled[0]].SrcPort, net.spec[sending[0]].SrcPort
	if n := net.AbortFlowsWhere(func(s FlowSpec) bool { return s.SrcPort == a || s.SrcPort == b }); n != 2 {
		t.Fatalf("AbortFlowsWhere tore down %d flows, want 2", n)
	}
}

// at schedules fn at absolute simulated time ms milliseconds.
func at(net *Network, ms int64, fn func()) {
	net.Engine().After(sim.Time(ms)*1_000_000-net.Engine().Now(), fn)
}

// runStallFaults runs the staggered incast on a fat-tree or a star and
// injects faults while flows are stalled in RTO wait:
//
//   - fattree: an aggregation-to-core link on a stalled flow's path goes
//     down, so every flow crossing it reroutes, and comes back up later;
//   - star: the host link of a stalled flow's source goes down, so its
//     flows abort.
//
// Both also degrade and restore the receiver's link and abort, by one
// predicate, a stalled and a sending flow. The run is checked after every
// event (runChecked) and must leave every flow completed or aborted.
func runStallFaults(t *testing.T, fabric string) stallFaultRun {
	t.Helper()
	var topo *Topology
	var err error
	var senders []NodeID
	switch fabric {
	case "fattree":
		topo, err = FatTree(6, Gbps)
		if err == nil {
			senders = topo.Hosts()[9:33] // pods 1–3, so paths cross the core
		}
	case "star":
		topo, err = Star(25, Gbps)
		if err == nil {
			senders = topo.Hosts()[1:]
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := NewNetwork(eng, topo, Config{Transport: "tcp"})
	net.AddTap(rateTap{})
	rec := make(map[uint64]Flow, len(senders))
	dst := topo.Hosts()[0]
	startStaggeredIncast(t, net, senders, dst, rec)

	// The receiver's downlink is the incast bottleneck.
	var recvLink LinkID = -1
	for i, l := range topo.Links() {
		if l.To == dst {
			recvLink = LinkID(i)
		}
	}
	var downed LinkID = -1
	at(net, 20, func() {
		stalled, _ := tcpFlowSets(net)
		if len(stalled) == 0 {
			t.Fatal("no flow stalled in RTO wait at 20 ms")
		}
		p := net.path(stalled[0])
		if fabric == "fattree" {
			downed = p[2] // aggregation → core, with ECMP siblings
		} else {
			downed = p[0] // the source host's only link
		}
		stalledVictims := crossing(net, stalled, downed)
		if len(stalledVictims) == 0 {
			t.Fatalf("no stalled flow crosses link %d", downed)
		}
		refs := make([]slotRef, len(stalledVictims))
		for i, s := range stalledVictims {
			refs[i] = net.ref(s)
		}
		if err := net.SetLinkState(downed, false); err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			rerouted := net.live(r) && !slices.Contains(net.path(r.slot), downed)
			if fabric == "fattree" && !rerouted {
				t.Errorf("stalled flow in slot %d was not rerouted off link %d", r.slot, downed)
			}
			if fabric == "star" && net.live(r) {
				t.Errorf("stalled flow in slot %d survived its host link going down", r.slot)
			}
		}
	})
	at(net, 22, func() {
		if err := net.SetLinkCapacityScale(recvLink, 0.5); err != nil {
			t.Fatal(err)
		}
	})
	at(net, 25, func() { abortStalledAndSending(t, net) })
	at(net, 40, func() {
		if err := net.SetLinkCapacityScale(recvLink, 1); err != nil {
			t.Fatal(err)
		}
	})
	at(net, 60, func() {
		if err := net.SetLinkState(downed, true); err != nil {
			t.Fatal(err)
		}
	})
	runChecked(t, eng, net)
	if len(rec) != len(senders) {
		t.Fatalf("%d of %d flows reported", len(rec), len(senders))
	}
	if _, rto := net.TCPStats(); rto == 0 {
		t.Fatal("no retransmission timeout fired")
	}
	return stallFaultRun{net: net, flows: rec}
}

// digest hashes every flow's ID, start, end, transferred bytes, abort
// flag and rate history in flow-id order, then the TCP event counts and
// the aborted-flow count.
func (r stallFaultRun) digest() string {
	ids := make([]uint64, 0, len(r.flows))
	for id := range r.flows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := sha256.New()
	var b []byte
	put := func(v uint64) {
		b = binary.LittleEndian.AppendUint64(b[:0], v)
		h.Write(b)
	}
	for _, id := range ids {
		f := r.flows[id]
		put(f.ID)
		put(uint64(f.Start))
		put(uint64(f.End))
		put(uint64(f.Transferred))
		aborted := uint64(0)
		if f.Aborted {
			aborted = 1
		}
		put(aborted)
		put(uint64(len(f.Segments)))
		for _, seg := range f.Segments {
			put(uint64(seg.Start))
			put(math.Float64bits(seg.RateBps))
		}
	}
	rtx, rto := r.net.TCPStats()
	put(rtx)
	put(rto)
	put(r.net.AbortedFlows())
	return hex.EncodeToString(h.Sum(nil))
}

// TestStalledFaultsDigest fences TCP faults that strike flows stalled in
// RTO wait: reroutes, aborts by link failure and by predicate, and
// capacity changes must leave every flow's outcome, and the TCP event
// counts, exactly as recorded.
func TestStalledFaultsDigest(t *testing.T) {
	cases := []struct {
		fabric  string
		aborted uint64
		digest  string
	}{
		{"fattree", 2, "b0081adcab1351cd7417b62a13683ba3eb40892cbd6a95c9998cffc83f9d36d1"},
		{"star", 3, "a6e20050901c81a5a79edb1aadfc64783b5a6855f11675510174bc36cb0c2866"},
	}
	for _, tc := range cases {
		t.Run(tc.fabric, func(t *testing.T) {
			run := runStallFaults(t, tc.fabric)
			if got := run.net.AbortedFlows(); got != tc.aborted {
				t.Errorf("%d flows aborted, want %d", got, tc.aborted)
			}
			if got := run.digest(); got != tc.digest {
				t.Errorf("digest %s, want %s", got, tc.digest)
			}
		})
	}
}
