package netsim

import (
	"strings"
	"testing"

	"keddah/internal/sim"
)

// ipHarness is a P-pod fabric over small star topologies, one network
// per pod on its shard's engine, gateway = host 0 of each star.
type ipHarness struct {
	sched *sim.ShardedEngine
	nets  []*Network
	ip    *InterPod
}

func newIPHarness(t *testing.T, pods, engines int) *ipHarness {
	t.Helper()
	sched, err := sim.NewSharded(pods, engines, sim.Time(DefaultInterPodLatencyNs))
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*Network, pods)
	gws := make([]NodeID, pods)
	for p := 0; p < pods; p++ {
		topo, err := Star(4, Gbps)
		if err != nil {
			t.Fatal(err)
		}
		nets[p] = NewNetwork(sched.PodEngine(p), topo, Config{})
		gws[p] = topo.Hosts()[0]
	}
	ip, err := NewInterPod(sched, nets, gws, sim.Time(DefaultInterPodLatencyNs))
	if err != nil {
		t.Fatal(err)
	}
	return &ipHarness{sched: sched, nets: nets, ip: ip}
}

func (h *ipHarness) host(pod, i int) NodeID { return h.nets[pod].Topology().Hosts()[i] }

func TestInterPodTransfer(t *testing.T) {
	for _, engines := range []int{1, 3} {
		h := newIPHarness(t, 3, engines)
		done := 0
		spec := TransferSpec{
			SrcPod: 0, DstPod: 2,
			Src: h.host(0, 1), Dst: h.host(2, 3),
			SizeBytes: 1 << 20, Label: "job1/distcp",
			OnComplete: func() { done++ },
			OnAbort:    func() { t.Error("transfer aborted") },
		}
		if _, err := h.sched.PodEngine(0).At(0, func() {
			if err := h.ip.Send(spec); err != nil {
				t.Errorf("Send: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.sched.Drain(); err != nil {
			t.Fatalf("engines=%d: %v", engines, err)
		}
		if done != 1 {
			t.Fatalf("engines=%d: OnComplete ran %d times", engines, done)
		}
		s := h.ip.Stats()
		if s.Started != 1 || s.Completed != 1 || s.Aborted != 0 || s.Pending != 0 {
			t.Fatalf("engines=%d: stats %+v", engines, s)
		}
		if s.Stage1Bytes != 1<<20 || s.Stage2Bytes != 1<<20 {
			t.Fatalf("engines=%d: stage bytes %d/%d", engines, s.Stage1Bytes, s.Stage2Bytes)
		}
		// Source pod saw the egress flow, destination pod the ingress.
		if h.nets[0].Completed() != 1 || h.nets[2].Completed() != 1 || h.nets[1].Completed() != 0 {
			t.Fatalf("engines=%d: flow counts %d/%d/%d", engines,
				h.nets[0].Completed(), h.nets[1].Completed(), h.nets[2].Completed())
		}
		if err := h.ip.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInterPodValidation(t *testing.T) {
	h := newIPHarness(t, 2, 2)
	base := TransferSpec{SrcPod: 0, DstPod: 1, Src: h.host(0, 1), Dst: h.host(1, 1), SizeBytes: 100}
	cases := []struct {
		name string
		mut  func(*TransferSpec)
	}{
		{"same pod", func(s *TransferSpec) { s.DstPod = 0 }},
		{"pod out of range", func(s *TransferSpec) { s.DstPod = 7 }},
		{"negative pod", func(s *TransferSpec) { s.SrcPod = -1 }},
		{"zero size", func(s *TransferSpec) { s.SizeBytes = 0 }},
		{"src is gateway", func(s *TransferSpec) { s.Src = h.host(0, 0) }},
		{"dst is gateway", func(s *TransferSpec) { s.Dst = h.host(1, 0) }},
	}
	for _, c := range cases {
		spec := base
		c.mut(&spec)
		if err := h.ip.Send(spec); err == nil {
			t.Errorf("%s: Send succeeded", c.name)
		}
	}
	if s := h.ip.Stats(); s.Pending != 0 || s.Started != s.Aborted {
		t.Fatalf("rejected sends leaked state: %+v", s)
	}

	// Constructor validation.
	if _, err := NewInterPod(nil, nil, nil, 1); err == nil {
		t.Error("NewInterPod(nil sched) succeeded")
	}
	if _, err := NewInterPod(h.sched, h.nets[:1], []NodeID{0}, sim.Time(DefaultInterPodLatencyNs)); err == nil {
		t.Error("NewInterPod with wrong net count succeeded")
	}
	if _, err := NewInterPod(h.sched, h.nets, []NodeID{0, 0}, 1); err == nil {
		t.Error("NewInterPod with latency below lookahead succeeded")
	}
}

// TestInterPodAbortMidWindow: a link fault inside the destination pod
// kills the ingress leg mid-flight; the transfer reports the abort and
// conservation still holds (egress bytes moved, ingress bytes did not).
func TestInterPodAbortMidWindow(t *testing.T) {
	h := newIPHarness(t, 2, 2)
	dst := h.host(1, 1)
	// Take down the destination host's access links while the ingress
	// flow (starting after ~2 latencies of egress+hop) is in flight.
	var dstLinks []LinkID
	for lid, l := range h.nets[1].Topology().Links() {
		if l.From == dst || l.To == dst {
			dstLinks = append(dstLinks, LinkID(lid))
		}
	}
	if _, err := h.sched.PodEngine(1).At(sim.Time(2*DefaultInterPodLatencyNs), func() {
		for _, lid := range dstLinks {
			if err := h.nets[1].SetLinkState(lid, false); err != nil {
				t.Errorf("link down: %v", err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	aborted := 0
	if _, err := h.sched.PodEngine(0).At(0, func() {
		err := h.ip.Send(TransferSpec{
			SrcPod: 0, DstPod: 1,
			Src: h.host(0, 1), Dst: dst,
			// Big enough that the ingress leg is still moving when the
			// links die.
			SizeBytes: 1 << 30, Label: "cut",
			OnComplete: func() { t.Error("cut transfer completed") },
			OnAbort:    func() { aborted++ },
		})
		if err != nil {
			t.Errorf("Send: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.sched.Drain(); err != nil {
		t.Fatal(err)
	}
	if aborted != 1 {
		t.Fatal("severed transfer did not abort")
	}
	s := h.ip.Stats()
	if s.Stage1Bytes != 1<<30 || s.Stage2Bytes != 0 {
		t.Fatalf("stage bytes %d/%d after mid-flight cut", s.Stage1Bytes, s.Stage2Bytes)
	}
	if err := h.ip.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInterPodWindowGuardMessage pins the boundary-violation error text
// the fabric's panic path relies on.
func TestInterPodWindowGuardMessage(t *testing.T) {
	sched, err := sim.NewSharded(2, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	var guardErr error
	if _, err := sched.PodEngine(0).At(0, func() {
		guardErr = sched.Post(0, 1, 1, func() {})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Drain(); err != nil {
		t.Fatal(err)
	}
	if guardErr == nil || !strings.Contains(guardErr.Error(), "window boundary") {
		t.Fatalf("guard error = %v", guardErr)
	}
}
