package netsim

import (
	"testing"

	"keddah/internal/sim"
)

// flowReports is a Tap that checks each finished flow against the spec and
// start time it was opened with, and refuses a second report of any flow.
type flowReports struct {
	t        *testing.T
	opened   map[uint64]Flow // ID, Spec and Start as of StartFlow
	reported map[uint64]Flow
}

func newFlowReports(t *testing.T) *flowReports {
	return &flowReports{t: t, opened: map[uint64]Flow{}, reported: map[uint64]Flow{}}
}

// start opens spec on net and remembers what it opened.
func (r *flowReports) start(net *Network, spec FlowSpec) uint64 {
	r.t.Helper()
	id, err := net.StartFlow(spec)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, dup := r.opened[id]; dup {
		r.t.Fatalf("flow ID %d issued twice", id)
	}
	r.opened[id] = Flow{ID: id, Spec: spec, Start: net.Engine().Now()}
	return id
}

func (r *flowReports) FlowCompleted(f Flow) {
	r.t.Helper()
	want, ok := r.opened[f.ID]
	if !ok {
		r.t.Fatalf("report for flow %d, which was never started", f.ID)
	}
	if _, dup := r.reported[f.ID]; dup {
		r.t.Fatalf("flow %d reported twice", f.ID)
	}
	r.reported[f.ID] = f
	got, ws := f.Spec, want.Spec
	if got.Src != ws.Src || got.Dst != ws.Dst || got.SrcPort != ws.SrcPort || got.SizeBytes != ws.SizeBytes {
		r.t.Fatalf("flow %d reported spec %+v, started with %+v", f.ID, got, ws)
	}
	if f.Start != want.Start || f.End < f.Start {
		r.t.Fatalf("flow %d reported span [%d, %d], started at %d", f.ID, f.Start, f.End, want.Start)
	}
	if f.Transferred < 0 || f.Transferred > ws.SizeBytes || (!f.Aborted && f.Transferred != ws.SizeBytes) {
		r.t.Fatalf("flow %d (aborted=%v) reported %d of %d bytes", f.ID, f.Aborted, f.Transferred, ws.SizeBytes)
	}
}

// drained checks that every started flow was reported.
func (r *flowReports) drained() {
	r.t.Helper()
	for id := range r.opened {
		if _, ok := r.reported[id]; !ok {
			r.t.Fatalf("flow %d never reported", id)
		}
	}
}

// abortPort aborts the active flow whose SrcPort is port, if any.
func abortPort(net *Network, port int) int {
	return net.AbortFlowsWhere(func(s FlowSpec) bool { return s.SrcPort == port })
}

// TestSlotRecycle is the table-driven slot-recycling contract: a flow is
// reported once, when it completes or aborts; its slot then goes to the
// next flow under a bumped generation, and neither an abort aimed at the
// finished flow nor the new occupant's completion reaches back to it.
func TestSlotRecycle(t *testing.T) {
	cases := []struct {
		name   string
		retire func(t *testing.T, net *Network, eng *sim.Engine)
	}{
		{
			name: "completes",
			retire: func(t *testing.T, net *Network, eng *sim.Engine) {
				if _, err := eng.RunAll(); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "aborted",
			retire: func(t *testing.T, net *Network, eng *sim.Engine) {
				for net.ActiveFlows() == 0 && eng.Step() {
				}
				if n := abortPort(net, 1); n != 1 {
					t.Fatalf("abort tore down %d flows, want 1", n)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := mustStar(t, 4, Gbps)
			eng := sim.New()
			net := NewNetwork(eng, topo, Config{})
			rep := newFlowReports(t)
			net.AddTap(rep)
			h := topo.Hosts()

			first := rep.start(net, FlowSpec{Src: h[0], Dst: h[1], SrcPort: 1, DstPort: 80, SizeBytes: 1 << 20})
			if _, ok := rep.reported[first]; ok {
				t.Fatal("flow reported before it ran")
			}
			tc.retire(t, net, eng)
			if f, ok := rep.reported[first]; !ok || f.Aborted != (tc.name == "aborted") {
				t.Fatalf("first flow reported=%v, aborted=%v", ok, f.Aborted)
			}
			gen := net.gen[0]

			// The next flow reuses the freed slot (LIFO free list) under a
			// bumped generation.
			var got Flow
			second := rep.start(net, FlowSpec{Src: h[1], Dst: h[2], SrcPort: 2, DstPort: 80, SizeBytes: 1 << 20,
				OnComplete: func(f Flow) { got = f }})
			if len(net.fid) != 1 || net.fid[0] != second {
				t.Fatalf("slot not recycled: %d slots, slot 0 holds flow %d", len(net.fid), net.fid[0])
			}
			if net.gen[0] != gen {
				t.Fatalf("generation moved on start: %d -> %d", gen, net.gen[0])
			}
			for net.ActiveFlows() == 0 && eng.Step() {
			}
			if n := abortPort(net, 1); n != 0 {
				t.Fatalf("abort aimed at the finished flow tore down %d flows", n)
			}
			if err := net.VerifyState(); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
			if got.ID != second || got.Spec.SrcPort != 2 || got.Aborted {
				t.Fatalf("second flow's callback got %+v", got)
			}
			if net.gen[0] == gen {
				t.Fatal("generation not bumped on recycle")
			}
			rep.drained()
		})
	}
}

// FuzzSlotRecycle drives a pseudo-random interleaving of flow starts,
// partial event processing, aborts aimed at current and finished flows,
// and link flaps. The properties: every started flow is reported exactly
// once — to the tap and to one of its own callbacks — with the spec and
// start time it was opened with, so a recycled slot never reports its
// previous occupant; VerifyState and the max-min oracle hold after every
// op; and the network always drains.
func FuzzSlotRecycle(f *testing.F) {
	f.Add([]byte{0, 16, 5, 1, 0, 8, 2, 3, 0, 1, 2, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 1, 255, 2, 2, 2, 2, 3})
	f.Add([]byte{4, 9, 1, 33, 0, 12, 2, 7, 1, 64, 3, 0, 200, 1, 40, 2, 0, 3})
	// A flow completes, the next start reuses its slot, and the new
	// occupant activates: it must not inherit the old occupant's due time.
	f.Add([]byte{0, 48, 1, 48, 0, 48, 0, 48, 1, 65})
	// A link dies under two flows, one start lands in the partition, and
	// the link comes back.
	f.Add([]byte{0, 4, 0, 9, 1, 3, 3, 1, 0, 1, 1, 31, 3, 9, 1, 31})
	f.Fuzz(func(t *testing.T, ops []byte) {
		topo, err := Star(4, Gbps)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		net := NewNetwork(eng, topo, Config{})
		rep := newFlowReports(t)
		net.AddTap(rep)
		hosts := topo.Hosts()
		nl := topo.NumLinks()

		callbacks := map[uint64]int{}
		callback := func(aborted bool) func(Flow) {
			return func(f Flow) {
				callbacks[f.ID]++
				if f.Aborted != aborted {
					t.Fatalf("flow %d (aborted=%v) reached the wrong callback", f.ID, f.Aborted)
				}
			}
		}
		var ports []int // SrcPort of every flow started, unique per flow
		for i := 0; i+1 < len(ops) && i < 256; i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 4 {
			case 0: // start a flow (size and endpoints from arg)
				rep.start(net, FlowSpec{
					Src: hosts[arg%len(hosts)], Dst: hosts[(arg/4+1)%len(hosts)],
					SrcPort: 1000 + i, DstPort: 80, SizeBytes: int64(arg)*4096 + 1,
					OnComplete: callback(false), OnAbort: callback(true),
				})
				ports = append(ports, 1000+i)
			case 1: // process a bounded number of events
				for j := 0; j <= arg%32; j++ {
					if !eng.Step() {
						break
					}
				}
			case 2: // abort an arbitrary past flow, possibly finished
				if len(ports) == 0 {
					continue
				}
				if n := abortPort(net, ports[arg%len(ports)]); n > 1 {
					t.Fatalf("op %d: one port aborted %d flows", i, n)
				}
			case 3: // flap a link down or up
				if err := net.SetLinkState(LinkID(arg%nl), arg/nl%2 == 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := net.VerifyState(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if err := net.CheckAllocatorOracle(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		for lid := 0; lid < nl; lid++ {
			if err := net.SetLinkState(LinkID(lid), true); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		if net.ActiveFlows() != 0 {
			t.Fatalf("%d flows wedged active after drain", net.ActiveFlows())
		}
		rep.drained()
		for id := range rep.opened {
			if callbacks[id] != 1 {
				t.Fatalf("flow %d reached its callbacks %d times, want 1", id, callbacks[id])
			}
		}
		if err := net.VerifyState(); err != nil {
			t.Fatal(err)
		}
	})
}
