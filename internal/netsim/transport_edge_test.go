package netsim

import (
	"testing"

	"keddah/internal/sim"
)

// Satellite coverage: SetLinkCapacityScale / Reachable / AbortFlowsWhere
// edge cases must behave identically (API-wise) under both transports —
// degraded links, partitions and predicate aborts are fault-layer
// behaviours the transport model must not change.

var bothTransports = []string{"fluid", "tcp"}

func TestSetLinkCapacityScaleEdgeCases(t *testing.T) {
	for _, tr := range bothTransports {
		t.Run(tr, func(t *testing.T) {
			topo := mustStar(t, 3, Gbps)
			eng := sim.New()
			net := NewNetwork(eng, topo, Config{Transport: tr})
			hosts := topo.Hosts()

			// Out-of-range link and out-of-range factors are rejected.
			if err := net.SetLinkCapacityScale(LinkID(topo.NumLinks()), 0.5); err == nil {
				t.Error("out-of-range link accepted")
			}
			if err := net.SetLinkCapacityScale(0, 0); err == nil {
				t.Error("zero factor accepted")
			}
			if err := net.SetLinkCapacityScale(0, -1); err == nil {
				t.Error("negative factor accepted")
			}

			// Degrade mid-transfer, then restore: the flow must still finish,
			// and more slowly than an undisturbed run. The fault windows are
			// scheduled as simulation events so they occupy real simulated
			// time regardless of the transport's own event cadence.
			var done bool
			if _, err := net.StartFlow(FlowSpec{
				Src: hosts[0], Dst: hosts[1], SrcPort: 1, DstPort: 2, SizeBytes: 12_500_000,
				OnComplete: func(Flow) { done = true },
			}); err != nil {
				t.Fatal(err)
			}
			scale := func(factor float64) {
				for lid := 0; lid < topo.NumLinks(); lid++ {
					if err := net.SetLinkCapacityScale(LinkID(lid), factor); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := eng.At(sim.Time(20_000_000), func() { scale(0.05) }); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.At(sim.Time(40_000_000), func() { scale(1.0) }); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
			if !done {
				t.Fatal("flow did not survive degrade/restore cycle")
			}
			if err := net.VerifyState(); err != nil {
				t.Fatal(err)
			}
			// An undisturbed 12.5 MB flow takes ~100 ms at 1 Gbps; the
			// degraded window must have stretched the run past that.
			if now := eng.Now(); now < sim.Time(110_000_000) {
				t.Errorf("run finished at %v — degrade apparently had no effect", now)
			}
		})
	}
}

func TestReachableUnderFaults(t *testing.T) {
	for _, tr := range bothTransports {
		t.Run(tr, func(t *testing.T) {
			topo := mustStar(t, 3, Gbps)
			eng := sim.New()
			net := NewNetwork(eng, topo, Config{Transport: tr})
			hosts := topo.Hosts()

			if !net.Reachable(hosts[0], hosts[1]) {
				t.Fatal("healthy fabric not reachable")
			}
			if !net.Reachable(hosts[0], hosts[0]) {
				t.Error("self-reachability must always hold")
			}
			// Cut every link incident to h1: h0↔h1 partitions, h0→h2
			// survives, h1→h1 loopback stays reachable.
			for lid, l := range topo.links {
				if l.From == hosts[1] || l.To == hosts[1] {
					if err := net.SetLinkState(LinkID(lid), false); err != nil {
						t.Fatal(err)
					}
				}
			}
			if net.Reachable(hosts[0], hosts[1]) || net.Reachable(hosts[1], hosts[0]) {
				t.Error("severed host still reachable")
			}
			if !net.Reachable(hosts[0], hosts[2]) {
				t.Error("unaffected pair lost reachability")
			}
			if !net.Reachable(hosts[1], hosts[1]) {
				t.Error("loopback reachability lost on severed host")
			}
			// A flow opened into the partition aborts after the connect
			// timeout rather than erroring at start.
			var aborted bool
			if _, err := net.StartFlow(FlowSpec{
				Src: hosts[0], Dst: hosts[1], SizeBytes: 1 << 20,
				OnAbort: func(Flow) { aborted = true },
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
			if !aborted {
				t.Error("flow into partition did not abort")
			}
			// Heal and verify reachability returns.
			for lid, l := range topo.links {
				if l.From == hosts[1] || l.To == hosts[1] {
					if err := net.SetLinkState(LinkID(lid), true); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !net.Reachable(hosts[0], hosts[1]) {
				t.Error("healed fabric not reachable")
			}
		})
	}
}

func TestAbortFlowsWhereEdgeCases(t *testing.T) {
	for _, tr := range bothTransports {
		t.Run(tr, func(t *testing.T) {
			topo := mustStar(t, 4, Gbps)
			eng := sim.New()
			net := NewNetwork(eng, topo, Config{Transport: tr})
			hosts := topo.Hosts()

			// Nothing active: predicate matches nothing.
			if n := net.AbortFlowsWhere(func(FlowSpec) bool { return true }); n != 0 {
				t.Errorf("abort on idle network tore down %d flows", n)
			}

			aborts, completes := 0, 0
			start := func(src, dst NodeID, port int) {
				t.Helper()
				if _, err := net.StartFlow(FlowSpec{
					Src: src, Dst: dst, SrcPort: port, DstPort: 13562, SizeBytes: 8 << 20,
					OnComplete: func(Flow) { completes++ },
					OnAbort:    func(Flow) { aborts++ },
				}); err != nil {
					t.Fatal(err)
				}
			}
			start(hosts[1], hosts[0], 1)
			start(hosts[2], hosts[0], 2)
			start(hosts[3], hosts[0], 3)

			// Flows still propagating are too young to abort.
			if n := net.AbortFlowsWhere(func(FlowSpec) bool { return true }); n != 0 {
				t.Errorf("aborted %d propagating flows, want 0", n)
			}
			// Let them activate, then kill the flows from hosts[2] only.
			if _, err := eng.Run(sim.Time(5_000_000)); err != nil {
				t.Fatal(err)
			}
			n := net.AbortFlowsWhere(func(s FlowSpec) bool { return s.Src == hosts[2] })
			if n != 1 {
				t.Errorf("aborted %d flows, want 1", n)
			}
			if err := net.VerifyState(); err != nil {
				t.Fatal(err)
			}
			// Matching nothing is a no-op even with survivors active.
			if n := net.AbortFlowsWhere(func(s FlowSpec) bool { return s.DstPort == 99 }); n != 0 {
				t.Errorf("no-match abort tore down %d flows", n)
			}
			if _, err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
			if aborts != 1 || completes != 2 {
				t.Errorf("aborts/completes = %d/%d, want 1/2", aborts, completes)
			}
			if net.ActiveFlows() != 0 {
				t.Errorf("%d flows still active after RunAll", net.ActiveFlows())
			}
		})
	}
}
