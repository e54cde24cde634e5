package netsim

import (
	"testing"

	"keddah/internal/sim"
)

// fanIn starts 96 flows from eight hosts into one (so every arrival and
// departure moves the survivors' rates), runs them to completion and
// returns every completed handle in completion order.
func fanIn(t *testing.T, net *Network) []Flow {
	t.Helper()
	hosts := net.Topology().Hosts()
	var done []Flow
	for i := 0; i < 96; i++ {
		spec := FlowSpec{
			Src: hosts[1+i%(len(hosts)-1)], Dst: hosts[0], SrcPort: 1000 + i, DstPort: 13562,
			SizeBytes:  int64(256<<10) * int64(1+i%5),
			OnComplete: func(f Flow) { done = append(done, f) },
		}
		net.Engine().After(sim.Time(i)*200_000, func() {
			if _, err := net.StartFlow(spec); err != nil {
				t.Error(err)
			}
		})
	}
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 96 {
		t.Fatalf("%d of 96 flows completed", len(done))
	}
	return done
}

// TestRateHistoryFollowsRateTap: a network records per-flow rate history
// only while a RateTap is attached. Without one — bare, or observed by a
// plain Tap — the segment chunk pool is never sized or filled and
// completed handles carry no Segments; with one attached after Reserve,
// the pool is sized for the reserved peak and every flow's history is
// recorded. Recording only observes: completion times and delivered
// bytes are identical either way.
func TestRateHistoryFollowsRateTap(t *testing.T) {
	for _, transport := range []string{"fluid", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			run := func(taps ...Tap) (*Network, []Flow) {
				net := NewNetwork(sim.New(), mustStar(t, 9, Gbps), Config{Transport: transport})
				net.Reserve(64)
				for _, tp := range taps {
					net.AddTap(tp)
				}
				return net, fanIn(t, net)
			}
			bare, bareDone := run()
			counted, _ := run(&countingTap{})
			recorded, recDone := run(&countingTap{}, rateTap{})

			for name, net := range map[string]*Network{"bare": bare, "plain tap": counted} {
				if c := net; c.recording || cap(c.segChunks) != 0 {
					t.Errorf("%s: recording=%v with %d chunks reserved, want no history", name, c.recording, cap(c.segChunks))
				}
			}
			for _, f := range bareDone {
				if segs := f.Segments; segs != nil {
					t.Fatalf("flow %d: %d segments without a rate tap", f.ID, len(segs))
				}
			}

			if c := recorded; !c.recording || cap(c.segChunks) < 64 {
				t.Errorf("rate tap: recording=%v with %d chunks reserved, want >= 64", c.recording, cap(c.segChunks))
			}
			changes := 0
			for i, f := range recDone {
				segs := f.Segments
				if len(segs) == 0 || segs[0].Start < f.Start {
					t.Fatalf("flow %d: history %v does not start at or after its start %d", f.ID, segs, f.Start)
				}
				changes += len(segs) - 1
				b := bareDone[i]
				if b.ID != f.ID || b.End != f.End || b.Transferred != f.Transferred {
					t.Fatalf("flow %d: recording changed the outcome (end %d/%d, bytes %d/%d)",
						f.ID, b.End, f.End, b.Transferred, f.Transferred)
				}
			}
			if changes == 0 {
				t.Error("no flow changed rate: the fan-in does not exercise history growth")
			}
		})
	}
}
