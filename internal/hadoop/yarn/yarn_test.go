package yarn

import (
	"testing"

	"keddah/internal/flows"
	"keddah/internal/netsim"
	"keddah/internal/pcap"
	"keddah/internal/sim"
	"keddah/internal/stats"
)

// testRM builds an RM over a star network with a capture attached.
func testRM(t *testing.T, workers int, cfg Config) (*RM, *netsim.Network, *pcap.FlowLog) {
	t.Helper()
	topo, err := netsim.Star(workers+1, netsim.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.NewNetwork(eng, topo, netsim.Config{})
	c := pcap.NewFlowLog()
	net.AddTap(c)
	hosts := topo.Hosts()
	rm, err := New(net, hosts[0], hosts[1:], cfg, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	return rm, net, c
}

// drainUntil steps the engine until cond holds or the queue empties.
func drainUntil(t *testing.T, eng *sim.Engine, cond func() bool) {
	t.Helper()
	for !cond() {
		if !eng.Step() {
			t.Fatal("queue drained before condition held")
		}
	}
}

func TestAMAllocationAndFinish(t *testing.T) {
	rm, net, _ := testRM(t, 4, Config{SlotsPerNode: 2})
	rm.Start()
	var am *App
	rm.Submit(net.Topology().Hosts()[0], func(a *App) { am = a })
	drainUntil(t, net.Engine(), func() bool { return am != nil })
	if am.AMHost() == net.Topology().Hosts()[0] {
		t.Error("AM placed on the master (not a NodeManager)")
	}
	am.Finish()
	rm.Shutdown()
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if rm.Assigned != 1 {
		t.Errorf("assigned = %d, want 1 (the AM)", rm.Assigned)
	}
}

func TestSlotsBoundConcurrency(t *testing.T) {
	rm, net, _ := testRM(t, 2, Config{SlotsPerNode: 1}) // 2 slots total
	rm.Start()
	running, peak, granted := 0, 0, 0
	var app *App
	rm.Submit(net.Topology().Hosts()[0], func(a *App) {
		app = a
		for i := 0; i < 4; i++ {
			a.RequestContainer(PriorityMap, nil, func(c *Container) {
				granted++
				running++
				if running > peak {
					peak = running
				}
				// Hold the container for 2 s of simulated time.
				net.Engine().After(2_000_000_000, func() {
					running--
					c.Release()
				})
			})
		}
	})
	drainUntil(t, net.Engine(), func() bool { return granted == 4 })
	// AM holds one slot, so at most 1 task container runs at a time.
	if peak > 1 {
		t.Errorf("peak concurrent tasks = %d, want <= 1 (AM holds a slot)", peak)
	}
	app.Finish()
	rm.Shutdown()
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityPreferenceHonoured(t *testing.T) {
	rm, net, _ := testRM(t, 4, Config{SlotsPerNode: 4, LocalityWait: sim.Time(60_000_000_000)})
	rm.Start()
	workers := net.Topology().Hosts()[1:]
	want := workers[2]
	var got netsim.NodeID = -1
	rm.Submit(net.Topology().Hosts()[0], func(a *App) {
		a.RequestContainer(PriorityMap, []netsim.NodeID{want}, func(c *Container) { got = c.Host() })
	})
	drainUntil(t, net.Engine(), func() bool { return got >= 0 })
	if got != want {
		t.Errorf("container on %d, want preferred %d", got, want)
	}
	rm.Shutdown()
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	if rm.LocalAssigned != 1 {
		t.Errorf("local assignments = %d, want 1", rm.LocalAssigned)
	}
}

func TestLocalityWaitTimeout(t *testing.T) {
	// Prefer a host whose only slot is occupied forever; after
	// LocalityWait the request must fall through to another host.
	rm, net, _ := testRM(t, 2, Config{SlotsPerNode: 1, LocalityWait: sim.Time(2_000_000_000)})
	rm.Start()
	workers := net.Topology().Hosts()[1:]
	var amHost, got netsim.NodeID = -1, -1
	rm.Submit(net.Topology().Hosts()[0], func(a *App) {
		amHost = a.AMHost()
		// Prefer the AM's own host — its single slot is taken by the AM.
		a.RequestContainer(PriorityMap, []netsim.NodeID{amHost}, func(c *Container) { got = c.Host() })
	})
	drainUntil(t, net.Engine(), func() bool { return got >= 0 })
	if got == amHost {
		t.Error("request was satisfied on the occupied preferred host")
	}
	found := false
	for _, w := range workers {
		if got == w {
			found = true
		}
	}
	if !found {
		t.Errorf("container landed on unknown host %d", got)
	}
	rm.Shutdown()
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityOrdering(t *testing.T) {
	// One free slot; a reduce-priority request queued BEFORE a
	// map-priority request must still be granted after it.
	rm, net, _ := testRM(t, 1, Config{SlotsPerNode: 3})
	rm.Start()
	var order []string
	rm.Submit(net.Topology().Hosts()[0], func(a *App) {
		// Fill one slot (AM) + leave 2: grant order within one heartbeat
		// scan must be map before reduce even though reduce enqueued
		// first.
		a.RequestContainer(PriorityReduce, nil, func(*Container) { order = append(order, "reduce") })
		a.RequestContainer(PriorityMap, nil, func(*Container) { order = append(order, "map") })
	})
	drainUntil(t, net.Engine(), func() bool { return len(order) == 2 })
	if order[0] != "map" {
		t.Errorf("grant order = %v, want map first", order)
	}
	rm.Shutdown()
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatControlTraffic(t *testing.T) {
	rm, net, c := testRM(t, 4, Config{})
	rm.Start()
	if _, err := net.Engine().Run(sim.Time(10_500_000_000)); err != nil {
		t.Fatal(err)
	}
	rm.Shutdown()
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
	ds := flows.NewDataset(c.Truth())
	n := ds.Count(flows.PhaseControl)
	// 4 NMs × ~10 beats, jittered start: expect ≈40.
	if n < 30 || n > 50 {
		t.Errorf("NM heartbeat flows = %d, want ≈40", n)
	}
	// All heartbeats target the resource-tracker port.
	for _, r := range ds.ByPhase(flows.PhaseControl).Records {
		if r.Key.DstPort != flows.PortRMTracker {
			t.Errorf("control flow to port %d, want %d", r.Key.DstPort, flows.PortRMTracker)
		}
	}
}

func TestNewValidation(t *testing.T) {
	topo, err := netsim.Star(2, netsim.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork(sim.New(), topo, netsim.Config{})
	if _, err := New(net, topo.Hosts()[0], nil, Config{}, stats.NewRNG(1)); err == nil {
		t.Error("RM with no workers accepted")
	}
}

func TestTotalSlots(t *testing.T) {
	rm, _, _ := testRM(t, 4, Config{SlotsPerNode: 3})
	if rm.TotalSlots() != 12 {
		t.Errorf("total slots = %d, want 12", rm.TotalSlots())
	}
}
