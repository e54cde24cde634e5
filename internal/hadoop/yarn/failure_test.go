package yarn

import (
	"errors"
	"testing"

	"keddah/internal/netsim"
)

func TestFailNodeLosesRunningContainers(t *testing.T) {
	rm, net, _ := testRM(t, 3, Config{SlotsPerNode: 2})
	rm.Start()
	var held []*Container
	lostCalls := 0
	var amHost netsim.NodeID = -1
	rm.Submit(net.Topology().Hosts()[0], func(a *App) {
		amHost = a.AMHost()
		for i := 0; i < 3; i++ {
			a.RequestContainer(PriorityMap, nil, func(c *Container) {
				c.OnLost(func() { lostCalls++ })
				held = append(held, c)
			})
		}
	})
	drainUntil(t, net.Engine(), func() bool { return len(held) == 3 })

	// Pick a victim that is not the AM host so the expected loss count
	// is exactly the task containers there.
	var victim netsim.NodeID = -1
	for _, c := range held {
		if c.Host() != amHost {
			victim = c.Host()
			break
		}
	}
	if victim < 0 {
		t.Fatal("all task containers landed on the AM host")
	}
	victimCount := 0
	for _, c := range held {
		if c.Host() == victim {
			victimCount++
		}
	}
	if err := rm.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if lostCalls != victimCount {
		t.Errorf("loss handlers fired %d times, want %d", lostCalls, victimCount)
	}
	for _, c := range held {
		if c.Host() == victim && !c.Lost() {
			t.Error("container on failed host not marked lost")
		}
		if c.Host() != victim && c.Lost() {
			t.Error("container on healthy host marked lost")
		}
	}
	if rm.LostContainers != int64(victimCount) {
		t.Errorf("LostContainers = %d, want %d", rm.LostContainers, victimCount)
	}
	// Releasing a lost container is a no-op (no double-free).
	held[0].Release()
	rm.Shutdown()
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestFailNodeExcludedFromScheduling(t *testing.T) {
	rm, net, _ := testRM(t, 2, Config{SlotsPerNode: 4})
	rm.Start()
	workers := net.Topology().Hosts()[1:]
	victim := workers[0]
	if err := rm.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if rm.TotalSlots() != 4 {
		t.Errorf("total slots after failure = %d, want 4", rm.TotalSlots())
	}
	var hosts []netsim.NodeID
	rm.Submit(net.Topology().Hosts()[0], func(a *App) {
		for i := 0; i < 3; i++ {
			a.RequestContainer(PriorityMap, nil, func(c *Container) {
				hosts = append(hosts, c.Host())
			})
		}
	})
	drainUntil(t, net.Engine(), func() bool { return len(hosts) == 3 })
	for _, h := range hosts {
		if h == victim {
			t.Error("container scheduled on dead node")
		}
	}
	rm.Shutdown()
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestFailNodeDuringLaunchRequeues(t *testing.T) {
	// Fail the host while a container is in its launch delay: the
	// request must be transparently re-queued and delivered elsewhere.
	rm, net, _ := testRM(t, 3, Config{SlotsPerNode: 1})
	rm.Start()
	var got netsim.NodeID = -1
	var amReady bool
	rm.Submit(net.Topology().Hosts()[0], func(a *App) {
		amReady = true
		a.RequestContainer(PriorityMap, nil, func(c *Container) { got = c.Host() })
	})
	drainUntil(t, net.Engine(), func() bool { return amReady })
	// White-box: step until a NodeManager holds the task container,
	// granted (slot used) but still launching.
	var taskHost netsim.NodeID = -1
	drainUntil(t, net.Engine(), func() bool {
		for _, nm := range rm.nms {
			for _, c := range nm.containers {
				if !c.delivered {
					taskHost = nm.host
					return true
				}
			}
		}
		return false
	})
	if got >= 0 {
		t.Fatal("container delivered before its launch delay")
	}
	if err := rm.FailNode(taskHost); err != nil {
		t.Fatal(err)
	}
	drainUntil(t, net.Engine(), func() bool { return got >= 0 })
	if got == taskHost {
		t.Error("re-queued request delivered on the dead host")
	}
	rm.Shutdown()
	if _, err := net.Engine().RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestFailUnknownNode(t *testing.T) {
	rm, net, _ := testRM(t, 2, Config{})
	if err := rm.FailNode(net.Topology().Hosts()[0]); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("failing the master: err = %v, want ErrUnknownNode", err)
	}
	// Idempotent on a real worker.
	w := net.Topology().Hosts()[1]
	if err := rm.FailNode(w); err != nil {
		t.Fatal(err)
	}
	if err := rm.FailNode(w); err != nil {
		t.Errorf("second failure: %v", err)
	}
}
