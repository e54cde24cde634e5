package netsim

import (
	"errors"
	"testing"

	"keddah/internal/sim"
)

// TestFlowIDRecycle is the table-driven slot-recycling contract: a FlowID
// goes stale the instant its flow finishes, and every operation through a
// stale id — even after the slot is reoccupied by a new flow — is a
// checked no-op, never a mutation of the new occupant.
func TestFlowIDRecycle(t *testing.T) {
	cases := []struct {
		name   string
		retire func(t *testing.T, net *Network, eng *sim.Engine, id FlowID)
	}{
		{
			name: "completes",
			retire: func(t *testing.T, net *Network, eng *sim.Engine, id FlowID) {
				if _, err := eng.RunAll(); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "aborted",
			retire: func(t *testing.T, net *Network, eng *sim.Engine, id FlowID) {
				if err := net.AbortFlow(id); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := mustStar(t, 4, Gbps)
			eng := sim.New()
			net := NewNetwork(eng, topo, Config{})
			h := topo.Hosts()

			first, err := net.StartFlowID(FlowSpec{Src: h[0], Dst: h[1], SrcPort: 1, DstPort: 80, SizeBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if !net.FlowPending(first) {
				t.Fatal("fresh flow not pending")
			}
			tc.retire(t, net, eng, first)
			if net.FlowPending(first) {
				t.Fatal("retired flow still pending")
			}
			if err := net.AbortFlow(first); !errors.Is(err, ErrStaleFlow) {
				t.Fatalf("abort of retired flow: got %v, want ErrStaleFlow", err)
			}

			// A new flow must reuse the freed slot (LIFO free list) under a
			// bumped generation; the stale id must not reach it.
			second, err := net.StartFlowID(FlowSpec{Src: h[1], Dst: h[2], SrcPort: 2, DstPort: 80, SizeBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if second.slot != first.slot {
				t.Fatalf("slot not recycled: first %d, second %d", first.slot, second.slot)
			}
			if second.gen == first.gen {
				t.Fatal("generation not bumped on recycle")
			}
			if net.FlowPending(first) {
				t.Fatal("stale id reports the new occupant as its own flow")
			}
			if err := net.AbortFlow(first); !errors.Is(err, ErrStaleFlow) {
				t.Fatalf("stale abort against recycled slot: got %v, want ErrStaleFlow", err)
			}
			if !net.FlowPending(second) {
				t.Fatal("stale abort mutated the recycled slot's new occupant")
			}
			if err := net.VerifyState(); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RunAll(); err != nil {
				t.Fatal(err)
			}
			if net.FlowPending(second) {
				t.Fatal("second flow never finished")
			}
		})
	}
}

// FuzzFlowIDRecycle drives a pseudo-random interleaving of flow starts,
// partial event processing, aborts through current and stale FlowIDs, and
// structural verification. The properties: an abort through a stale id
// always returns ErrStaleFlow and never perturbs the slot's new occupant,
// VerifyState and the max-min oracle hold after every op, and the network
// always drains.
func FuzzFlowIDRecycle(f *testing.F) {
	f.Add([]byte{0, 16, 5, 1, 0, 8, 2, 3, 0, 1, 2, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 1, 255, 2, 2, 2, 2, 3})
	f.Add([]byte{4, 9, 1, 33, 0, 12, 2, 7, 1, 64, 3, 0, 200, 1, 40, 2, 0, 3})
	// A flow completes, the next start reuses its slot, and the new
	// occupant activates: it must not inherit the old occupant's due time.
	f.Add([]byte{0, 48, 1, 48, 0, 48, 0, 48, 1, 65})
	f.Fuzz(func(t *testing.T, ops []byte) {
		topo, err := Star(4, Gbps)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		net := NewNetwork(eng, topo, Config{})
		hosts := topo.Hosts()

		var ids []FlowID // every id ever issued, live or stale
		for i := 0; i+1 < len(ops) && i < 256; i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 4 {
			case 0: // start a flow (size and endpoints from arg)
				src := hosts[arg%len(hosts)]
				dst := hosts[(arg/4+1)%len(hosts)]
				id, err := net.StartFlowID(FlowSpec{
					Src: src, Dst: dst, SrcPort: 1000 + i, DstPort: 80,
					SizeBytes: int64(arg)*4096 + 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !net.FlowPending(id) {
					t.Fatal("fresh flow not pending")
				}
				ids = append(ids, id)
			case 1: // process a bounded number of events
				for j := 0; j <= arg%32; j++ {
					if !eng.Step() {
						break
					}
				}
			case 2: // abort an arbitrary past id (possibly stale)
				if len(ids) == 0 {
					continue
				}
				id := ids[arg%len(ids)]
				pending := net.FlowPending(id)
				occupant := FlowID{slot: id.slot, gen: net.soa.gen[id.slot]}
				occupied := net.soa.state[id.slot] != slotFree
				switch err := net.AbortFlow(id); {
				case pending && err != nil:
					t.Fatalf("abort of pending flow: %v", err)
				case !pending && !errors.Is(err, ErrStaleFlow):
					t.Fatalf("stale abort: got %v, want ErrStaleFlow", err)
				case !pending && occupied && !net.FlowPending(occupant):
					t.Fatal("stale abort tore down the slot's new occupant")
				}
			case 3: // probe only: the checks below run after every op
			}
			if err := net.VerifyState(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if err := net.CheckAllocatorOracle(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if _, err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if net.FlowPending(id) {
				t.Fatal("flow still pending after drain")
			}
			if err := net.AbortFlow(id); !errors.Is(err, ErrStaleFlow) {
				t.Fatalf("post-drain abort: got %v, want ErrStaleFlow", err)
			}
		}
		if err := net.VerifyState(); err != nil {
			t.Fatal(err)
		}
	})
}
