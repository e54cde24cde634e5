package netsim

import (
	"testing"

	"keddah/internal/sim"
)

// FuzzTCPStep drives the TCP state machine with an arbitrary op script —
// flow starts, time advances, capacity degrades, link flaps, aborts — and
// sweeps the structural invariants after every op: cwnd stays within
// [MSS, BDP+buffer], RTO backoff never exceeds its cap, stalled flows
// carry zero demand with a pending timer, and queues stay within their
// buffers (tcpCore.verify via VerifyState) — and the installed rates
// match the demand-capped max-min oracle. The state machine must never
// panic and never wedge the event loop.
func FuzzTCPStep(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x01, 0x41, 0x02, 0x90, 0x03})
	f.Add([]byte{0x10, 0x10, 0x10, 0x10, 0x81, 0x81, 0x81, 0x81, 0x52, 0x04})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0xf0, 0xff})
	// Eight flows, one of them 16 KiB, then 1.5 ms of ticks: the short
	// flow's rate settles while its due time is beyond the next tick, and
	// a later tick must arm its completion.
	f.Add([]byte{0x30, 0x30, 0x30, 0x30, 0x61, 0x30, 0x30, 0x30, 0x24})
	// Sixteen 512 KiB flows from eight senders into one host (eight flows
	// only ever fast-retransmit here), then 40 ms of ticks: synchronised
	// loss stalls most of them in RTO wait. Host 1's uplink goes down,
	// aborting both its stalled flows, and comes back 16 ms later; an
	// abort by predicate takes another stalled flow; 240 ms more lets
	// the retransmission timers fire.
	f.Add([]byte{
		0x50, 0x50, 0x50, 0x50, 0x50, 0x50, 0x50, 0x50,
		0x50, 0x50, 0x50, 0x50, 0x50, 0x50, 0x50, 0x50,
		0xf4, 0xf4, 0xf4, 0xf4, 0xf4,
		0x29, 0xf4, 0xf4, 0x2a, 0x9c,
		0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4,
		0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4,
		0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4, 0xf4,
	})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			t.Skip()
		}
		topo, err := Star(9, Gbps)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		eng.MaxEvents = 2_000_000 // wedge guard: a runaway tick loop trips this
		net := NewNetwork(eng, topo, Config{Transport: "tcp"})
		net.Reserve(32)
		hosts := topo.Hosts()

		started := 0
		for i, op := range script {
			arg := int(op >> 4)
			switch op & 0x0f {
			case 0, 1, 2, 3: // start a fan-in flow (sizes vary with arg)
				if started >= 64 {
					break
				}
				if _, err := net.StartFlow(FlowSpec{
					Src: hosts[1+started%8], Dst: hosts[0],
					SrcPort: 1000 + started, DstPort: 13562,
					SizeBytes: int64(16<<10) << uint(arg%6),
				}); err != nil {
					t.Fatal(err)
				}
				started++
			case 4, 5, 6: // advance simulated time by arg-scaled steps
				until := eng.Now() + sim.Time(1+arg)*sim.Time(500_000)
				if _, err := eng.Run(until); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			case 7: // degrade a link
				lid := LinkID(arg % topo.NumLinks())
				if err := net.SetLinkCapacityScale(lid, 0.1+float64(arg)/32); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			case 8: // restore a link's capacity
				lid := LinkID(arg % topo.NumLinks())
				if err := net.SetLinkCapacityScale(lid, 1.0); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			case 9: // flap a link down
				if err := net.SetLinkState(LinkID(arg%topo.NumLinks()), false); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			case 10: // bring a link up
				if err := net.SetLinkState(LinkID(arg%topo.NumLinks()), true); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			case 11: // abort one started flow by its port (finished ones are fine)
				if started > 0 {
					port := 1000 + arg%started
					net.AbortFlowsWhere(func(s FlowSpec) bool { return s.SrcPort == port })
				}
			default: // abort by predicate
				net.AbortFlowsWhere(func(s FlowSpec) bool { return s.SrcPort%16 == arg })
			}
			if err := net.VerifyState(); err != nil {
				t.Fatalf("op %d (0x%02x): %v", i, op, err)
			}
			if err := net.CheckAllocatorOracle(); err != nil {
				t.Fatalf("op %d (0x%02x): %v", i, op, err)
			}
		}
		// Restore the fabric and drain: every surviving flow must finish.
		for lid := 0; lid < topo.NumLinks(); lid++ {
			_ = net.SetLinkState(LinkID(lid), true)
			_ = net.SetLinkCapacityScale(LinkID(lid), 1.0)
		}
		if _, err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		if net.ActiveFlows() != 0 {
			t.Fatalf("%d flows wedged active after drain", net.ActiveFlows())
		}
		if got := net.Completed() + net.AbortedFlows(); got != uint64(started) {
			t.Fatalf("completed+aborted = %d, want %d", got, started)
		}
		if err := net.VerifyState(); err != nil {
			t.Fatal(err)
		}
	})
}
