package netsim

import (
	"math"
	"testing"

	"keddah/internal/sim"
)

// tcpFlowState is the part of one flow's TCP state the per-tick rules
// read and write.
type tcpFlowState struct {
	cwnd, ssthresh, srtt, demand float64
	state                        uint8
}

// referenceTCPStep applies the documented per-tick rules, written from
// scratch, to one flow's post-settle state:
//   - a flow waiting out a retransmission timeout stays silent;
//   - loss halves the window into ssthresh (floor 2·MSS); a window of at
//     least 4·MSS fast-retransmits (cwnd = ssthresh, congestion
//     avoidance), anything smaller stalls in RTO-wait with no demand;
//   - otherwise slow start adds the acked bytes (moving to avoidance once
//     cwnd reaches ssthresh), avoidance adds MSS·acked/cwnd, and the
//     window is capped at path BDP plus buffer;
//   - srtt moves 1/8 of the way to the sampled RTT, and the flow demands
//     cwnd/srtt.
func referenceTCPStep(st tcpFlowState, acked float64, loss bool, rttSample, cwndCap, mss float64) tcpFlowState {
	if st.state == tcpRTOWait {
		return st
	}
	switch {
	case loss:
		st.ssthresh = math.Max(st.cwnd/2, 2*mss)
		if st.cwnd < 4*mss {
			st.state, st.demand = tcpRTOWait, 0
			return st
		}
		st.cwnd, st.state = st.ssthresh, tcpAvoid
	case acked > 0:
		if st.state == tcpSlowStart {
			st.cwnd += acked
			if st.cwnd >= st.ssthresh {
				st.state = tcpAvoid
			}
		} else {
			st.cwnd += mss * acked / st.cwnd
		}
		st.cwnd = math.Min(st.cwnd, cwndCap)
	}
	st.srtt = 7*st.srtt/8 + rttSample/8
	st.demand = st.cwnd * 8 / st.srtt
	return st
}

// TestTCPStepMatchesReference checks the TCP state machine against
// referenceTCPStep on the E17 incast at fan-ins 2, 16, 32 and 64 (fan-in
// 32 is the one whose losses hit 3-MSS windows, just under the
// fast-retransmit threshold). The ack
// clock is re-bound to a wrapper that snapshots every active flow's
// post-settle state, runs the production tick, then requires cwnd,
// ssthresh, state and demand to match the reference step of the
// snapshot. Loss and the RTT sample are read from the link queues the
// production tick sees: overflow after the flow's last loss reaction, and
// base RTT plus the summed queueing delay along the path.
func TestTCPStepMatchesReference(t *testing.T) {
	const unit = 256 << 10
	var fastRtx, rtos uint64
	for _, fanin := range []int{2, 16, 32, 64} {
		topo := mustStar(t, fanin+1, Gbps)
		eng := sim.New()
		net := NewNetwork(eng, topo, Config{Transport: "tcp"})
		net.Reserve(fanin)
		tc := net.tcp
		mss := tcpMSS

		type before struct {
			s     int32
			st    tcpFlowState
			acked float64
			loss  bool
			rtt   float64
		}
		var snap []before
		ticks, compared := 0, 0
		tc.tickEv = eng.NewTimer(func(arg uint64) {
			// settle is idempotent within one instant, so the production
			// tick's own settle charges nothing further.
			net.settle()
			snap = snap[:0]
			for _, s := range net.active {
				b := before{s: s, acked: tc.acked[s], rtt: tc.baseRTT[s], st: tcpFlowState{
					cwnd: tc.cwnd[s], ssthresh: tc.ssthresh[s], srtt: tc.srtt[s],
					demand: tc.demand[s], state: tc.tstate[s],
				}}
				for _, lid := range net.path(s) {
					b.loss = b.loss || tc.overflowAt[lid] > tc.lossAt[s]
					b.rtt += tc.qBytes[lid] * 8 / topo.links[lid].CapacityBps
				}
				snap = append(snap, b)
			}
			tc.tick(arg)
			ticks++
			for _, b := range snap {
				s := b.s
				want := referenceTCPStep(b.st, b.acked, b.loss, b.rtt, tc.cwndCap[s], mss)
				if tc.tstate[s] != want.state || !rateEqual(tc.cwnd[s], want.cwnd) ||
					!rateEqual(tc.ssthresh[s], want.ssthresh) || !rateEqual(tc.demand[s], want.demand) {
					t.Fatalf("fan-in %d tick %d flow %d: got cwnd %.6g ssthresh %.6g state %d demand %.6g, "+
						"reference cwnd %.6g ssthresh %.6g state %d demand %.6g (from %+v, acked %.6g, loss %v)",
						fanin, ticks, net.fid[s], tc.cwnd[s], tc.ssthresh[s], tc.tstate[s], tc.demand[s],
						want.cwnd, want.ssthresh, want.state, want.demand, b.st, b.acked, b.loss)
				}
				compared++
			}
		}, 0)

		hosts := topo.Hosts()
		for i := 0; i < fanin; i++ {
			if _, err := net.StartFlow(FlowSpec{
				Src: hosts[i+1], Dst: hosts[0], SrcPort: 10000 + i, DstPort: 13562, SizeBytes: unit,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		if got := net.Completed(); got != uint64(fanin) {
			t.Fatalf("fan-in %d: completed %d flows", fanin, got)
		}
		f, r := net.TCPStats()
		t.Logf("fan-in %d: %d ticks, %d flow steps compared, %d fast retransmits, %d RTOs", fanin, ticks, compared, f, r)
		fastRtx += f
		rtos += r
	}
	if fastRtx == 0 || rtos == 0 {
		t.Errorf("fast retransmit (%d) and RTO (%d) must both fire across the fan-ins", fastRtx, rtos)
	}
}
