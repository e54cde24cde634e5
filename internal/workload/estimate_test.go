package workload

import "testing"

func TestEstimatePeakFlows(t *testing.T) {
	specs := []RunSpec{{Profile: "terasort", InputBytes: 1 << 30}}
	got := EstimatePeakFlows(specs, 16, 4, 3, 1)
	// 16 workers × 4 slots × 5 parallel shuffle fetches + 2×16 heartbeats + 16.
	if want := 16*4*5 + 2*16 + 16; got != want {
		t.Fatalf("EstimatePeakFlows = %d, want %d", got, want)
	}
	// Defaults kick in for non-positive cluster parameters.
	if got := EstimatePeakFlows(nil, 0, 0, 0, 0); got <= 0 {
		t.Fatalf("EstimatePeakFlows with defaults = %d, want positive", got)
	}
	// A map-only profile drops the shuffle bound to the replication depth.
	mapOnly := []RunSpec{{Profile: "dfsio-write", InputBytes: 1 << 30}}
	if s, m := EstimatePeakFlows(specs, 16, 4, 3, 1), EstimatePeakFlows(mapOnly, 16, 4, 3, 1); m >= s {
		t.Fatalf("map-only estimate %d should be below shuffle estimate %d", m, s)
	}
}

func TestEstimatePeakFlowsMultiPod(t *testing.T) {
	specs := []RunSpec{{Profile: "terasort", InputBytes: 1 << 30}}

	// A pod count of 0 or 1 is a single-pod capture: no fabric headroom.
	base := EstimatePeakFlows(specs, 32, 4, 3, 1)
	if got := EstimatePeakFlows(specs, 32, 4, 3, 0); got != base {
		t.Fatalf("pods=0 estimate = %d, want the single-pod %d", got, base)
	}
	// An 8-pod federation reserves two flow slots per other pod plus
	// fixed headroom on top of the pod's own workload peak — more than
	// the ring copies' egress and ingress legs need.
	if got, want := EstimatePeakFlows(specs, 32, 4, 3, 8), base+2*7+8; got != want {
		t.Fatalf("eight-pod estimate = %d, want %d", got, want)
	}
	// The smallest federation, two pods, reserves for one inbound transfer.
	if got, want := EstimatePeakFlows(specs, 32, 4, 3, 2), base+2+8; got != want {
		t.Fatalf("two-pod estimate = %d, want %d", got, want)
	}
	// The bound is monotone in the pod count: more pods that can copy
	// into one can never shrink the reservation.
	prev := base
	for pods := 2; pods <= 17; pods++ {
		got := EstimatePeakFlows(specs, 32, 4, 3, pods)
		if got <= prev {
			t.Fatalf("estimate not monotone: pods=%d gave %d after %d", pods, got, prev)
		}
		prev = got
	}
}
