package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"keddah/internal/sim"
)

// flowOutcome is the observable end state of one flow, recorded by the
// scenarios' completion and abort callbacks.
type flowOutcome struct {
	End         sim.Time
	Aborted     bool
	Transferred int64
	Segments    []RateSegment
}

// lockstepScenario schedules a deterministic pseudo-random flow mix —
// including loopback transfers — and, when chaos is on, a deterministic
// fault schedule (link down/up, capacity degrade/restore, endpoint kills)
// onto the network. Every flow records its outcome into rec keyed by flow
// id, which the network assigns in start order.
func lockstepScenario(t *testing.T, net *Network, seed int64, nFlows int, chaos bool, rec map[uint64]flowOutcome) {
	t.Helper()
	hosts := net.Topology().Hosts()
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	eng := net.Engine()
	for i := 0; i < nFlows; i++ {
		src := hosts[next(len(hosts))]
		dst := hosts[next(len(hosts))] // src == dst exercises loopback
		size := int64(next(60_000_000) + 500)
		delay := sim.Time(next(1_500_000_000))
		spec := FlowSpec{Src: src, Dst: dst, SrcPort: 1000 + i, DstPort: 2000, SizeBytes: size}
		record := func(f Flow) {
			rec[f.ID] = flowOutcome{End: f.End, Aborted: f.Aborted, Transferred: f.Transferred, Segments: f.Segments}
		}
		spec.OnComplete = record
		spec.OnAbort = record
		eng.After(delay, func() {
			if _, err := net.StartFlow(spec); err != nil {
				t.Error(err)
			}
		})
	}
	if !chaos {
		return
	}
	nl := net.Topology().NumLinks()
	for i := 0; i < 6; i++ {
		lid := LinkID(next(nl))
		at := sim.Time(next(1_200_000_000) + 100_000_000)
		dur := sim.Time(next(500_000_000) + 50_000_000)
		eng.After(at, func() {
			if err := net.SetLinkState(lid, false); err != nil {
				t.Error(err)
			}
		})
		eng.After(at+dur, func() {
			if err := net.SetLinkState(lid, true); err != nil {
				t.Error(err)
			}
		})
	}
	for i := 0; i < 3; i++ {
		lid := LinkID(next(nl))
		at := sim.Time(next(1_200_000_000) + 100_000_000)
		dur := sim.Time(next(500_000_000) + 50_000_000)
		eng.After(at, func() {
			if err := net.SetLinkCapacityScale(lid, 0.25); err != nil {
				t.Error(err)
			}
		})
		eng.After(at+dur, func() {
			if err := net.SetLinkCapacityScale(lid, 1); err != nil {
				t.Error(err)
			}
		})
	}
	for i := 0; i < 2; i++ {
		mod := 7 + i
		at := sim.Time(next(1_500_000_000) + 200_000_000)
		eng.After(at, func() {
			net.AbortFlowsWhere(func(s FlowSpec) bool { return s.SrcPort%13 == mod })
		})
	}
}

// outcomeDigest hashes every recorded flow outcome in flow-id order —
// end time, abort flag, transferred bytes and the exact bits of every
// rate segment — followed by the network's aggregate counters.
func outcomeDigest(net *Network, rec map[uint64]flowOutcome) string {
	ids := make([]uint64, 0, len(rec))
	for id := range rec {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := sha256.New()
	var b []byte
	put := func(v uint64) {
		b = binary.LittleEndian.AppendUint64(b[:0], v)
		h.Write(b)
	}
	for _, id := range ids {
		o := rec[id]
		put(id)
		put(uint64(o.End))
		aborted := uint64(0)
		if o.Aborted {
			aborted = 1
		}
		put(aborted)
		put(uint64(o.Transferred))
		put(uint64(len(o.Segments)))
		for _, seg := range o.Segments {
			put(uint64(seg.Start))
			put(math.Float64bits(seg.RateBps))
		}
	}
	put(net.Completed())
	put(net.AbortedFlows())
	put(math.Float64bits(net.TotalBytes()))
	return hex.EncodeToString(h.Sum(nil))
}

// runChecked drains the engine one event at a time, checking VerifyState
// and the from-scratch max-min oracle after every step (both skip their
// allocation checks while a coalesced reallocation is pending), and
// requires that no flow is left stranded.
func runChecked(t *testing.T, eng *sim.Engine, net *Network) {
	t.Helper()
	steps := 0
	for eng.Step() {
		steps++
		if err := net.VerifyState(); err != nil {
			t.Fatalf("step %d: %v", steps, err)
		}
		if err := net.CheckAllocatorOracle(); err != nil {
			t.Fatalf("step %d: %v", steps, err)
		}
	}
	if net.ActiveFlows() != 0 {
		t.Fatalf("%d flows stranded after %d steps", net.ActiveFlows(), steps)
	}
}

// TestSoaMatchesPointerCore checks the flow core on plain traffic and
// under chaos schedules with aborts and re-routes: the state invariants
// and the max-min oracle hold at every settled step, and the final
// per-flow outcomes (completion times, transferred bytes, rate histories)
// match digests recorded while the pointer-per-flow reference core still
// ran in lockstep beside it and agreed bit for bit.
func TestSoaMatchesPointerCore(t *testing.T) {
	build := map[string]func() (*Topology, error){
		"star":      func() (*Topology, error) { return Star(9, Gbps) },
		"fattree":   func() (*Topology, error) { return FatTree(4, Gbps) },
		"multirack": func() (*Topology, error) { return MultiRack(3, 5, Gbps, 4*Gbps) },
	}
	cases := []struct {
		topo   string
		seed   int64
		nFlows int
		chaos  bool
		digest string
	}{
		{"star", 41, 200, false, "d3e26cce3b8aa6f3972799cfda91e28bb66b19a0a36c6b52441efe575f7ba4d5"},
		{"star", 42, 150, true, "b2e9ae2ce1820d30452e7e2bb5c0b0dfcfc6bc2bed1004dc9dfdea0d2e77cfe5"},
		{"fattree", 51, 300, false, "2e9c424f45299fc353fb69dc0b8e7bee27c132de6a1898fa277de9b6121c6052"},
		{"fattree", 52, 250, true, "fe06d6017d619fb7bca154ae561a4f61bb2972d951dde9c3da5592a0239bcb6b"},
		{"multirack", 61, 200, false, "194b3986c5e3c364b4798967e17ffaa388c805d5e1a4ce472a1785dc38463fb8"},
		{"multirack", 62, 200, true, "ce391a22c1ecb47bf3e9b56ebec8a10f5a67b3af8ef82b2decff69ae18ddc582"},
	}
	for _, tc := range cases {
		name := tc.topo
		if tc.chaos {
			name += "/chaos"
		}
		t.Run(name, func(t *testing.T) {
			topo, err := build[tc.topo]()
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.New()
			net := NewNetwork(eng, topo, Config{})
			net.AddTap(rateTap{})
			rec := make(map[uint64]flowOutcome, tc.nFlows)
			lockstepScenario(t, net, tc.seed, tc.nFlows, tc.chaos, rec)
			runChecked(t, eng, net)
			if len(rec) != tc.nFlows {
				t.Fatalf("%d of %d flows recorded an outcome", len(rec), tc.nFlows)
			}
			if got := outcomeDigest(net, rec); got != tc.digest {
				t.Errorf("outcome digest %s, want %s", got, tc.digest)
			}
		})
	}
}
