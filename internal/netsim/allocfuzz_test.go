package netsim

import (
	"math"
	"slices"
	"testing"

	"keddah/internal/sim"
)

// FuzzMaxMinFill pins maxMinFill bit for bit to refFluidRates and
// refTCPRates, progressive filling without any of its shortcuts: every
// round scans every link, sorts the bottleneck's candidates into
// active-list order, and (TCP) rescans every flow for one that is
// demand-limited. An op script drives a real Network —
// equal-capacity stars where share ties are the norm, a fat-tree with
// multipath reroutes, an oversubscribed multi-rack fabric — through flow
// starts, partial event processing, aborts in arbitrary order, link
// failures, repairs and capacity changes. At every settled step the rate
// vector the allocator installed must equal the reference's bit for bit,
// and a probe with an arbitrary demand vector (zeros, +Inf and repeated
// values included) must agree with refTCPRates on the live flow set.
func FuzzMaxMinFill(f *testing.F) {
	f.Add(uint8(0), false, []byte{0, 1, 0, 9, 0, 17, 0, 33, 5, 3, 1, 8, 2, 1, 1, 31, 5, 200})
	f.Add(uint8(1), false, []byte{0, 3, 0, 70, 0, 140, 0, 211, 3, 5, 1, 4, 5, 9, 4, 5, 1, 30})
	f.Add(uint8(2), true, []byte{0, 2, 0, 5, 0, 13, 1, 20, 5, 7, 6, 1, 1, 31, 2, 0, 5, 91})
	f.Add(uint8(0), true, []byte{0, 0, 0, 8, 0, 16, 0, 24, 1, 31, 3, 1, 1, 31, 5, 4, 4, 1})
	f.Fuzz(func(t *testing.T, fabric uint8, tcp bool, ops []byte) {
		if len(ops) > 256 {
			t.Skip()
		}
		var (
			topo *Topology
			err  error
		)
		switch fabric % 3 {
		case 0:
			topo, err = Star(8, Gbps)
		case 1:
			topo, err = FatTree(4, Gbps)
		case 2:
			topo, err = MultiRack(3, 4, Gbps, 2*Gbps)
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{}
		if tcp {
			cfg.Transport = "tcp"
		}
		eng := sim.New()
		eng.MaxEvents = 2_000_000
		net := NewNetwork(eng, topo, cfg)
		hosts := topo.Hosts()
		nl := topo.NumLinks()

		check := func(where int) {
			t.Helper()
			if err := net.VerifyState(); err != nil {
				t.Fatalf("op %d: %v", where, err)
			}
			if net.reallocPending || len(net.active) == 0 {
				return
			}
			var want []float64
			if net.tcp != nil {
				want = refTCPRates(net, net.tcp.demand)
			} else {
				want = refFluidRates(net)
			}
			assertSameBits(t, where, "installed", net.rates, want)
		}

		var ports []int // SrcPort of every flow started, unique per flow
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 7 {
			case 0: // start a flow; sizes spread so completions reorder
				src := hosts[arg%len(hosts)]
				dst := hosts[(arg/len(hosts)+1+arg)%len(hosts)]
				if _, err := net.StartFlow(FlowSpec{
					Src: src, Dst: dst, SrcPort: 1000 + i, DstPort: 80,
					SizeBytes: int64(arg%13+1) * 48 << 10,
				}); err != nil {
					t.Fatal(err)
				}
				ports = append(ports, 1000+i)
			case 1: // process a bounded number of events, checking each
				for j := 0; j <= arg%32 && eng.Step(); j++ {
					check(i)
				}
			case 2: // abort an arbitrary past flow by its port (finished ones are no-ops)
				if len(ports) > 0 {
					port := ports[arg%len(ports)]
					net.AbortFlowsWhere(func(s FlowSpec) bool { return s.SrcPort == port })
				}
			case 3: // fail a link: victims reroute or abort
				if err := net.SetLinkState(LinkID(arg%nl), false); err != nil {
					t.Fatal(err)
				}
			case 4: // repair a link
				if err := net.SetLinkState(LinkID(arg%nl), true); err != nil {
					t.Fatal(err)
				}
			case 5: // probe the live flow set with an arbitrary demand vector
				probeDemand(t, i, net, uint64(arg))
			case 6: // rescale a link's capacity (1, 1/2 or 1/4)
				if err := net.SetLinkCapacityScale(LinkID(arg%nl), 1/float64(int(1)<<(arg%3))); err != nil {
					t.Fatal(err)
				}
			}
			check(i)
		}
		for lid := 0; lid < nl; lid++ {
			_ = net.SetLinkState(LinkID(lid), true)
		}
		for eng.Step() {
			check(len(ops))
		}
		if net.ActiveFlows() != 0 {
			t.Fatalf("%d flows wedged active after drain", net.ActiveFlows())
		}
	})
}

// probeDemand runs maxMinFill on the live flow set under a demand vector
// drawn from a small palette (so repeats are common) and compares it with
// refTCPRates, then restores the installed rate vector.
func probeDemand(t *testing.T, where int, c *Network, seed uint64) {
	t.Helper()
	nf := len(c.active)
	if nf == 0 {
		return
	}
	palette := [...]float64{0, math.Inf(1), 1e8, 1e8, 2.5e8, 1e9 / 3, 5e8, 1e9, 2e9}
	demand := make([]float64, len(c.fid))
	state := seed*2862933555777941757 + 3037000493
	for _, s := range c.active {
		state = state*6364136223846793005 + 1442695040888963407
		demand[s] = palette[(state>>33)%uint64(len(palette))]
	}
	saved := slices.Clone(c.rates)
	want := refTCPRates(c, demand)
	c.resetScratch(nf)
	c.maxMinFill(demand)
	assertSameBits(t, where, "demand probe", c.rates, want)
	c.rates = append(c.rates[:0], saved...)
}

func assertSameBits(t *testing.T, where int, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("op %d %s: %d rates, reference has %d", where, what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("op %d %s: flow at position %d rate %v (%#x), reference %v (%#x)",
				where, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// refState is the reference loops' private scratch: every array is fresh,
// so nothing is shared with the allocator under test.
type refState struct {
	c      *Network
	remCap []float64
	cnt    []int
	rates  []float64
	frozen []bool
}

// newRefState starts every link at full capacity and its index length.
func newRefState(c *Network) *refState {
	r := &refState{
		c:      c,
		remCap: make([]float64, len(c.topo.links)),
		cnt:    make([]int, len(c.topo.links)),
		rates:  make([]float64, len(c.active)),
		frozen: make([]bool, len(c.active)),
	}
	for i, l := range c.topo.links {
		r.remCap[i] = l.CapacityBps
		r.cnt[i] = len(c.linkFlows[i])
	}
	return r
}

// pickBottleneck scans every link in LinkID order for the smallest fair
// share, strict < so the lowest id wins ties.
func (r *refState) pickBottleneck() (int, float64) {
	best := -1
	bestShare := math.Inf(1)
	for i, cn := range r.cnt {
		if cn == 0 {
			continue
		}
		share := r.remCap[i] / float64(cn)
		if share < bestShare {
			bestShare = share
			best = i
		}
	}
	return best, bestShare
}

// freezeBottleneck collects the bottleneck's unfrozen flows, sorts them
// into active-list order and freezes them at share.
func (r *refState) freezeBottleneck(best int, share float64, remaining *int) {
	c := r.c
	var cand []int32
	for _, s := range c.linkFlows[best] {
		if !r.frozen[c.listIdx[s]] {
			cand = append(cand, s)
		}
	}
	slices.SortFunc(cand, func(a, b int32) int {
		return int(c.listIdx[a]) - int(c.listIdx[b])
	})
	for _, s := range cand {
		r.freeze(c.listIdx[s], s, share, remaining)
	}
}

func (r *refState) freeze(li, s int32, rate float64, remaining *int) {
	r.rates[li] = rate
	r.frozen[li] = true
	*remaining--
	for _, lid := range r.c.path(s) {
		r.remCap[lid] -= rate
		if r.remCap[lid] < 0 {
			r.remCap[lid] = 0
		}
		r.cnt[lid]--
	}
}

// refFluidRates is uncapped progressive filling, with stranded flows at
// the loopback rate.
func refFluidRates(c *Network) []float64 {
	r := newRefState(c)
	remaining := len(c.active)
	for remaining > 0 {
		best, share := r.pickBottleneck()
		if best < 0 {
			for i := range r.frozen {
				if !r.frozen[i] {
					r.rates[i] = loopbackBps
					r.frozen[i] = true
					remaining--
				}
			}
			break
		}
		r.freezeBottleneck(best, share, &remaining)
	}
	return r.rates
}

// refTCPRates is demand-capped progressive filling: zero-demand flows
// freeze at 0 up front, and every round first rescans all flows for one
// whose demand fits under the fair share before freezing the bottleneck.
func refTCPRates(c *Network, demand []float64) []float64 {
	r := newRefState(c)
	remaining := len(c.active)
	for i, s := range c.active {
		if demand[s] <= 0 {
			r.rates[i] = 0
			r.frozen[i] = true
			remaining--
			for _, lid := range c.path(s) {
				r.cnt[lid]--
			}
		}
	}
	for remaining > 0 {
		best, share := r.pickBottleneck()
		if best < 0 {
			for i, s := range c.active {
				if !r.frozen[i] {
					r.rates[i] = demand[s]
					r.frozen[i] = true
					remaining--
				}
			}
			break
		}
		froze := false
		for i, s := range c.active {
			if r.frozen[i] || demand[s] > share {
				continue
			}
			r.freeze(int32(i), s, demand[s], &remaining)
			froze = true
		}
		if froze {
			continue
		}
		r.freezeBottleneck(best, share, &remaining)
	}
	return r.rates
}
