package netsim

import (
	"keddah/internal/sim"
	"keddah/internal/telemetry"
)

// UtilizationProbe samples every link's allocated rate ÷ capacity and its
// count of transferring flows (TCP flows stalled in RTO wait included)
// into a telemetry link timeline every probeInterval — the per-link time
// series a capacity-planning study plots. Create with
// NewUtilizationProbe, then Start; it stops itself when the network is
// idle and no other event is queued (and resumes if Started again).
type UtilizationProbe struct {
	net      *Network
	timeline *telemetry.LinkTimeline
	running  bool
}

// probeInterval is the link-sampling period, in simulated time.
const probeInterval sim.Time = 100_000_000

// NewUtilizationProbe probes net into tl.
func NewUtilizationProbe(net *Network, tl *telemetry.LinkTimeline) *UtilizationProbe {
	return &UtilizationProbe{net: net, timeline: tl}
}

// Start begins sampling with an immediate sample. The probe keeps
// sampling while the network has active flows or other pending events,
// so the event queue can drain once the simulation finishes.
func (p *UtilizationProbe) Start() {
	if p.running {
		return
	}
	p.running = true
	if p.tick() {
		p.net.eng.Every(probeInterval, probeInterval, p.tick)
	}
}

// tick takes one sample and reports whether to take another.
func (p *UtilizationProbe) tick() bool {
	rates := p.net.LinkRates()
	now := int64(p.net.eng.Now())
	for i, l := range p.net.topo.links {
		var util float64
		if l.CapacityBps > 0 {
			util = rates[i] / l.CapacityBps
		}
		p.timeline.Append(telemetry.LinkPoint{
			AtNs:  now,
			Link:  i,
			Util:  util,
			Flows: p.net.linkFlowCount(LinkID(i)),
		})
	}
	// The engine pops an event before running it, so this tick is no
	// longer queued: any pending event is someone else's work.
	if p.net.ActiveFlows() == 0 && p.net.eng.Pending() == 0 {
		p.running = false
		return false
	}
	return true
}
