package netsim

import (
	"keddah/internal/sim"
	"keddah/internal/telemetry"
)

// UtilSample is one utilization observation of a link set.
type UtilSample struct {
	AtNs int64
	// Utilization is allocated-rate ÷ capacity per probed link, in the
	// order the probe was configured with.
	Utilization []float64
}

// UtilizationProbe samples the allocated rate of selected links at a
// fixed period — the per-link time series a capacity-planning study
// plots. Create with NewUtilizationProbe, then Start; it stops itself
// when the network goes idle (and resumes if Started again).
type UtilizationProbe struct {
	net      *Network
	links    []LinkID
	interval sim.Time
	samples  []UtilSample
	running  bool
	timeline *telemetry.LinkTimeline
}

// AttachTimeline mirrors every sample into a telemetry link timeline
// (utilisation plus the per-link count of transferring flows, TCP flows
// stalled in RTO wait included). Pass nil to detach.
func (p *UtilizationProbe) AttachTimeline(tl *telemetry.LinkTimeline) { p.timeline = tl }

// NewUtilizationProbe probes the given links every interval. An empty
// link list probes every link.
func NewUtilizationProbe(net *Network, links []LinkID, interval sim.Time) *UtilizationProbe {
	if len(links) == 0 {
		for i := range net.topo.links {
			links = append(links, LinkID(i))
		}
	}
	ls := make([]LinkID, len(links))
	copy(ls, links)
	if interval <= 0 {
		interval = 100_000_000 // 100 ms
	}
	return &UtilizationProbe{net: net, links: ls, interval: interval}
}

// Start begins sampling. The probe re-arms itself while the network has
// active flows or pending events beyond its own tick, so the event queue
// can drain once the simulation finishes.
func (p *UtilizationProbe) Start() {
	if p.running {
		return
	}
	p.running = true
	p.tick()
}

func (p *UtilizationProbe) tick() {
	rates := p.net.LinkRates()
	sample := UtilSample{AtNs: int64(p.net.eng.Now()), Utilization: make([]float64, len(p.links))}
	for i, lid := range p.links {
		capBps := p.net.topo.links[lid].CapacityBps
		if capBps > 0 {
			sample.Utilization[i] = rates[lid] / capBps
		}
	}
	p.samples = append(p.samples, sample)
	if p.timeline != nil {
		for i, lid := range p.links {
			p.timeline.Append(telemetry.LinkPoint{
				AtNs:  sample.AtNs,
				Link:  int(lid),
				Util:  sample.Utilization[i],
				Flows: p.net.linkFlowCount(lid),
			})
		}
	}
	if p.net.ActiveFlows() == 0 && p.net.eng.Pending() <= 1 {
		p.running = false
		return
	}
	p.net.eng.After(p.interval, func() { p.tick() })
}

// Samples returns the collected series (read-only view).
func (p *UtilizationProbe) Samples() []UtilSample { return p.samples }

// Links returns the probed link ids.
func (p *UtilizationProbe) Links() []LinkID {
	out := make([]LinkID, len(p.links))
	copy(out, p.links)
	return out
}

// PeakUtilization returns, per probed link, the maximum observed
// utilization across all samples.
func (p *UtilizationProbe) PeakUtilization() []float64 {
	peaks := make([]float64, len(p.links))
	for _, s := range p.samples {
		for i, u := range s.Utilization {
			if u > peaks[i] {
				peaks[i] = u
			}
		}
	}
	return peaks
}

// MeanUtilization returns, per probed link, the time-average observed
// utilization (simple sample mean).
func (p *UtilizationProbe) MeanUtilization() []float64 {
	means := make([]float64, len(p.links))
	if len(p.samples) == 0 {
		return means
	}
	for _, s := range p.samples {
		for i, u := range s.Utilization {
			means[i] += u
		}
	}
	for i := range means {
		means[i] /= float64(len(p.samples))
	}
	return means
}

// BusyFraction returns, per probed link, the fraction of samples with
// utilization at or above the threshold (e.g. 0.95 = saturated time).
func (p *UtilizationProbe) BusyFraction(threshold float64) []float64 {
	out := make([]float64, len(p.links))
	if len(p.samples) == 0 {
		return out
	}
	for _, s := range p.samples {
		for i, u := range s.Utilization {
			if u >= threshold {
				out[i]++
			}
		}
	}
	for i := range out {
		out[i] /= float64(len(p.samples))
	}
	return out
}
