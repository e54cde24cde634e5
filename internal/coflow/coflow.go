// Package coflow derives coflow-level statistics from captured Hadoop
// traffic. A coflow (Chowdhury & Stoica) is the set of related flows a
// job stage produces — here, each job's shuffle stage. Coflow structure
// (width, total size, skew, duration) is exactly the input coflow
// schedulers like Varys or Aalo are evaluated against; deriving it from
// Keddah captures is the kind of downstream research the toolchain's
// "reproducible Hadoop research" goal enables.
package coflow

import (
	"fmt"
	"sort"

	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/stats"
)

// Coflow summarises one job's shuffle stage.
type Coflow struct {
	// Job is the owning job label.
	Job string `json:"job"`
	// Width is the number of flows.
	Width int `json:"width"`
	// Bytes is the total size.
	Bytes int64 `json:"bytes"`
	// LongestFlowBytes is the size of the largest member flow.
	LongestFlowBytes int64 `json:"longestFlowBytes"`
	// Skew is LongestFlowBytes ÷ mean flow size (1 = perfectly even).
	Skew float64 `json:"skew"`
	// StartNs / EndNs bound the stage (first flow start, last flow end).
	StartNs int64 `json:"startNs"`
	EndNs   int64 `json:"endNs"`
	// Senders / Receivers count the distinct endpoints.
	Senders   int `json:"senders"`
	Receivers int `json:"receivers"`
}

// DurationSeconds is the coflow completion time (CCT) in seconds.
func (c Coflow) DurationSeconds() float64 { return float64(c.EndNs-c.StartNs) / 1e9 }

// FromRecords extracts one Coflow per job from labelled flow records:
// the job's shuffle-phase flows grouped by label prefix. Jobs without
// shuffle traffic (map-only) yield no coflow.
func FromRecords(records []pcap.FlowRecord) []Coflow {
	groups := flows.GroupByJob(records)
	keys := flows.JobKeys(groups)
	out := make([]Coflow, 0, len(keys))
	for _, job := range keys {
		ds := flows.NewDataset(groups[job]).ByPhase(flows.PhaseShuffle)
		if ds.Len() == 0 {
			continue
		}
		c := Coflow{Job: job, Width: ds.Len()}
		senders := map[pcap.Addr]bool{}
		receivers := map[pcap.Addr]bool{}
		c.StartNs, c.EndNs = flows.Span(ds.Records)
		for _, r := range ds.Records {
			c.Bytes += r.Bytes
			if r.Bytes > c.LongestFlowBytes {
				c.LongestFlowBytes = r.Bytes
			}
			senders[r.Key.Src] = true
			receivers[r.Key.Dst] = true
		}
		c.Senders = len(senders)
		c.Receivers = len(receivers)
		if c.Width > 0 && c.Bytes > 0 {
			mean := float64(c.Bytes) / float64(c.Width)
			c.Skew = float64(c.LongestFlowBytes) / mean
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// Population summarises a set of coflows the way coflow-scheduling papers
// characterise workloads: distributions of width, size and skew.
type Population struct {
	Count    int           `json:"count"`
	Width    stats.Summary `json:"width"`
	Bytes    stats.Summary `json:"bytes"`
	Skew     stats.Summary `json:"skew"`
	Duration stats.Summary `json:"duration"`
}

// Describe computes population statistics over coflows. An empty
// population returns stats.ErrEmptySample.
func Describe(cfs []Coflow) (Population, error) {
	widths := make([]float64, len(cfs))
	sizes := make([]float64, len(cfs))
	skews := make([]float64, len(cfs))
	durs := make([]float64, len(cfs))
	for i, c := range cfs {
		widths[i] = float64(c.Width)
		sizes[i] = float64(c.Bytes)
		skews[i] = c.Skew
		durs[i] = c.DurationSeconds()
	}
	p := Population{Count: len(cfs)}
	var err error
	if p.Width, err = stats.NewSampleOwned(widths).Describe(); err != nil {
		return p, err
	}
	if p.Bytes, err = stats.NewSampleOwned(sizes).Describe(); err != nil {
		return p, err
	}
	if p.Skew, err = stats.NewSampleOwned(skews).Describe(); err != nil {
		return p, err
	}
	if p.Duration, err = stats.NewSampleOwned(durs).Describe(); err != nil {
		return p, err
	}
	return p, nil
}

// BottleneckSender returns the sender address carrying the most bytes in
// the coflow's records and its share of the total — the "alpha" port a
// coflow scheduler would pace against. It returns an error when the
// coflow's records are not supplied or contain no shuffle flows.
func BottleneckSender(c Coflow, records []pcap.FlowRecord) (pcap.Addr, float64, error) {
	perSender := map[pcap.Addr]int64{}
	var total int64
	for _, r := range records {
		if flows.Classify(r) != flows.PhaseShuffle {
			continue
		}
		if flows.JobKey(r.Label) != c.Job {
			continue
		}
		perSender[r.Key.Src] += r.Bytes
		total += r.Bytes
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("coflow: no shuffle records for job %s", c.Job)
	}
	var best pcap.Addr
	var bestBytes int64 = -1
	// Deterministic argmax: highest bytes, lowest address on ties.
	addrs := make([]pcap.Addr, 0, len(perSender))
	for a := range perSender {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		if perSender[a] > bestBytes {
			best, bestBytes = a, perSender[a]
		}
	}
	return best, float64(bestBytes) / float64(total), nil
}
