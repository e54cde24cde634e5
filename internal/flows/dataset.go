package flows

import (
	"slices"
	"strings"
	"sync"

	"keddah/internal/pcap"
	"keddah/internal/stats"
)

// Dataset is an ordered collection of flow records with cached phase
// classification. It is the unit Keddah's modelling stage consumes.
// Classification runs exactly once, at construction, into one exact-size
// phase index: every record index, grouped by phase in slot order
// (AllPhases, then PhaseOther) and in record order within a phase. Every
// per-phase view — ByPhase, Sizes, Durations, InterArrivals, Volume,
// Count, PhaseSpan — is one scan of a phase's run of that index, and the
// phase "" (all phases) is the whole index.
type Dataset struct {
	Records []pcap.FlowRecord
	order   []int32
	bounds  [numSlots + 1]int32 // slot s owns order[bounds[s]:bounds[s+1]]
}

// NewDataset classifies every record once and returns the dataset. The
// dataset takes ownership of records, which becomes its Records: it is
// not copied, so the caller must not modify it afterwards.
func NewDataset(records []pcap.FlowRecord) *Dataset {
	d := &Dataset{Records: records}
	slots := make([]uint8, len(records))
	for i := range records {
		s := classifySlot(records[i])
		slots[i] = s
		d.bounds[s+1]++
	}
	for s := range numSlots {
		d.bounds[s+1] += d.bounds[s]
	}
	next := d.bounds
	d.order = make([]int32, len(records))
	for i, s := range slots {
		d.order[next[s]] = int32(i)
		next[s]++
	}
	return d
}

// ids returns the record indices of phase p in record order, every index
// (grouped by phase) when p is empty, and none for an unknown phase.
func (d *Dataset) ids(p Phase) []int32 {
	if p == "" {
		return d.order
	}
	s, ok := slotOf(p)
	if !ok {
		return nil
	}
	return d.order[d.bounds[s]:d.bounds[s+1]]
}

// Len returns the record count.
func (d *Dataset) Len() int { return len(d.Records) }

// ByPhase returns the sub-dataset of phase p (all records, grouped by
// phase, if p is empty). Its index is read off this one, so nothing is
// classified again.
func (d *Dataset) ByPhase(p Phase) *Dataset {
	ids := d.ids(p)
	n := int32(len(ids))
	sub := &Dataset{Records: make([]pcap.FlowRecord, n), order: make([]int32, n)}
	for i, id := range ids {
		sub.Records[i] = d.Records[id]
		sub.order[i] = int32(i)
	}
	if p == "" {
		sub.bounds = d.bounds
	} else if s, ok := slotOf(p); ok {
		for j := s + 1; j <= numSlots; j++ {
			sub.bounds[j] = n
		}
	}
	return sub
}

// Sizes returns the per-flow byte counts of records in phase p
// (all phases if p is empty).
func (d *Dataset) Sizes(p Phase) []float64 {
	ids := d.ids(p)
	if len(ids) == 0 {
		return nil
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(d.Records[id].Bytes)
	}
	return out
}

// SizeSample returns the per-flow byte counts of phase p as a sorted
// stats.Sample, ready for fitting and goodness-of-fit without further
// copying. Each call builds (and sorts) a fresh sample.
func (d *Dataset) SizeSample(p Phase) *stats.Sample {
	return stats.NewSampleOwned(d.Sizes(p))
}

// Durations returns per-flow durations in seconds for phase p.
func (d *Dataset) Durations(p Phase) []float64 {
	ids := d.ids(p)
	if len(ids) == 0 {
		return nil
	}
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = float64(d.Records[id].DurationNs()) / 1e9
	}
	return out
}

// DurationSample returns the per-flow durations of phase p as a fresh
// sorted stats.Sample.
func (d *Dataset) DurationSample(p Phase) *stats.Sample {
	return stats.NewSampleOwned(d.Durations(p))
}

// InterArrivals returns successive flow start gaps in seconds for phase p,
// ordered by start time.
func (d *Dataset) InterArrivals(p Phase) []float64 {
	buf := startBufs.Get().(*[]int64)
	defer putStarts(buf)
	starts := (*buf)[:0]
	for _, id := range d.ids(p) {
		starts = append(starts, d.Records[id].FirstNs)
	}
	*buf = starts
	slices.Sort(starts)
	if len(starts) < 2 {
		return nil
	}
	out := make([]float64, 0, len(starts)-1)
	for i := 1; i < len(starts); i++ {
		out = append(out, float64(starts[i]-starts[i-1])/1e9)
	}
	return out
}

// startBufs recycles the start-time scratch InterArrivals sorts, so a
// fit pays only for the gaps it keeps.
var startBufs = sync.Pool{New: func() any { return new([]int64) }}

// putStarts returns buf to startBufs unless it outgrew maxPooledStarts
// values: as fmt does with its printers, a large buffer is left to the
// GC, so that one large dataset does not pin its scratch for the
// process's life.
func putStarts(buf *[]int64) {
	if cap(*buf) <= maxPooledStarts {
		startBufs.Put(buf)
	}
}

const maxPooledStarts = 8 << 10

// InterArrivalSample returns the inter-arrival gaps of phase p as a
// fresh sorted stats.Sample.
func (d *Dataset) InterArrivalSample(p Phase) *stats.Sample {
	return stats.NewSampleOwned(d.InterArrivals(p))
}

// Volume sums bytes over phase p (all records if p is empty).
func (d *Dataset) Volume(p Phase) int64 {
	var total int64
	for _, id := range d.ids(p) {
		total += d.Records[id].Bytes
	}
	return total
}

// Count returns the number of flows in phase p (all if empty).
func (d *Dataset) Count(p Phase) int { return len(d.ids(p)) }

// Span returns the first start and last end timestamps (ns) of records;
// zeroes when there are none. It reads the records alone, so a caller
// that needs only the span classifies nothing.
func Span(records []pcap.FlowRecord) (firstNs, lastNs int64) {
	if len(records) == 0 {
		return 0, 0
	}
	firstNs, lastNs = records[0].FirstNs, records[0].LastNs
	for _, r := range records[1:] {
		if r.FirstNs < firstNs {
			firstNs = r.FirstNs
		}
		if r.LastNs > lastNs {
			lastNs = r.LastNs
		}
	}
	return firstNs, lastNs
}

// PhaseSpan returns the first start and last end timestamps (ns) of the
// records in phase p (all records if p is empty), read off the phase
// index without materializing a sub-dataset; zeroes when there are none.
func (d *Dataset) PhaseSpan(p Phase) (firstNs, lastNs int64) {
	ids := d.ids(p)
	if len(ids) == 0 {
		return 0, 0
	}
	firstNs, lastNs = d.Records[ids[0]].FirstNs, d.Records[ids[0]].LastNs
	for _, id := range ids[1:] {
		r := &d.Records[id]
		if r.FirstNs < firstNs {
			firstNs = r.FirstNs
		}
		if r.LastNs > lastNs {
			lastNs = r.LastNs
		}
	}
	return firstNs, lastNs
}

// GroupByJob splits ground-truth-labelled records on the "<job>/" label
// prefix (e.g. "job3/shuffle" → key "job3"). Unlabelled records land under
// the empty key — callers decide whether that bucket matters. Each group
// keeps the records' order and is allocated at its exact size: one pass
// counts the groups, a second fills them. Nothing is classified; a caller
// that wants a group's phases hands it to NewDataset.
func GroupByJob(records []pcap.FlowRecord) map[string][]pcap.FlowRecord {
	ids := make(map[string]int)
	var counts []int
	for i := range records {
		key := JobKey(records[i].Label)
		g, ok := ids[key]
		if !ok {
			g = len(counts)
			ids[key] = g
			counts = append(counts, 0)
		}
		counts[g]++
	}
	groups := make([][]pcap.FlowRecord, len(counts))
	for g, n := range counts {
		groups[g] = make([]pcap.FlowRecord, 0, n)
	}
	for i := range records {
		g := ids[JobKey(records[i].Label)]
		groups[g] = append(groups[g], records[i])
	}
	out := make(map[string][]pcap.FlowRecord, len(ids))
	for key, g := range ids {
		out[key] = groups[g]
	}
	return out
}

// JobKey is the job part of a "<job>/<what>" label, "" for a label
// without one.
func JobKey(label string) string {
	if i := strings.IndexByte(label, '/'); i >= 0 {
		return label[:i]
	}
	return ""
}

// JobKeys returns the sorted non-empty job keys of a GroupByJob result.
func JobKeys(groups map[string][]pcap.FlowRecord) []string {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		if k != "" {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}
