package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// LinkPoint is one sample of one link's state.
type LinkPoint struct {
	AtNs  int64   `json:"atNs"`
	Link  int     `json:"link"`
	Util  float64 `json:"util"`  // allocated rate / capacity
	Flows int     `json:"flows"` // flows currently crossing the link
}

// LinkTimeline is the per-link utilisation/queue time series sampled
// from netsim. Samples arrive in simulated-time order from a single
// capture's probe; the mutex makes concurrent use safe anyway.
type LinkTimeline struct {
	mu     sync.Mutex
	points []LinkPoint
}

// NewLinkTimeline returns an empty timeline.
func NewLinkTimeline() *LinkTimeline { return &LinkTimeline{} }

// Append records one sample. Safe on a nil timeline.
func (t *LinkTimeline) Append(p LinkPoint) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.points = append(t.points, p)
	t.mu.Unlock()
}

// Points returns a copy of the collected samples.
func (t *LinkTimeline) Points() []LinkPoint {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]LinkPoint, len(t.points))
	copy(out, t.points)
	return out
}

// WriteCSV writes the timeline as at_ns,link,util,flows rows.
func (t *LinkTimeline) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_ns", "link", "util", "flows"}); err != nil {
		return err
	}
	for _, p := range t.Points() {
		rec := []string{
			strconv.FormatInt(p.AtNs, 10),
			strconv.Itoa(p.Link),
			fmt.Sprintf("%.6f", p.Util),
			strconv.Itoa(p.Flows),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
