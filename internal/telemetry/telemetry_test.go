package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// Every instrument method must be a no-op on a nil receiver — that IS
// the disabled path every layer takes when telemetry is not attached.
func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(2)
	g.SetMax(3)
	if g.Value() != 0 {
		t.Error("nil gauge value")
	}
	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 {
		t.Error("nil histogram count")
	}
	var tr *Tracer
	tr.Add(Span{Cat: "x"})
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer not empty")
	}
	var tl *LinkTimeline
	tl.Append(LinkPoint{})
	if tl.Points() != nil {
		t.Error("nil timeline not empty")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Error("nil registry returned instruments")
	}
	if s := r.Snapshot(false); len(s.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var tel *Telemetry
	if s := tel.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil telemetry snapshot not empty")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("keddah_test_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same instrument.
	if r.Counter("keddah_test_total", "help") != c {
		t.Error("re-registration returned a new counter")
	}
	g := r.Gauge("keddah_test_gauge", "help")
	g.Set(2)
	g.Add(0.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %v", g.Value())
	}
	g.SetMax(1) // below current: no change
	if g.Value() != 2.5 {
		t.Errorf("SetMax lowered the gauge to %v", g.Value())
	}
	g.SetMax(7)
	if g.Value() != 7 {
		t.Errorf("SetMax = %v, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("keddah_test_bytes", "help", []float64{10, 100})
	for _, v := range []int64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	s := r.Snapshot(false)
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(s.Histograms))
	}
	hp := s.Histograms[0]
	if hp.Sum != 1022 {
		t.Errorf("sum = %d", hp.Sum)
	}
	// Cumulative: le=10 holds {1,10}, le=100 adds {11}, +Inf adds {1000}.
	wantCum := []int64{2, 3, 4}
	for i, b := range hp.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if hp.Buckets[2].LE != math.MaxFloat64 {
		t.Errorf("last bucket LE = %v, want +Inf sentinel", hp.Buckets[2].LE)
	}
}

func TestSnapshotExcludesVolatileGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("keddah_stable", "").Set(1)
	r.VolatileGauge("keddah_wall_ms", "").Set(123)
	det := r.Snapshot(false)
	if len(det.Gauges) != 1 || det.Gauges[0].Name != "keddah_stable" {
		t.Errorf("deterministic snapshot gauges = %+v", det.Gauges)
	}
	full := r.Snapshot(true)
	if len(full.Gauges) != 2 {
		t.Errorf("full snapshot gauges = %+v", full.Gauges)
	}
}

func TestLabelsSortedAndSnapshotOrdered(t *testing.T) {
	r := NewRegistry()
	// Labels in any registration order render identically.
	a := r.Counter("keddah_l_total", "", "b", "2", "a", "1")
	b := r.Counter("keddah_l_total", "", "a", "1", "b", "2")
	if a != b {
		t.Error("label order created distinct instruments")
	}
	r.Counter("keddah_z_total", "").Inc()
	r.Counter("keddah_a_total", "").Inc()
	s := r.Snapshot(false)
	for i := 1; i < len(s.Counters); i++ {
		prev, cur := s.Counters[i-1], s.Counters[i]
		if prev.Name > cur.Name || (prev.Name == cur.Name && prev.Labels > cur.Labels) {
			t.Fatalf("snapshot not sorted: %v before %v", prev, cur)
		}
	}
}

func TestTracerSortsAndBounds(t *testing.T) {
	tr := NewTracer(2)
	tr.Add(Span{Cat: "b", Name: "y", StartNs: 10, EndNs: 20})
	tr.Add(Span{Cat: "a", Name: "x", StartNs: 5, EndNs: 7})
	tr.Add(Span{Cat: "c", Name: "z", StartNs: 1, EndNs: 2}) // over the limit
	spans := tr.Spans()
	if len(spans) != 2 || tr.Dropped() != 1 {
		t.Fatalf("spans = %d dropped = %d", len(spans), tr.Dropped())
	}
	if spans[0].StartNs != 5 || spans[1].StartNs != 10 {
		t.Errorf("spans not time-sorted: %+v", spans)
	}
}

func TestSpanCSVEscapesAttrs(t *testing.T) {
	tr := NewTracer(0)
	tr.Add(Span{Cat: "mr", Name: "job", Attr: `with,comma "q"`, StartNs: 1, EndNs: 2})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "cat,name,attr,start_ns,end_ns,duration_ns" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], `"with,comma ""q"""`) {
		t.Errorf("attr not CSV-escaped: %q", lines[1])
	}
}

// TestWriteJSONDeterministicUnderConcurrency drives a full catalog from
// many goroutines and checks that identical update sets produce
// byte-identical JSON snapshots.
func TestWriteJSONDeterministicUnderConcurrency(t *testing.T) {
	render := func() []byte {
		tel := New()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					tel.Sim.Events.Inc()
					tel.Net.FlowBytes.Observe(int64(i))
					tel.Net.ActiveFlowsMax.SetMax(float64(i))
					tel.Fault.Injected("linkDown").Inc()
					tel.Core.CaptureWallMs.Add(1.5) // volatile: must not affect JSON
				}
			}(w)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := tel.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("same updates produced different JSON snapshots")
	}
	if bytes.Contains(a, []byte("wall_ms")) {
		t.Error("volatile gauge leaked into the JSON snapshot")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	tel := New()
	tel.MR.JobsCompleted.Inc()
	tel.Fault.Injected("nodeCrash").Add(3)
	tel.Core.CaptureWallMs.Set(12.5)
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE keddah_mr_jobs_completed_total counter",
		"keddah_mr_jobs_completed_total 1",
		`keddah_faults_injected_total{kind="nodeCrash"} 3`,
		"keddah_core_capture_wall_ms 12.5", // volatile gauges ARE in Prometheus output
		"# TYPE keddah_net_flow_bytes histogram",
		`keddah_net_flow_bytes_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

func TestLinkTimelineCSV(t *testing.T) {
	tl := NewLinkTimeline()
	tl.Append(LinkPoint{AtNs: 100, Link: 3, Util: 0.5, Flows: 2})
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "at_ns,link,util,flows\n100,3,0.500000,2\n"
	if buf.String() != want {
		t.Errorf("timeline CSV = %q, want %q", buf.String(), want)
	}
}

func TestUnknownFaultKindIsNoOp(t *testing.T) {
	tel := New()
	tel.Fault.Injected("notAKind").Inc() // nil counter: must not panic
	tel.Fault.Healed("notAKind").Inc()
	if got := tel.Fault.Injected("linkDown").Value(); got != 0 {
		t.Errorf("known kind polluted: %d", got)
	}
}
