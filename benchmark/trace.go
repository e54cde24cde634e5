package main

import (
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the traced
// run began. Attrs carry the counters read from the call's telemetry.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Layer    string             `json:"layer"`
	Label    string             `json:"label,omitempty"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps the traced run's spans in memory until the run ends. A nil
// *tracer records nothing, which is how untraced passes run the same code.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	seed     int64
	spans    []span
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{t0: time.Now(), workload: workload, seed: seed}
}

// openAt starts a span at the given instant under parent and returns its
// id (0 on a nil tracer).
func (t *tracer) openAt(parent int, name, label string, at time.Time) int {
	if t == nil {
		return 0
	}
	layer := "benchmark"
	if i := strings.IndexByte(name, '.'); i >= 0 {
		layer = name[:i]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer, Label: label,
		StartNs: at.Sub(t.t0).Nanoseconds(), EndNs: -1,
		Workload: t.workload, Seed: t.seed,
	})
	return id
}

// closeAt ends span id at the given instant.
func (t *tracer) closeAt(id int, at time.Time, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = at.Sub(t.t0).Nanoseconds()
	s.Attrs = attrs
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []int64 {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := max(spans[c].StartNs, s.StartNs), min(spans[c].EndNs, s.EndNs)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, end int64
		end = s.StartNs
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// scope is where a pass records its spans: the tracer (nil when untraced)
// and the span that new calls nest under. Its methods call one public
// function of a layer each; when traced they wrap the call in a span and
// attach a fresh telemetry session through the call's public options.
type scope struct {
	tr     *tracer
	parent int
}

func (s scope) traced() bool { return s.tr != nil }

// open starts a child span now and returns the scope nested in it.
func (s scope) open(name, label string) scope {
	if s.tr == nil {
		return s
	}
	return scope{s.tr, s.tr.openAt(s.parent, name, label, time.Now())}
}

// close ends the span s was opened for.
func (s scope) close(attrs map[string]float64) { s.closeAt(time.Now(), attrs) }

// closeAt ends the span s was opened for at the given instant, so that
// attributes read after the call stay outside the span.
func (s scope) closeAt(at time.Time, attrs map[string]float64) {
	s.tr.closeAt(s.parent, at, attrs)
}

// totalAlloc reads the heap's cumulative allocation counter. It stops the
// world briefly, so only traced calls read it, and outside their spans.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func allocMB(before uint64) float64 { return float64(totalAlloc()-before) / (1 << 20) }

// jobSimSeconds is the longest simulated job of a capture — the quantity
// the stretch check bounds.
func jobSimSeconds(results []workload.RunResult) float64 {
	var longest float64
	for _, r := range results {
		for _, round := range r.Rounds {
			longest = max(longest, float64(round.Duration())/1e9)
		}
	}
	return longest
}

func netAttrs(a map[string]float64, tel *telemetry.Telemetry) {
	a["events"] = float64(tel.Sim.Events.Value())
	a["heap_depth_max"] = tel.Sim.HeapDepthMax.Value()
	a["flows_started"] = float64(tel.Net.FlowsStarted.Value())
	a["reallocs"] = float64(tel.Net.Reallocs.Value())
	a["active_flows_max"] = tel.Net.ActiveFlowsMax.Value()
	a["tcp_rto_fired"] = float64(tel.Net.TCPTimeouts.Value())
	a["tcp_fast_retransmits"] = float64(tel.Net.TCPFastRetransmits.Value())
}

func (s scope) capture(spec core.ClusterSpec, runs []workload.RunSpec) (*core.TraceSet, []workload.RunResult, error) {
	if !s.traced() {
		return core.CaptureWith(spec, runs, core.CaptureOpts{})
	}
	tel := telemetry.New()
	a0 := totalAlloc()
	c := s.open("core.capture", spec.Transport)
	ts, results, err := core.CaptureWith(spec, runs, core.CaptureOpts{Telemetry: tel})
	end := time.Now()
	a := map[string]float64{
		"blocks_written":   float64(tel.HDFS.BlocksWritten.Value()),
		"bytes_written":    float64(tel.HDFS.BytesWritten.Value()),
		"containers":       float64(tel.Yarn.ContainersGranted.Value()),
		"containers_local": float64(tel.Yarn.ContainersLocal.Value()),
		"shuffle_fetches":  float64(tel.MR.ShuffleFetches.Value()),
		"shuffle_retries":  float64(tel.MR.ShuffleRetries.Value()),
		"job_sim_s_max":    jobSimSeconds(results),
	}
	netAttrs(a, tel)
	a["alloc_mb"] = allocMB(a0)
	c.closeAt(end, a)
	return ts, results, err
}

func (s scope) replay(sched []core.SynthFlow, spec core.ClusterSpec) ([]pcap.FlowRecord, error) {
	if !s.traced() {
		recs, _, err := core.ReplayWith(sched, spec, nil)
		return recs, err
	}
	tel := telemetry.New()
	a0 := totalAlloc()
	c := s.open("core.replay", spec.Transport)
	recs, _, err := core.ReplayWith(sched, spec, tel)
	end := time.Now()
	a := map[string]float64{"alloc_mb": allocMB(a0)}
	netAttrs(a, tel)
	c.closeAt(end, a)
	return recs, err
}

func (s scope) fit(ts *core.TraceSet) (*core.Model, error) {
	var tel *telemetry.Telemetry
	if s.traced() {
		tel = telemetry.New()
	}
	c := s.open("core.fit", "")
	m, err := core.FitWith(ts, core.FitOptions{}, tel)
	c.close(nil)
	return m, err
}

// classify builds the phase-indexed dataset of every captured record and
// slices each phase's size, duration and inter-arrival series — the
// analysis the fit and validate stages stand on.
func (s scope) classify(ts *core.TraceSet) {
	records := append([]pcap.FlowRecord(nil), ts.Background...)
	for _, r := range ts.Runs {
		records = append(records, r.Records...)
	}
	c := s.open("flows.classify", "")
	ds := flows.NewDataset(records)
	for _, ph := range flows.AllPhases {
		sub := ds.ByPhase(ph)
		sub.Sizes("")
		sub.Durations("")
		sub.InterArrivals("")
	}
	c.close(map[string]float64{"records": float64(len(records))})
}

// validate compares measured and replayed traffic. When traced it records
// the fidelity of the comparison: the largest size and arrival KS over
// phases, and the largest per-job volume error.
func (s scope) validate(profile string, measured, generated []pcap.FlowRecord, measuredJobs, generatedJobs int) {
	var tel *telemetry.Telemetry
	if s.traced() {
		tel = telemetry.New()
	}
	c := s.open("core.validate", profile)
	v := core.ValidateWith(profile, measured, generated, tel)
	if s.traced() {
		a := map[string]float64{}
		for _, pc := range v.Phases {
			a["size_ks"] = max(a["size_ks"], pc.SizeKS)
			a["arrival_ks"] = max(a["arrival_ks"], pc.ArrivalKS)
			if pc.MeasuredBytes > 0 {
				meas := float64(pc.MeasuredBytes) / float64(measuredJobs)
				gen := float64(pc.GeneratedBytes) / float64(generatedJobs)
				a["volume_err"] = max(a["volume_err"], math.Abs(gen-meas)/meas)
			}
		}
		c.close(a)
	}
}

// emitFn receives one chunk of a streamed schedule.
type emitFn = func([]core.SynthFlow) error

// stream runs one chunked generator — a call of Model.GenerateChunks or
// GenerateMixChunks — and encodes every chunk with a StreamEncoder of the
// given format into w, returning the flow count. each, when non-nil, also
// sees every chunk. name is "core.generate" or "core.mix".
func (s scope) stream(name, label string, gen func(emitFn) error,
	format string, workers int, w io.Writer, each func([]core.SynthFlow)) (int64, error) {
	enc, err := core.NewStreamEncoder(format, w, workers)
	if err != nil {
		return 0, err
	}
	var a0 uint64
	if s.traced() {
		a0 = totalAlloc()
	}
	g := s.open(name, label)
	encode := func(f func() error, flows int) error {
		e := g.open("core.encode", format)
		err := f()
		e.close(map[string]float64{"flows": float64(flows)})
		return err
	}
	var flows int64
	err = encode(enc.Begin, 0)
	if err == nil {
		err = gen(func(chunk []core.SynthFlow) error {
			flows += int64(len(chunk))
			if each != nil {
				each(chunk)
			}
			return encode(func() error { return enc.Flows(chunk) }, len(chunk))
		})
	}
	if err == nil {
		err = encode(enc.End, 0)
	}
	end := time.Now()
	if s.traced() {
		g.closeAt(end, map[string]float64{"flows": float64(flows), "alloc_mb": allocMB(a0)})
	}
	return flows, err
}
