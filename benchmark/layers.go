package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"keddah/internal/netsim"
	"keddah/internal/sim"
)

// tracedRun makes the run's one traced pass and returns its spans. It has
// three phases under a root span "run": a traced set-up ("setup"), one
// traced operation — a quarter of the open loop for serve-stream — on
// that set-up ("pass"), and a layer sweep ("sweep") that runs every
// workload at tiny scale plus the netsim fan-in probes, so that every
// layer a workload never calls still yields a measured per-layer metric.
func tracedRun(cfg config, e *env, def workloadDef, inst instance, chk *checker, untracedCPUMs float64) ([]span, error) {
	tr := newTracer(def.name, cfg.seed)
	root := scope{tr: tr}.open("run", "")

	sg := root.open("setup", "")
	st, err := inst.setup(sg, e)
	sg.close(nil)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pg := root.open("pass", "")
	m, err := st.measure(pg, budget{cfg.seconds * inst.tracedLen, 1}, chk)
	end := time.Now()
	st.close()
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	runtime.ReadMemStats(&after)
	pg.closeAt(end, map[string]float64{
		"gc_cycles":    float64(after.NumGC - before.NumGC),
		"gc_pause_ms":  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		"overhead_pct": (median(m.cpuMs) - untracedCPUMs) / untracedCPUMs * 100,
	})

	wg := root.open("sweep", "")
	for _, w := range workloads {
		small, err := w.at(tiny).setup(wg, e)
		if err != nil {
			return nil, fmt.Errorf("sweep %s set-up: %w", w.name, err)
		}
		_, err = small.measure(wg, budget{0, 1}, chk)
		small.close()
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", w.name, err)
		}
	}
	for _, transport := range []string{"fluid", "tcp"} {
		if err := fanIn(wg, transport, chk); err != nil {
			return nil, err
		}
	}
	wg.close(nil)
	root.close(nil)

	spans := tr.snapshot()
	var selfSum int64
	for _, s := range selfTimes(spans) {
		selfSum += s
	}
	wall := spans[0].dur()
	chk.check(math.Abs(float64(selfSum-wall)) <= 0.1*float64(wall),
		"span self times sum to %.3fs, traced run took %.3fs", float64(selfSum)/1e9, float64(wall)/1e9)
	return spans, nil
}

// fanIn drives 512 flows converging on 16 hosts of a Star(17) through
// netsim and sim directly, with no hadoop above them.
func fanIn(sc scope, transport string, chk *checker) error {
	c := sc.open("netsim.fanin", transport)
	topo, err := netsim.Star(17, netsim.Gbps)
	if err != nil {
		return err
	}
	eng := sim.New()
	net := netsim.NewNetwork(eng, topo, netsim.Config{Transport: transport})
	h := topo.Hosts()
	var startErr error
	for f := 0; f < 512; f++ {
		spec := netsim.FlowSpec{Src: h[f%16], Dst: h[(f+1)%16+1], SrcPort: f, DstPort: 80, SizeBytes: 10 << 20}
		eng.After(sim.Time(f)*1_000_000, func() {
			if _, err := net.StartFlow(spec); err != nil && startErr == nil {
				startErr = err
			}
		})
	}
	if _, err := eng.RunAll(); err != nil {
		return fmt.Errorf("fan-in %s: %w", transport, err)
	}
	c.close(map[string]float64{"events": float64(eng.Processed())})
	if startErr != nil {
		return fmt.Errorf("fan-in %s: %w", transport, startErr)
	}
	chk.check(net.Completed() == 512, "fan-in %s completed %d of 512 flows", transport, net.Completed())
	return nil
}

// spanNames are the names the benchmark gives its spans; each gets a
// span.<name>.self_s metric.
var spanNames = []string{
	"run", "setup", "pass", "sweep",
	"core.capture", "core.fit", "core.generate", "core.mix", "core.encode", "core.replay", "core.validate",
	"flows.classify", "netsim.fanin",
	"serve.warmup", "serve.loop", "serve.request", "serve.first_chunk",
}

// layerView answers the per-layer metrics' questions about one traced run.
// A metric about a call comes from the first phase of the run — pass,
// then setup, then sweep — that made the call, so it describes the
// workload's own calls wherever it has any.
type layerView struct {
	spans []span
	self  []int64
	phase []string
}

func newLayerView(spans []span) *layerView {
	v := &layerView{spans: spans, self: selfTimes(spans), phase: make([]string, len(spans))}
	for i, s := range spans {
		// Parents open before their children, so they come first.
		switch {
		case s.Parent == 0:
		case spans[s.Parent-1].Parent == 0:
			v.phase[i] = s.Name
		default:
			v.phase[i] = v.phase[s.Parent-1]
		}
	}
	return v
}

// pick returns the spans named name (with the label, when given) of the
// first phase that has any.
func (v *layerView) pick(name, label string) []int {
	for _, phase := range []string{"pass", "setup", "sweep"} {
		var out []int
		for i, s := range v.spans {
			if v.phase[i] == phase && s.Name == name && (label == "" || s.Label == label) {
				out = append(out, i)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

func (v *layerView) durS(idx []int) float64 {
	var ns int64
	for _, i := range idx {
		ns += v.spans[i].dur()
	}
	return float64(ns) / 1e9
}

func (v *layerView) selfS(idx []int) float64 {
	var ns int64
	for _, i := range idx {
		ns += v.self[i]
	}
	return float64(ns) / 1e9
}

func (v *layerView) sum(idx []int, attr string) float64 {
	var t float64
	for _, i := range idx {
		t += v.spans[i].Attrs[attr]
	}
	return t
}

func (v *layerView) max(idx []int, attr string) float64 {
	var m float64
	for _, i := range idx {
		m = max(m, v.spans[i].Attrs[attr])
	}
	return m
}

func (v *layerView) values(idx []int, f func(span) float64) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = f(v.spans[i])
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	k := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// layerMetrics derives every per-layer metric from a traced run's spans.
func layerMetrics(spans []span) map[string]metric {
	v := newLayerView(spans)
	out := map[string]metric{}
	put := func(name, unit string, value float64) { out[name] = metric{value, unit} }

	capture, replay := v.pick("core.capture", ""), v.pick("core.replay", "")
	generate := v.pick("core.generate", "")
	put("core.capture_s", "s", v.durS(capture))
	put("core.fit_s", "s", v.durS(v.pick("core.fit", "")))
	put("core.generate_s", "s", v.selfS(generate))
	put("core.encode_s", "s", v.durS(v.pick("core.encode", "")))
	put("core.replay_s", "s", v.durS(replay))
	put("core.validate_s", "s", v.durS(v.pick("core.validate", "")))
	put("core.alloc_mb.capture", "MB", v.sum(capture, "alloc_mb"))
	put("core.alloc_mb.replay", "MB", v.sum(replay, "alloc_mb"))
	put("core.alloc_mb.generate", "MB", v.sum(generate, "alloc_mb"))
	put("core.generate_ns_per_flow", "ns/flow", ratio(v.selfS(generate)*1e9, v.sum(generate, "flows")))
	if len(generate) > 0 {
		bySize := append([]int(nil), generate...)
		sort.SliceStable(bySize, func(a, b int) bool {
			return v.spans[bySize[a]].Attrs["flows"] < v.spans[bySize[b]].Attrs["flows"]
		})
		perFlow := func(i int) float64 { return ratio(float64(v.self[i]), v.spans[i].Attrs["flows"]) }
		put("core.generate_ns_per_flow.smallest", "ns/flow", perFlow(bySize[0]))
		put("core.generate_ns_per_flow.largest", "ns/flow", perFlow(bySize[len(bySize)-1]))
	}
	for _, format := range []string{"csv", "jsonl", "ns3"} {
		enc := v.pick("core.encode", format)
		put("core.encode_ns_per_flow."+format, "ns/flow", ratio(v.durS(enc)*1e9, v.sum(enc, "flows")))
	}
	mix := v.pick("core.mix", "")
	put("core.mix_ns_per_flow", "ns/flow", ratio(v.selfS(mix)*1e9, v.sum(mix, "flows")))

	for stage, idx := range map[string][]int{"capture": capture, "replay": replay} {
		events, flows := v.sum(idx, "events"), v.sum(idx, "flows_started")
		put("sim.events."+stage, "count", events)
		put("sim.ns_per_event."+stage, "ns/event", ratio(v.durS(idx)*1e9, events))
		put("netsim.flows."+stage, "count", flows)
		put("netsim.reallocs_per_flow."+stage, "ratio", ratio(v.sum(idx, "reallocs"), flows))
		put("netsim.active_flows_max."+stage, "count", v.max(idx, "active_flows_max"))
	}
	both := append(append([]int(nil), capture...), replay...)
	put("sim.heap_depth_max", "count", v.max(both, "heap_depth_max"))
	put("netsim.tcp_rto_fired", "count", v.sum(both, "tcp_rto_fired"))
	put("netsim.tcp_fast_retransmits", "count", v.sum(both, "tcp_fast_retransmits"))
	put("netsim.fanin_fluid_ms", "ms", v.durS(v.pick("netsim.fanin", "fluid"))*1e3)
	put("netsim.fanin_tcp_ms", "ms", v.durS(v.pick("netsim.fanin", "tcp"))*1e3)

	put("hdfs.blocks_written", "count", v.sum(capture, "blocks_written"))
	put("hdfs.mb_written", "MB", v.sum(capture, "bytes_written")/(1<<20))
	put("yarn.containers", "count", v.sum(capture, "containers"))
	put("yarn.local_ratio", "ratio", ratio(v.sum(capture, "containers_local"), v.sum(capture, "containers")))
	put("mapreduce.shuffle_fetches", "count", v.sum(capture, "shuffle_fetches"))
	put("mapreduce.shuffle_retries", "count", v.sum(capture, "shuffle_retries"))
	put("mapreduce.job_sim_s_max", "sim_s", v.max(capture, "job_sim_s_max"))

	classify := v.pick("flows.classify", "")
	put("flows.classify_ns_per_record", "ns/record", ratio(v.durS(classify)*1e9, v.sum(classify, "records")))

	requests := v.pick("serve.request", "loop")
	ttfb := v.values(requests, func(s span) float64 { return s.Attrs["ttfb_ms"] })
	stream := v.values(requests, func(s span) float64 { return float64(s.dur()) / 1e6 })
	firstChunk := median(v.values(v.pick("serve.first_chunk", ""), func(s span) float64 { return float64(s.dur()) / 1e6 }))
	loop := v.pick("serve.loop", "")
	put("serve.ttfb_p50_ms", "ms", median(ttfb))
	put("serve.ttfb_p99_ms", "ms", percentile(ttfb, 99))
	put("serve.stream_p99_ms", "ms", percentile(stream, 99))
	put("serve.first_chunk_ms", "ms", firstChunk)
	put("serve.overhead_ms", "ms", median(ttfb)-firstChunk)
	put("serve.queue_depth_max", "count", v.max(loop, "queue_depth_max"))
	put("serve.active_streams_max", "count", v.max(loop, "active_streams_max"))
	put("serve.shed", "count", v.sum(loop, "shed"))
	put("serve.generator_late_ms_max", "ms", v.max(requests, "late_ms"))

	pass := v.pick("pass", "")
	put("go.gc_cycles", "count", v.sum(pass, "gc_cycles"))
	put("go.gc_pause_ms", "ms", v.sum(pass, "gc_pause_ms"))
	put("telemetry.overhead_pct", "%", v.sum(pass, "overhead_pct"))

	validate := v.pick("core.validate", "")
	put("fidelity.size_ks", "KS", v.max(validate, "size_ks"))
	put("fidelity.arrival_ks", "KS", v.max(validate, "arrival_ks"))
	put("fidelity.volume_err", "ratio", v.max(validate, "volume_err"))

	selfByName := map[string]int64{}
	for i, s := range spans {
		selfByName[s.Name] += v.self[i]
	}
	for _, name := range spanNames {
		put("span."+name+".self_s", "s", float64(selfByName[name])/1e9)
	}
	return out
}
