package experiments

import (
	"bytes"
	"fmt"
	"time"

	"keddah/internal/core"
	"keddah/internal/pcap"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

func init() {
	register("E10", "toolchain overhead: capture, trace IO, reassembly, fitting", runE10)
}

// runE10 reproduces the toolchain-cost claims: per stage (packet
// synthesis, trace write/read, flow reassembly, model fitting), the
// wall-clock cost as the capture grows. Expected shape: every stage is
// linear in trace size; fitting is sub-second for 10⁵ flows.
func runE10(cfg Config) ([]Table, error) {
	t := Table{
		ID:    "E10",
		Title: "Toolchain stage costs vs capture size",
		Headers: []string{"input GB", "packets", "flows", "trace MB",
			"write ms", "read ms", "reassemble ms", "fit ms"},
		Volatile: []string{"write ms", "read ms", "reassemble ms", "fit ms"},
	}
	for _, gbs := range []float64{1, 2, 4} {
		input := cfg.gb(gbs)
		packets, ts, err := capturePackets(cfg, input)
		if err != nil {
			return nil, err
		}

		// Stage: trace write.
		var buf bytes.Buffer
		start := time.Now()
		w, err := pcap.NewWriter(&buf)
		if err != nil {
			return nil, err
		}
		for _, p := range packets {
			if err := w.WritePacket(p); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		writeMs := time.Since(start).Seconds() * 1000
		traceMB := float64(buf.Len()) / (1 << 20)

		// Stage: trace read.
		start = time.Now()
		r, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		readBack, err := r.ReadAll()
		if err != nil {
			return nil, err
		}
		readMs := time.Since(start).Seconds() * 1000
		if len(readBack) != len(packets) {
			return nil, fmt.Errorf("trace round trip lost packets: %d != %d", len(readBack), len(packets))
		}

		// Stage: flow reassembly.
		start = time.Now()
		recs := reassemble(readBack)
		reassembleMs := time.Since(start).Seconds() * 1000

		// Stage: model fitting (on the same capture's ground truth, which
		// has job attribution).
		start = time.Now()
		if _, err := core.FitWith(ts, core.FitOptions{}, nil); err != nil {
			return nil, err
		}
		fitMs := time.Since(start).Seconds() * 1000

		t.AddRow(gbLabel(input), itoa(len(packets)), itoa(len(recs)),
			f2(traceMB), f2(writeMs), f2(readMs), f2(reassembleMs), f2(fitMs))
	}

	t2, err := telemetryOverhead(cfg)
	if err != nil {
		return nil, err
	}
	return []Table{t, *t2}, nil
}

// capturePackets captures one sort run of the given input on 16 workers
// with packet synthesis on, under the suite's strict checks and
// telemetry, and returns its packets in timestamp order with the trace
// set.
func capturePackets(cfg Config, input int64) ([]pcap.Packet, *core.TraceSet, error) {
	capture := pcap.NewCapture()
	ts, _, err := cfg.capture(core.ClusterSpec{Workers: 16, Seed: cfg.Seed},
		[]workload.RunSpec{{Profile: "sort", InputBytes: input}}, core.CaptureOpts{Packets: capture})
	if err != nil {
		return nil, nil, err
	}
	return capture.Packets(), ts, nil
}

// reassemble rebuilds the flow records of a packet stream.
func reassemble(packets []pcap.Packet) []pcap.FlowRecord {
	ft := pcap.NewFlowTable(0)
	for _, p := range packets {
		ft.Add(p)
	}
	return ft.Records()
}

// telemetryOverhead compares the same capture with telemetry attached
// and bare: the instrumentation cost claimed in DESIGN.md (≤5% on the
// replay benchmark; a full capture is dominated by simulation work, so
// the measured overhead here is typically lower still).
func telemetryOverhead(cfg Config) (*Table, error) {
	t := Table{
		ID:       "E10b",
		Title:    "Telemetry overhead: instrumented vs bare capture",
		Note:     "same spec and seed; instrumented run updates every counter/gauge/span hook",
		Headers:  []string{"input GB", "bare ms", "instrumented ms", "overhead %"},
		Volatile: []string{"bare ms", "instrumented ms", "overhead %"},
	}
	input := cfg.gb(2)
	spec := core.ClusterSpec{Workers: 16, Seed: cfg.Seed}
	runSpec := []workload.RunSpec{{Profile: "sort", InputBytes: input}}

	// StrictChecks (when set) applies to both sides so the comparison
	// isolates the telemetry cost.
	start := time.Now()
	if _, _, err := core.CaptureWith(spec, runSpec, core.CaptureOpts{StrictChecks: cfg.StrictChecks}); err != nil {
		return nil, fmt.Errorf("E10b bare: %w", err)
	}
	bareMs := time.Since(start).Seconds() * 1000

	tel := telemetry.New()
	start = time.Now()
	if _, _, err := core.CaptureWith(spec, runSpec, core.CaptureOpts{Telemetry: tel, StrictChecks: cfg.StrictChecks}); err != nil {
		return nil, fmt.Errorf("E10b instrumented: %w", err)
	}
	instMs := time.Since(start).Seconds() * 1000

	overhead := 0.0
	if bareMs > 0 {
		overhead = (instMs - bareMs) / bareMs * 100
	}
	t.AddRow(gbLabel(input), f2(bareMs), f2(instMs), f2(overhead))
	return &t, nil
}
