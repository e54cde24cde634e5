package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"unsafe"

	"keddah/internal/flows"
	"keddah/internal/pcap"
)

func sampleSchedule() []SynthFlow {
	return []SynthFlow{
		{StartNs: 1_500_000_000, SrcHost: 0, DstHost: 3, SrcPort: 13562, DstPort: 40001,
			Bytes: 4 << 20, Phase: flows.PhaseShuffle, Job: "terasort-gen0"},
		{StartNs: 2_000_000_000, SrcHost: 2, DstHost: -1, SrcPort: 40002, DstPort: 8031,
			Bytes: 512, Phase: flows.PhaseControl, Job: "background"},
		{StartNs: 2_250_000_000, SrcHost: 5, DstHost: 1, SrcPort: 40003, DstPort: 50010,
			Bytes: 128 << 20, Phase: flows.PhaseHDFSWrite, Job: "terasort-gen0"},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	sched := sampleSchedule()
	var buf bytes.Buffer
	if err := ExportCSV(&buf, sched); err != nil {
		t.Fatalf("export: %v", err)
	}
	back, err := ImportCSV(&buf)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if len(back) != len(sched) {
		t.Fatalf("round trip lost flows: %d != %d", len(back), len(sched))
	}
	for i := range sched {
		if back[i] != sched[i] {
			t.Errorf("flow %d changed: %+v -> %+v", i, sched[i], back[i])
		}
	}
}

// TestCSVRoundTripGenerated: a generated schedule, whose start times are
// not whole milliseconds, comes back from ExportCSV→ImportCSV unchanged,
// to the nanosecond.
func TestCSVRoundTripGenerated(t *testing.T) {
	sched, err := mixModel(t).Generate(context.Background(),
		GenSpec{Workload: "terasort", Jobs: 3, Workers: 64, InputBytes: 8 << 30, Seed: 5, IncludeBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportCSV(&buf, sched); err != nil {
		t.Fatal(err)
	}
	back, err := ImportCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(sched) {
		t.Fatalf("round trip lost flows: %d != %d", len(back), len(sched))
	}
	for i := range sched {
		if back[i] != sched[i] {
			t.Fatalf("flow %d of %d changed: %+v -> %+v", i, len(sched), sched[i], back[i])
		}
	}
}

// TestImportCSVStartSpellings: the exported form is read exactly at any
// magnitude, other spellings round to the nearest nanosecond.
func TestImportCSVStartSpellings(t *testing.T) {
	for field, want := range map[string]int64{
		"4.038572573":          4_038_572_573,
		"0.000000001":          1,
		"9223372036.854775806": math.MaxInt64 - 1,
		"1234567.000000007":    1_234_567_000_000_007,
		"4.0385725730":         4_038_572_573,
		"4.03857257":           4_038_572_570,
		"1e-9":                 1,
		"0.0000000015":         2,
		"00004.038572573":      4_038_572_573,
	} {
		got, err := parseStartNs(field)
		if err != nil || got != want {
			t.Errorf("parseStartNs(%q) = %d, %v; want %d", field, got, err, want)
		}
	}
	for _, field := range []string{"9223372036.854775807", "99999999999.000000000", "-0.000000001", "1._00000000", "1.00000000a"} {
		if got, err := parseStartNs(field); err == nil {
			t.Errorf("parseStartNs(%q) = %d, want an error", field, got)
		}
	}
}

// TestImportCSVSharesLabels: rows of an imported schedule with equal
// phase or job labels share one copy of each, as generated flows do, so
// the encoders' string table finds them by address.
func TestImportCSVSharesLabels(t *testing.T) {
	csv := "start_s,src_host,dst_host,src_port,dst_port,bytes,phase,job\n" +
		"0.5,0,1,40000,13562,5,shuffle,a\n" +
		"0.6,0,1,40001,13562,5,shuffle,b\n" +
		"0.7,0,1,40002,13562,5,shuffle,a\n" +
		"0.8,0,1,40003,8031,5,control,b\n"
	sched, err := ImportCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(sched[0].Job, sched[2].Job) || !same(sched[1].Job, sched[3].Job) || !same(string(sched[0].Phase), string(sched[2].Phase)) {
		t.Errorf("equal labels of an imported schedule are separate copies")
	}
}

func TestImportCSVRejectsGarbage(t *testing.T) {
	if _, err := ImportCSV(strings.NewReader("nope,nope\n1,2\n")); err == nil {
		t.Error("garbage CSV accepted")
	}
	if _, err := ImportCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	bad := "start_s,src_host,dst_host,src_port,dst_port,bytes,phase,job\nx,0,0,1,1,5,shuffle,j\n"
	if _, err := ImportCSV(strings.NewReader(bad)); err == nil {
		t.Error("non-numeric start accepted")
	}
	// Rows that parse but no schedule can hold; the error names line 3.
	for _, row := range []string{
		"0.5,0,1,1,1,-7,shuffle,j",
		"NaN,0,1,1,1,5,shuffle,j",
		"+Inf,0,1,1,1,5,shuffle,j",
		"-0.5,0,1,1,1,5,shuffle,j",
		"1e10,0,1,1,1,5,shuffle,j",
	} {
		in := csvHeader + "0.1,0,1,1,1,5,shuffle,j\n" + row + "\n"
		_, err := ImportCSV(strings.NewReader(in))
		if err == nil {
			t.Errorf("row %q accepted", row)
		} else if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("row %q: error %q does not name line 3", row, err)
		}
	}
}

const csvHeader = "start_s,src_host,dst_host,src_port,dst_port,bytes,phase,job\n"

// TestReplayRejectsUnrunnableFlows: a negative size fails before the
// schedule runs, naming the flow, and a flow too large to finish inside
// the simulated horizon is an error rather than a missing record.
func TestReplayRejectsUnrunnableFlows(t *testing.T) {
	cases := []struct {
		name  string
		bytes int64
		want  string
	}{
		{"negative size", -7, "flow 1: negative size -7"},
		{"never finishes", math.MaxInt64, "1 flows never finished"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := []SynthFlow{
				{StartNs: 0, SrcHost: 0, DstHost: 1, SrcPort: 40001, DstPort: 50010, Bytes: 1 << 20},
				{StartNs: 500_000_000, SrcHost: 2, DstHost: 3, SrcPort: 40002, DstPort: 50010, Bytes: tc.bytes},
			}
			recs, _, err := ReplayWith(sched, ClusterSpec{Workers: 4}, nil)
			if err == nil {
				t.Fatalf("replay returned %d records and no error", len(recs))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// FuzzImportCSV: ImportCSV never panics on any input, and every schedule
// it accepts replays on a 4-worker star to exactly one record per flow
// or fails with an error. The seed corpus in testdata/fuzz/FuzzImportCSV
// holds the golden schedule and one row per rejected start or size.
func FuzzImportCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sched, err := ImportCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		recs, _, err := ReplayWith(sched, ClusterSpec{Workers: 4}, nil)
		if err == nil && len(recs) != len(sched) {
			t.Fatalf("replay of %d flows returned %d records", len(sched), len(recs))
		}
	})
}

func TestExportNS3Format(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportNS3(&buf, sampleSchedule(), 8); err != nil {
		t.Fatalf("export: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "# keddah-ns3 v1" {
		t.Errorf("bad header: %q", lines[0])
	}
	if lines[1] != "nodes 9" {
		t.Errorf("bad node count: %q", lines[1])
	}
	if len(lines) != 2+3 {
		t.Fatalf("lines = %d, want 5", len(lines))
	}
	// Master (-1) maps to node index 8.
	if !strings.Contains(lines[3], " 2 8 ") {
		t.Errorf("master flow not remapped: %q", lines[3])
	}
	// Every flow line has exactly 7 tokens.
	for _, l := range lines[2:] {
		if got := len(strings.Fields(l)); got != 7 {
			t.Errorf("flow line has %d tokens: %q", got, l)
		}
	}
	if err := ExportNS3(&bytes.Buffer{}, nil, 0); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestExportGeneratedSchedule(t *testing.T) {
	ts := captureSmallCorpus(t)
	model, err := FitWith(ts, FitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := model.Generate(context.Background(), GenSpec{Workload: "terasort", Workers: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportCSV(&buf, sched); err != nil {
		t.Fatal(err)
	}
	back, err := ImportCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The re-imported schedule replays identically.
	r1, m1, err := ReplayWith(sched, ClusterSpec{Workers: 8, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, m2, err := ReplayWith(back, ClusterSpec{Workers: 8, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 || len(r1) != len(r2) {
		t.Errorf("round-tripped schedule diverged: %v/%d vs %v/%d", m1, len(r1), m2, len(r2))
	}
}

func TestScheduleFromRecordsTraceDrivenReplay(t *testing.T) {
	ts := captureSmallCorpus(t)
	var recs []pcap.FlowRecord
	for _, r := range ts.Runs {
		recs = append(recs, r.Records...)
	}
	sched := ScheduleFromRecords(recs)
	if len(sched) != len(recs) {
		t.Fatalf("schedule flows = %d, want %d", len(sched), len(recs))
	}
	// Time-shifted to zero and sorted.
	if sched[0].StartNs != 0 {
		t.Errorf("first flow starts at %d, want 0", sched[0].StartNs)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].StartNs < sched[i-1].StartNs {
			t.Fatal("schedule not sorted")
		}
	}
	// Phases and byte totals preserved.
	var schedBytes, recBytes int64
	for _, sf := range sched {
		schedBytes += sf.Bytes
	}
	for _, r := range recs {
		recBytes += r.Bytes
	}
	if schedBytes != recBytes {
		t.Errorf("bytes: %d != %d", schedBytes, recBytes)
	}
	// Replays on a matching fabric.
	out, makespan, err := ReplayWith(sched, ClusterSpec{Workers: 8, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(sched) || makespan <= 0 {
		t.Errorf("replayed %d flows, makespan %v", len(out), makespan)
	}
	if ScheduleFromRecords(nil) != nil {
		t.Error("empty records should yield nil schedule")
	}
}
