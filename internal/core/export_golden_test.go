package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"keddah/internal/flows"
)

var updateGolden = flag.Bool("update", false, "rewrite the export golden files and capture digests")

// goldenSchedule exercises the format edge cases: master host (-1),
// CSV-hostile job names (comma, quote), NS3-tag-hostile names (spaces),
// sub-second start times and zero-byte flows.
func goldenSchedule() []SynthFlow {
	return []SynthFlow{
		{StartNs: 0, SrcHost: 0, DstHost: 1, SrcPort: 40001, DstPort: 50010,
			Bytes: 134_217_728, Phase: flows.PhaseHDFSWrite, Job: "terasort-gen0"},
		{StartNs: 1_500_000_000, SrcHost: 3, DstHost: 0, SrcPort: 13562, DstPort: 40002,
			Bytes: 4_194_304, Phase: flows.PhaseShuffle, Job: `weird "job", with csv`},
		{StartNs: 2_000_000_000, SrcHost: 2, DstHost: -1, SrcPort: 40003, DstPort: 8031,
			Bytes: 512, Phase: flows.PhaseControl, Job: "job with spaces"},
		{StartNs: 2_000_000_001, SrcHost: 7, DstHost: 4, SrcPort: 40004, DstPort: 13562,
			Bytes: 0, Phase: flows.PhaseShuffle, Job: ""},
	}
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestExportCSVGolden pins the CSV wire format byte for byte: field
// order, float formatting, and quoting of hostile job names must not
// drift, or previously written schedules stop importing elsewhere.
func TestExportCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportCSV(&buf, goldenSchedule()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "schedule.golden.csv", buf.Bytes())

	// The golden bytes must also round-trip losslessly.
	back, err := ImportCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	want := goldenSchedule()
	if len(back) != len(want) {
		t.Fatalf("round trip lost flows: %d != %d", len(back), len(want))
	}
	for i := range want {
		if back[i] != want[i] {
			t.Errorf("flow %d changed: %+v -> %+v", i, want[i], back[i])
		}
	}
}

// TestExportNS3Golden pins the driver stream format: header, node
// count, flow-line layout and tag sanitisation.
func TestExportNS3Golden(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportNS3(&buf, goldenSchedule(), 8); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "schedule.golden.ns3", buf.Bytes())
}

// hostileSchedule stresses the string escaping of every format: HTML
// metacharacters, quotes, backslashes, U+2028, control bytes, invalid
// UTF-8 and non-ASCII text in both the phase and the job field.
func hostileSchedule() []SynthFlow {
	return []SynthFlow{
		{StartNs: 0, SrcHost: -1, DstHost: 2, SrcPort: 8031, DstPort: 40001,
			Bytes: 1, Phase: flows.PhaseControl, Job: "<a&b>"},
		{StartNs: 999_999_999, SrcHost: 4, DstHost: -1, SrcPort: 13562, DstPort: 40002,
			Bytes: 1 << 40, Phase: flows.Phase(`quo"te\back`), Job: "line\u2028sep\u2029para"},
		{StartNs: 1_000_000_000, SrcHost: 0, DstHost: 0, SrcPort: 0, DstPort: 0,
			Bytes: 0, Phase: flows.Phase("ctl\x01\x1f\x7f"), Job: "bad\xffutf8\xc3"},
		{StartNs: 86_400_123_456_789, SrcHost: 15, DstHost: 3, SrcPort: 50010, DstPort: 65535,
			Bytes: 9_223_372_036_854_775_807, Phase: flows.Phase("shuffle\t\n\r"), Job: "größe-日本-é"},
		{StartNs: -5, SrcHost: -7, DstHost: -1, SrcPort: -1, DstPort: 1,
			Bytes: -3, Phase: flows.Phase(""), Job: ""},
	}
}

// TestExportJSONLGolden pins the JSONL wire format byte for byte,
// including encoding/json's HTML and line-separator escaping and its
// replacement of invalid UTF-8, so the streamed form stays parseable by
// every JSON reader that consumed it before.
func TestExportJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportJSONL(&buf, hostileSchedule()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "schedule.golden.jsonl", buf.Bytes())
}
