package core

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"keddah/internal/pcap"
	"keddah/internal/workload"
)

// refWriteJSON is the trace-set encoding WriteJSON must reproduce byte
// for byte: encoding/json's Encoder with its defaults.
func refWriteJSON(w io.Writer, ts *TraceSet) error {
	return json.NewEncoder(w).Encode(ts)
}

// refWriteFlowCSV is the flow CSV WriteFlowCSV must reproduce byte for
// byte: one encoding/csv row per record, the columns and order of the
// exporter, Addr.String for addresses.
func refWriteFlowCSV(w io.Writer, ts *TraceSet) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"scope", "label", "src", "dst", "src_port", "dst_port", "first_ns", "last_ns", "bytes"}); err != nil {
		return err
	}
	row := func(scope string, r pcap.FlowRecord) error {
		return cw.Write([]string{
			scope, r.Label,
			r.Key.Src.String(), r.Key.Dst.String(),
			strconv.Itoa(int(r.Key.SrcPort)), strconv.Itoa(int(r.Key.DstPort)),
			strconv.FormatInt(r.FirstNs, 10), strconv.FormatInt(r.LastNs, 10),
			strconv.FormatInt(r.Bytes, 10),
		})
	}
	for _, r := range ts.Background {
		if err := row("background", r); err != nil {
			return err
		}
	}
	for _, run := range ts.Runs {
		for _, r := range run.Records {
			if err := row(run.JobName, r); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// checkWritersMatch fails unless WriteJSON and WriteFlowCSV write exactly
// the bytes of their encoding/json and encoding/csv references.
func checkWritersMatch(t *testing.T, ts *TraceSet) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want func(io.Writer, *TraceSet) error
	}{
		{"WriteJSON", func(w io.Writer, ts *TraceSet) error { return ts.WriteJSON(w) }, refWriteJSON},
		{"WriteFlowCSV", WriteFlowCSV, refWriteFlowCSV},
	} {
		var got, want bytes.Buffer
		if err := c.want(&want, ts); err != nil {
			t.Fatalf("%s reference: %v", c.name, err)
		}
		if err := c.got(&got, ts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s differs from its reference at byte %d:\n got %q\nwant %q",
				c.name, firstDiff(got.Bytes(), want.Bytes()), excerpt(got.Bytes(), want.Bytes()), excerpt(want.Bytes(), got.Bytes()))
		}
	}
}

// firstDiff is the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// excerpt is a's bytes around its first difference from b.
func excerpt(a, b []byte) []byte {
	i := firstDiff(a, b)
	return a[max(i-40, 0):min(i+40, len(a))]
}

// awkwardLabels are strings each writer must escape or quote exactly as
// its reference does: HTML characters, quotes, backslashes, control
// characters, U+2028/U+2029, invalid UTF-8, a leading space, the lone
// `\.` encoding/csv quotes, the delimiter, and plain text.
var awkwardLabels = []string{
	"job0/shuffle", "a<b>&c/x", `say "hi"`, `back\slash`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
	"sep\u2028line\u2029para", "bad\xff\xfeutf8", " leading space", `\.`, "comma,field",
	"", "héllo/wörld", "\t", "end\r",
}

// awkwardTraceSet builds a trace set whose strings are awkwardLabels,
// whose numbers include zeros, negatives and extremes, and whose every
// stats counter is set.
func awkwardTraceSet() *TraceSet {
	recs := func(n int) []pcap.FlowRecord {
		out := make([]pcap.FlowRecord, n)
		for i := range out {
			out[i] = pcap.FlowRecord{
				Key: pcap.FlowKey{
					Src: pcap.Addr(0xff_00_10_01 + uint32(i)), Dst: pcap.HostAddr(i),
					SrcPort: uint16(65535 - i), DstPort: uint16(i), Proto: pcap.ProtoTCP,
				},
				FirstNs: int64(i)*1_000_003 - 7, LastNs: int64(i) << 40,
				Bytes: int64(i) * 999_999_937, Packets: int64(i % 3),
				Label: awkwardLabels[i%len(awkwardLabels)],
			}
		}
		return out
	}
	ts := &TraceSet{
		Background: recs(len(awkwardLabels)), BackgroundHosts: 9, BackgroundSpanNs: -1,
		Stats: CaptureStats{
			ReReplicatedBytes: 1, ReReplicatedBlocks: 2, LostContainers: 3, LostBlocks: 4,
			PipelineRecoveries: 5, ReadRetries: 6, AbortedFlows: 7,
			InterPodTransfers: 8, InterPodAborted: 9, InterPodBytes: -10,
		},
	}
	for i, name := range awkwardLabels {
		ts.Runs = append(ts.Runs, &Run{
			Workload: awkwardLabels[(i+3)%len(awkwardLabels)], JobName: name,
			InputBytes: 1 << 62, Maps: i, Reducers: -i, BlockSize: 128 << 20, Replication: 3,
			Hosts: 64, StartNs: -int64(i), EndNs: 1<<63 - 1, Records: recs(i + 1),
		})
	}
	return ts
}

// TestTraceSetWritersMatchReferences holds the streamed writers to
// their encoding/json and encoding/csv references on a capture and on
// hand-built trace sets that no capture produces.
func TestTraceSetWritersMatchReferences(t *testing.T) {
	ts, _, err := CaptureWith(ClusterSpec{Workers: 4, Seed: 1},
		[]workload.RunSpec{{Profile: "terasort", InputBytes: 128 << 20, JobName: "terasort-0"}}, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*TraceSet{
		"capture":            ts,
		"awkward":            awkwardTraceSet(),
		"zero":               {},
		"empty slices":       {Background: []pcap.FlowRecord{}, Runs: []*Run{}},
		"null and empty run": {Runs: []*Run{{JobName: "a"}, {JobName: "b", Records: []pcap.FlowRecord{}}}},
	}
	for name, ts := range cases {
		t.Run(name, func(t *testing.T) { checkWritersMatch(t, ts) })
	}
}

// TestTraceSetWritersCoverEveryField: WriteJSON spells out the fields of
// every type it encodes, so a field added to one of them must be added
// to the writer as well. A zero omitempty field would slip past the
// reference comparisons, so this lists what the writer covers.
func TestTraceSetWritersCoverEveryField(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		fields string
	}{
		{reflect.TypeFor[TraceSet](), "Background BackgroundHosts BackgroundSpanNs Stats Runs"},
		{reflect.TypeFor[Run](), "Workload JobName InputBytes Maps Reducers BlockSize Replication Hosts StartNs EndNs Records"},
		{reflect.TypeFor[CaptureStats](), "ReReplicatedBytes ReReplicatedBlocks LostContainers LostBlocks " +
			"PipelineRecoveries ReadRetries AbortedFlows InterPodTransfers InterPodAborted InterPodBytes"},
		{reflect.TypeFor[pcap.FlowRecord](), "Key FirstNs LastNs Bytes Packets Label"},
		{reflect.TypeFor[pcap.FlowKey](), "Src Dst SrcPort DstPort Proto"},
	} {
		var got []string
		for i := range c.typ.NumField() {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if strings.Join(got, " ") != c.fields {
			t.Errorf("%s has exported fields %q; WriteJSON writes %q", c.typ, got, c.fields)
		}
	}
}

// TestTraceSetWritersLongRows: a single row longer than the writers'
// flush threshold, and rows that cross it, still come out as the
// references write them.
func TestTraceSetWritersLongRows(t *testing.T) {
	long := string(bytes.Repeat([]byte(`a,"b"`), encFlushBytes/4))
	ts := awkwardTraceSet()
	ts.Background[0].Label = long
	ts.Runs[2].JobName = long
	for i := 0; i < encFlushBytes/64; i++ {
		ts.Runs[1].Records = append(ts.Runs[1].Records, ts.Runs[1].Records[0])
	}
	checkWritersMatch(t, ts)
}

// TestWriteTraceSetNilRun: a nil run encodes as null, as encoding/json
// writes it, and has no flow CSV rows (the reference would dereference
// it).
func TestWriteTraceSetNilRun(t *testing.T) {
	ts := awkwardTraceSet()
	withNil := &TraceSet{Background: ts.Background, Stats: ts.Stats, Runs: []*Run{nil, ts.Runs[1], nil}}
	var got, want bytes.Buffer
	if err := withNil.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSON(&want, withNil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("WriteJSON with nil runs:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	got.Reset()
	want.Reset()
	if err := WriteFlowCSV(&got, withNil); err != nil {
		t.Fatal(err)
	}
	if err := refWriteFlowCSV(&want, &TraceSet{Background: ts.Background, Runs: []*Run{ts.Runs[1]}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("WriteFlowCSV with nil runs:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// TestWriteTraceSetFailingWriter: a sink that fails at the start, inside
// the first buffer and past it surfaces its error from both writers.
func TestWriteTraceSetFailingWriter(t *testing.T) {
	ts := awkwardTraceSet()
	for i := 0; i < encFlushBytes/32; i++ {
		ts.Background = append(ts.Background, ts.Background[1])
	}
	sink := errors.New("sink full")
	for name, write := range map[string]func(io.Writer) error{
		"WriteJSON":    ts.WriteJSON,
		"WriteFlowCSV": func(w io.Writer) error { return WriteFlowCSV(w, ts) },
	} {
		for _, budget := range []int{0, 3, encFlushBytes + 100} {
			if err := write(&failAfter{n: budget, err: sink}); err == nil || !errors.Is(err, sink) {
				t.Errorf("%s to a writer failing after %d bytes: %v", name, budget, err)
			}
		}
	}
}

// traceWriteCapture is the capture the trace-set allocation fences
// measure: 32 workers, terasort and wordcount at 8 GiB, about 11k records.
func traceWriteCapture(t *testing.T) *TraceSet {
	t.Helper()
	ts, _, err := CaptureWith(ClusterSpec{Workers: 32, Seed: 5}, []workload.RunSpec{
		{Profile: "terasort", InputBytes: 8 << 30, JobName: "t0"},
		{Profile: "wordcount", InputBytes: 8 << 30, JobName: "w0"},
	}, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// traceRecords counts a trace set's records, background included.
func traceRecords(ts *TraceSet) int {
	n := len(ts.Background)
	for _, r := range ts.Runs {
		n += len(r.Records)
	}
	return n
}

// allocatedBytes returns the bytes f allocates, averaged over runs calls
// after one warm-up call.
func allocatedBytes(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestWriteTraceSetBytesPerFlow is the memory fence on the trace-set
// writers: each artifact streams through one buffer from encBufs, so
// writing both to io.Discard allocates a constant however many records
// the capture holds: at most one buffer per call (a sync.Pool may miss,
// say when the goroutine moved to another P) and 16 KiB besides. Nine
// strings per CSV row cost 66 bytes per record on this capture, and a
// JSON document built in memory first costs its whole length whenever
// the encoder's pooled state is lost.
func TestWriteTraceSetBytesPerFlow(t *testing.T) {
	ts := traceWriteCapture(t)
	n := traceRecords(ts)
	if n < 10_000 {
		t.Fatalf("capture holds %d records; the fence needs at least 10k", n)
	}
	grew := allocatedBytes(3, func() {
		if err := ts.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := WriteFlowCSV(io.Discard, ts); err != nil {
			t.Fatal(err)
		}
	})
	const fixed = 2*encBufBytes + 16<<10
	if grew > fixed {
		t.Errorf("writing %d records allocated %d bytes (%.1f B/record); the fence is %d B in all",
			n, grew, float64(grew)/float64(n), fixed)
	}
}

// TestCaptureBytesPerFlow is the memory fence on the capture's record
// path: the flow log's records are handed on, not copied, grouped once
// into exact-size per-job slices without classifying them, and the
// background is copied once, so a capture allocates at most 700 bytes
// per record it returns. On this spec that path allocates about 593
// bytes per record, the simulation's own allocations included; copying
// the log and each group again and classifying every group twice took
// it to about 1,056.
func TestCaptureBytesPerFlow(t *testing.T) {
	var ts *TraceSet
	grew := allocatedBytes(1, func() { ts = traceWriteCapture(t) })
	n := traceRecords(ts)
	const perRecord = 700
	if grew > uint64(perRecord*n) {
		t.Errorf("capturing %d records allocated %d bytes (%.1f B/record); the fence is %d B/record",
			n, grew, float64(grew)/float64(n), perRecord)
	}
}
