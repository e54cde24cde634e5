package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"keddah/internal/flows"
)

// The reference encoders below write rows through encoding/csv,
// encoding/json and fmt. They define the wire formats: the append-based
// production encoders must produce their bytes exactly.

func newRefEncoder(format string, w io.Writer, workers int) StreamEncoder {
	switch format {
	case "csv":
		return &refCSVEncoder{cw: csv.NewWriter(w)}
	case "jsonl":
		return &refJSONLEncoder{enc: json.NewEncoder(w)}
	case "ns3":
		return &refNS3Encoder{bw: bufio.NewWriter(w), workers: workers}
	}
	panic("unknown format " + format)
}

type refCSVEncoder struct{ cw *csv.Writer }

func (e *refCSVEncoder) ContentType() string { return "text/csv" }

func (e *refCSVEncoder) Begin() error {
	if err := e.cw.Write([]string{"start_s", "src_host", "dst_host", "src_port", "dst_port", "bytes", "phase", "job"}); err != nil {
		return err
	}
	e.cw.Flush()
	return e.cw.Error()
}

func (e *refCSVEncoder) Flows(schedule []SynthFlow) error {
	for _, sf := range schedule {
		if err := e.cw.Write([]string{
			strconv.FormatFloat(float64(sf.StartNs)/1e9, 'f', 9, 64),
			strconv.Itoa(sf.SrcHost),
			strconv.Itoa(sf.DstHost),
			strconv.Itoa(sf.SrcPort),
			strconv.Itoa(sf.DstPort),
			strconv.FormatInt(sf.Bytes, 10),
			string(sf.Phase),
			sf.Job,
		}); err != nil {
			return err
		}
	}
	e.cw.Flush()
	return e.cw.Error()
}

func (e *refCSVEncoder) End() error {
	e.cw.Flush()
	return e.cw.Error()
}

type refJSONLEncoder struct{ enc *json.Encoder }

func (e *refJSONLEncoder) ContentType() string { return "application/x-ndjson" }
func (e *refJSONLEncoder) Begin() error        { return nil }
func (e *refJSONLEncoder) End() error          { return nil }

func (e *refJSONLEncoder) Flows(schedule []SynthFlow) error {
	for i := range schedule {
		if err := e.enc.Encode(&schedule[i]); err != nil {
			return err
		}
	}
	return nil
}

type refNS3Encoder struct {
	bw      *bufio.Writer
	workers int
}

func (e *refNS3Encoder) ContentType() string { return "text/plain" }

func (e *refNS3Encoder) Begin() error {
	fmt.Fprintln(e.bw, "# keddah-ns3 v1")
	fmt.Fprintf(e.bw, "nodes %d\n", e.workers+1)
	return e.bw.Flush()
}

func (e *refNS3Encoder) Flows(schedule []SynthFlow) error {
	node := func(h int) int {
		if h < 0 {
			return e.workers
		}
		return h % e.workers
	}
	for _, sf := range schedule {
		tag := string(sf.Phase)
		if sf.Job != "" {
			tag = sf.Job + ":" + tag
		}
		fmt.Fprintf(e.bw, "flow %.9f %d %d %d %d %s\n",
			float64(sf.StartNs)/1e9, node(sf.SrcHost), node(sf.DstHost),
			sf.DstPort, sf.Bytes, sanitizeTag(tag))
	}
	return e.bw.Flush()
}

func (e *refNS3Encoder) End() error { return e.bw.Flush() }

// encodeChunks runs enc over schedule, calling Flows once per chunk.
func encodeChunks(enc StreamEncoder, chunks [][]SynthFlow) error {
	if err := enc.Begin(); err != nil {
		return err
	}
	for _, c := range chunks {
		if err := enc.Flows(c); err != nil {
			return err
		}
	}
	return enc.End()
}

// checkEncodersAgree encodes chunks in every format through the
// production and the reference encoder and fails on any byte difference.
func checkEncodersAgree(t *testing.T, chunks [][]SynthFlow, workers int) {
	t.Helper()
	for _, format := range []string{"csv", "jsonl", "ns3"} {
		var got, want bytes.Buffer
		enc, err := NewStreamEncoder(format, &got, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := encodeChunks(enc, chunks); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if err := encodeChunks(newRefEncoder(format, &want, workers), chunks); err != nil {
			t.Fatalf("%s reference: %v", format, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s output differs from the reference encoder:\n--- got ---\n%q\n--- want ---\n%q",
				format, got.Bytes(), want.Bytes())
		}
	}
}

// TestStreamEncodersMatchReference covers the fixed schedules and a
// generated one large enough to cross the buffer's flush threshold many
// times, split into chunks of several sizes.
func TestStreamEncodersMatchReference(t *testing.T) {
	model := mixModel(t)
	gen, err := model.Generate(context.Background(), GenSpec{Workload: "terasort", Jobs: 8, Seed: 3, IncludeBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, sched := range map[string][]SynthFlow{
		"golden": goldenSchedule(), "hostile": hostileSchedule(), "generated": gen, "empty": nil,
		"many-jobs": manyJobsSchedule(3*maxRowTails + 7),
	} {
		for _, size := range []int{1, 3, 4096} {
			var chunks [][]SynthFlow
			for rest := sched; len(rest) > 0; rest = rest[min(size, len(rest)):] {
				chunks = append(chunks, rest[:min(size, len(rest))])
			}
			t.Run(fmt.Sprintf("%s/chunk%d", name, size), func(t *testing.T) {
				checkEncodersAgree(t, chunks, 8)
			})
		}
	}
}

// fuzzStrings are field values every format escapes specially.
var fuzzStrings = []string{
	"", `\.`, " lead", "\tlead", ",", `"`, `a "q", b`, "\r\n", "cr\r", "lf\n",
	"<a&b>", " ", "\xff", "é", "terasort-gen0", "shuffle", "a:b/c.d_e-f",
}

// fuzzFlows decodes a fuzz input into flow batches of at most
// 2·maxRowTails flows, enough to outgrow the tail table. Each flow takes 29
// bytes of numbers (signed, so hosts and ports go negative; missing
// bytes read as zero) and two strings, each either a fuzzStrings entry
// or up to 15 raw bytes; a final byte decides whether a chunk ends after
// the flow.
func fuzzFlows(data []byte) [][]SynthFlow {
	next := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	str := func() string {
		sel := next(1)[0]
		if int(sel) < len(fuzzStrings) {
			return fuzzStrings[sel]
		}
		raw := data[:min(int(sel%16), len(data))]
		data = data[len(raw):]
		return string(raw)
	}
	var chunks [][]SynthFlow
	var cur []SynthFlow
	for n := 0; len(data) > 0 && n < 2*maxRowTails; n++ {
		sf := SynthFlow{
			// The shift spreads start times over every magnitude, so both
			// sides of appendSeconds' exact-integer bound are exercised.
			StartNs: int64(binary.BigEndian.Uint64(next(8))) >> (next(1)[0] % 64),
			SrcHost: int(int16(binary.BigEndian.Uint16(next(2)))),
			DstHost: int(int16(binary.BigEndian.Uint16(next(2)))),
			SrcPort: int(int32(binary.BigEndian.Uint32(next(4)))),
			DstPort: int(int32(binary.BigEndian.Uint32(next(4)))),
			Bytes:   int64(binary.BigEndian.Uint64(next(8))),
		}
		sf.Phase = flows.Phase(str())
		sf.Job = str()
		cur = append(cur, sf)
		if next(1)[0]&1 == 1 {
			chunks = append(chunks, cur)
			cur = nil
		}
	}
	return append(chunks, cur)
}

// fuzzInput is fuzzFlows' inverse for seeding: every flow as raw-string
// fields (cut to 15 bytes), with a chunk boundary after odd flows.
func fuzzInput(sched []SynthFlow) []byte {
	var data []byte
	str := func(s string) {
		s = s[:min(len(s), 15)]
		data = append(append(data, byte(32+len(s))), s...)
	}
	for i, sf := range sched {
		data = binary.BigEndian.AppendUint64(data, uint64(sf.StartNs))
		data = append(data, 0)
		data = binary.BigEndian.AppendUint16(data, uint16(sf.SrcHost))
		data = binary.BigEndian.AppendUint16(data, uint16(sf.DstHost))
		data = binary.BigEndian.AppendUint32(data, uint32(sf.SrcPort))
		data = binary.BigEndian.AppendUint32(data, uint32(sf.DstPort))
		data = binary.BigEndian.AppendUint64(data, uint64(sf.Bytes))
		str(string(sf.Phase))
		str(sf.Job)
		data = append(data, byte(i))
	}
	return data
}

// edgeSchedule holds the numbers at the edges of the digit kernel and of
// appendSeconds: master hosts, the port extremes, zero and maximal sizes,
// start times at ±2^51 (either side of the exact-integer path) and below
// zero.
func edgeSchedule() []SynthFlow {
	const bound = int64(1) << 51
	var sched []SynthFlow
	for i, start := range []int64{0, -1, -999_999_999, -1_000_000_000, bound - 1, bound, -bound + 1, -bound, bound + 1, -bound - 1} {
		sched = append(sched, SynthFlow{
			StartNs: start, SrcHost: -1, DstHost: i % 3, SrcPort: 0, DstPort: 65535,
			Bytes: []int64{0, math.MaxInt64}[i%2], Phase: flows.PhaseControl, Job: "edge",
		})
	}
	return sched
}

// manyJobsSchedule has n flows, each of its own job, so n > maxRowTails
// makes the tail table start over in the middle of a stream.
func manyJobsSchedule(n int) []SynthFlow {
	sched := make([]SynthFlow, n)
	for i := range sched {
		sched[i] = SynthFlow{StartNs: int64(i) * 1_234_567, SrcHost: i % 5, DstHost: 4 - i%5,
			SrcPort: 40000 + i, DstPort: 13562, Bytes: int64(i) << 10,
			Phase: flows.AllPhases[i%len(flows.AllPhases)], Job: fmt.Sprintf("j%d", i)}
	}
	return sched
}

// interleavedSchedule cycles rows over jobs distinct jobs, as a merged
// stream of overlapping jobs does, so nearly every row changes job.
func interleavedSchedule(jobs, rows int) []SynthFlow {
	sched := manyJobsSchedule(rows)
	for i := range sched {
		sched[i].Job = fmt.Sprintf("job-%d", i%jobs)
	}
	return sched
}

// FuzzStreamEncoders is the differential check of the append-based
// encoders: any batch of flows, split into any chunks, must encode to the
// reference encoders' bytes in every format. fuzzFlows gives every row's
// job string its own allocation, so the interleaved seeds check that a
// job found under another address still encodes its own tail, and that
// jobs past the table's slots evict and re-encode each other.
func FuzzStreamEncoders(f *testing.F) {
	f.Add([]byte{}, uint8(7))
	f.Add(fuzzInput(goldenSchedule()), uint8(7))
	f.Add(fuzzInput(hostileSchedule()), uint8(15))
	f.Add(fuzzInput(edgeSchedule()), uint8(3))
	f.Add(fuzzInput(manyJobsSchedule(maxRowTails+44)), uint8(31))
	f.Add(fuzzInput(interleavedSchedule(3, 60)), uint8(5))
	f.Add(fuzzInput(interleavedSchedule(maxRowTails+3, 2*maxRowTails)), uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		checkEncodersAgree(t, fuzzFlows(data), int(workers%64)+1)
	})
}

// TestAppendSecondsMatchesFormatFloat pins the integer formatting path to
// the float one around its bound, at sub-second and negative values, and
// at the extremes the float path keeps.
func TestAppendSecondsMatchesFormatFloat(t *testing.T) {
	const bound = int64(1) << 51
	values := []int64{0, 1, -1, 5, -5, 999_999_999, 1_000_000_000, -1_000_000_001, 1_500_000_000,
		86_400_123_456_789, bound - 1, bound, bound + 1, -bound + 1, -bound, -bound - 1,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for v := bound - 1; v > 0; v = v/3 - 7 {
		values = append(values, v, -v, v+999_999_999)
	}
	for _, ns := range values {
		want := strconv.FormatFloat(float64(ns)/1e9, 'f', 9, 64)
		if got := string(appendSeconds(nil, ns)); got != want {
			t.Errorf("appendSeconds(%d) = %s, want %s", ns, got, want)
		}
	}
}

// TestAppendIntMatchesStrconv pins the digit kernel to strconv.AppendInt:
// every value in [-10^6, 10^6], each power of ten and its neighbours, the
// int64 extremes, and a seeded sweep over every magnitude.
func TestAppendIntMatchesStrconv(t *testing.T) {
	// A prefix checks that the kernel appends, not overwrites.
	got, want := append(make([]byte, 0, 32), "x,"...), append(make([]byte, 0, 32), "x,"...)
	check := func(v int64) {
		if g, w := appendInt(got[:2], v), strconv.AppendInt(want[:2], v, 10); !bytes.Equal(g, w) {
			t.Fatalf("appendInt(%d) = %s, want %s", v, g, w)
		}
	}
	for v := int64(-1e6); v <= 1e6; v++ {
		check(v)
	}
	for p := int64(1); ; p *= 10 {
		for _, v := range []int64{p - 1, p, p + 1} {
			check(v)
			check(-v)
		}
		if p > math.MaxInt64/10 {
			break
		}
	}
	check(math.MaxInt64)
	check(math.MinInt64)
	check(math.MinInt64 + 1)
	rng := rand.New(rand.NewPCG(1, 2))
	for range 200_000 {
		check(int64(rng.Uint64()) >> rng.IntN(64))
	}
}

// TestTailTableBounded: a stream of more distinct (phase, job) pairs than
// maxRowTails keeps the table at its maxRowTails slots. The same schedule's bytes
// are checked by TestStreamEncodersMatchReference.
func TestTailTableBounded(t *testing.T) {
	sched := manyJobsSchedule(3*maxRowTails + 7)
	enc, err := NewStreamEncoder("jsonl", io.Discard, 8)
	if err != nil {
		t.Fatal(err)
	}
	rw := &enc.(*jsonlEncoder).rowWriter
	for _, f := range sched {
		if err := enc.Flows([]SynthFlow{f, f}); err != nil {
			t.Fatal(err)
		}
		if len(rw.tails) != maxRowTails {
			t.Fatalf("tail table holds %d slots, want %d", len(rw.tails), maxRowTails)
		}
	}
	if err := enc.End(); err != nil {
		t.Fatal(err)
	}
}
