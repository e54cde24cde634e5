package core

import (
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/sim"
)

// This file provides external-simulator exports of synthetic schedules —
// the role the original toolchain's ns-3 module plays. Three formats:
//
//   - CSV: one flow per row (start_s, src, dst, src_port, dst_port,
//     bytes, phase, job). Trivially consumed by pandas/gnuplot or a
//     custom simulator application.
//   - JSONL: one JSON-encoded SynthFlow per line — the streaming twin of
//     keddah-gen's JSON array output, consumable record-by-record by a
//     client that never holds the whole schedule.
//   - NS3: a C++-ish command stream for a BulkSendApplication-style
//     replay driver: one "flow" directive per line plus node-count
//     metadata, matching the keddah-ns3 driver convention:
//
//     # keddah-ns3 v1
//     nodes <workers+1>
//     flow <start_s> <srcNode> <dstNode> <dstPort> <bytes> <tag>
//
// Host numbering in CSV and NS3: workers are 0..N-1 and the master is
// node N (the last index), so a driver can allocate N+1 ns-3 nodes and
// wire them to its chosen topology helper.
//
// Every format is implemented as a StreamEncoder, and the batch Export*
// helpers are Begin+Flows+End in one call — so a chunked stream
// (keddah-serve) and a batch export (keddah-gen) of the same schedule
// produce byte-identical output, and every write error (a dead socket, a
// full disk) is propagated promptly instead of truncating silently.

// StreamEncoder writes a schedule incrementally: Begin writes the
// format's header, Flows appends any number of flow batches (each batch
// is flushed to the underlying writer before returning, so a streaming
// caller never buffers more than one batch), and End flushes any
// remaining state. Methods must not be called after an error.
type StreamEncoder interface {
	// ContentType is the MIME type of the encoded stream.
	ContentType() string
	Begin() error
	Flows([]SynthFlow) error
	End() error
}

// NewStreamEncoder returns the encoder for format — "csv", "jsonl" or
// "ns3" — writing to w. workers is the worker host count the ns3 header
// needs for its node count; the other formats ignore it.
func NewStreamEncoder(format string, w io.Writer, workers int) (StreamEncoder, error) {
	rows := func(what string, encodeTail func([]byte, tailKey) []byte) rowWriter {
		r := newRowWriter(w, what)
		r.encodeTail = encodeTail
		return r
	}
	switch format {
	case "csv":
		return &csvEncoder{rows("write csv rows", csvTail)}, nil
	case "jsonl":
		return &jsonlEncoder{rows("write jsonl rows", jsonlTail)}, nil
	case "ns3":
		if workers <= 0 {
			return nil, fmt.Errorf("core: ns3 export needs a positive worker count")
		}
		return &ns3Encoder{rows("write ns3 flows", ns3Tail), workers}, nil
	default:
		return nil, fmt.Errorf("core: unknown schedule format %q (csv | jsonl | ns3)", format)
	}
}

// exportAll is the batch path: one encoder, one Flows call.
func exportAll(format string, w io.Writer, schedule []SynthFlow, workers int) error {
	enc, err := NewStreamEncoder(format, w, workers)
	if err != nil {
		return err
	}
	if err := enc.Begin(); err != nil {
		return err
	}
	if err := enc.Flows(schedule); err != nil {
		return err
	}
	return enc.End()
}

// ExportCSV writes the schedule as CSV with a header row.
func ExportCSV(w io.Writer, schedule []SynthFlow) error {
	return exportAll("csv", w, schedule, 0)
}

// ExportJSONL writes the schedule as one JSON object per line.
func ExportJSONL(w io.Writer, schedule []SynthFlow) error {
	return exportAll("jsonl", w, schedule, 0)
}

// encFlushBytes bounds an encoder's buffer. Rows are appended to one
// reused []byte and reach the sink in writes of at most this many bytes
// (a single longer row goes alone), and whatever is buffered is written
// before Flows returns.
const encFlushBytes = 64 << 10

// encBufBytes is an encoder buffer's capacity: the flush threshold plus
// room for the row that crosses it.
const encBufBytes = encFlushBytes + 4<<10

// encBufs recycles encoder buffers across streams (End returns them). A
// server opens one encoder per request, and a fresh buffer per request —
// worse, one grown by doubling — fragments its heap.
var encBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, encBufBytes)
	return &b
}}

// maxRowTails is the number of slots in an encoder's table of encoded
// string fields, a power of two.
const maxRowTails = 256

// tailKey is the string content of a row: every format encodes its
// phase and job fields last, so the encoded tail of a row depends on
// these two strings alone.
type tailKey struct {
	phase flows.Phase
	job   string
}

// rowTail is one (phase, job) pair's encoded tail.
type rowTail struct {
	tailKey
	enc []byte
}

// rowWriter is the buffer and string table the append-based encoders
// share. Every string field is escaped once per distinct (phase, job)
// pair while the pair keeps its slot in the table; a schedule has a
// handful of phases and one label per job, so the table turns per-row
// escaping into a copy.
type rowWriter struct {
	w      io.Writer
	buf    []byte
	what   string  // error context of a failed row write
	pooled *[]byte // where buf goes back to encBufs

	encodeTail func(dst []byte, k tailKey) []byte // the format's tail

	last  *rowTail  // the previous row's slot
	tails []rowTail // maxRowTails slots, made on the first miss
}

// newRowWriter returns a rowWriter on w with a buffer from encBufs; what
// is the error context of a failed row write.
func newRowWriter(w io.Writer, what string) rowWriter {
	pooled := encBufs.Get().(*[]byte)
	return rowWriter{w: w, buf: (*pooled)[:0], what: what, pooled: pooled, last: &rowTail{}}
}

// tail returns the encoding of sf's string fields, building it with
// encodeTail on a miss. A row with the previous row's pair compares two
// strings, usually by pointer; any other row looks in one slot of a
// direct-mapped table.
func (r *rowWriter) tail(sf *SynthFlow) []byte {
	if t := r.last; sf.Job == t.job && sf.Phase == t.phase && t.enc != nil {
		return t.enc
	}
	return r.findTail(sf)
}

// findTail is tail past the previous row's pair. The slot comes from the
// addresses of the job and phase strings, which a schedule's flows share
// per job, so it costs no hashing of their bytes; a hit is checked by
// string equality, so the bytes never depend on where a string lives. A
// miss encodes the tail over the slot's previous one, reusing its
// buffer.
func (r *rowWriter) findTail(sf *SynthFlow) []byte {
	if r.tails == nil {
		r.tails = make([]rowTail, maxRowTails)
	}
	t := &r.tails[tailSlot(sf)]
	if sf.Job != t.job || sf.Phase != t.phase || t.enc == nil {
		t.tailKey = tailKey{sf.Phase, sf.Job}
		t.enc = r.encodeTail(t.enc[:0], t.tailKey)
	}
	r.last = t
	return t.enc
}

// tailSlot is the table slot of sf's (phase, job) pair: a multiplicative
// hash of the two strings' addresses.
func tailSlot(sf *SynthFlow) int {
	job := uint64(uintptr(unsafe.Pointer(unsafe.StringData(sf.Job))))
	ph := uint64(uintptr(unsafe.Pointer(unsafe.StringData(string(sf.Phase)))))
	return int((job*0x9e3779b97f4a7c15 ^ ph) * 0xff51afd7ed558ccd >> (64 - bits.Len(maxRowTails-1)))
}

// rowDone is called after each row, which began at offset mark: once the
// buffer passes encFlushBytes, everything before the row is written and
// the row moves to the front.
func (r *rowWriter) rowDone(mark int) error {
	if len(r.buf) <= encFlushBytes || mark == 0 {
		return nil
	}
	return r.spill(mark)
}

// spill writes the buffer up to mark and keeps the rest. It is split out
// of rowDone so that the per-row check inlines into the row loops.
func (r *rowWriter) spill(mark int) error {
	_, err := r.w.Write(r.buf[:mark])
	r.buf = r.buf[:copy(r.buf, r.buf[mark:])]
	return errWrap(r.what, err)
}

// flush writes whatever is buffered.
func (r *rowWriter) flush(what string) error {
	if len(r.buf) == 0 {
		return nil
	}
	_, err := r.w.Write(r.buf)
	r.buf = r.buf[:0]
	return errWrap(what, err)
}

// end flushes and returns the buffer to encBufs: the End of every format.
// A buffer an oversized row grew is left to the collector.
func (r *rowWriter) end(what string) error {
	err := r.flush(what)
	if r.pooled != nil && cap(r.buf) <= encBufBytes {
		*r.pooled = r.buf[:0]
		encBufs.Put(r.pooled)
	}
	r.buf, r.pooled = nil, nil
	return err
}

// The digit kernel writes integers straight into the row buffer, eight
// digits per step: digits8 splits a value below 10^8 into two four-digit
// halves, then with two multiply-shift steps into one byte lane per digit
// inside a uint64, and putDigits or put8 stores the lanes with one 8-byte
// write. Values below 100 skip the lanes. Its bytes are
// strconv.AppendInt's (TestAppendIntMatchesStrconv).

// asciiZeros turns eight digit lanes into ASCII.
const asciiZeros = 0x3030303030303030

// digits8 returns the eight decimal digits of v < 10^8, leading zeros
// included, as byte lanes of values 0–9, the most significant digit in
// the lowest byte: stored little-endian, they read in order.
func digits8(v uint32) uint64 {
	// Two 32-bit lanes of four digits each.
	x := uint64(v/10000) | uint64(v%10000)<<32
	// n/100 = n*5243>>19 for n < 10^4; a lane's product stays below
	// 2^26, so no lane spills into the next, and the mask drops what
	// the shift pulls down from the lane above.
	hi := x * 5243 >> 19 & 0x0000007f_0000007f
	x = hi | (x-100*hi)<<16
	// n/10 = n*103>>10 for n < 100, in four 16-bit lanes.
	hi = x * 103 >> 10 & 0x000f000f_000f000f
	return hi | (x-10*hi)<<8
}

// putDigits writes v < 10^8 at b without leading zeros (0 is "0") and
// returns how many digits that is. It stores eight bytes, so b must have
// room for them past the digits. The digit count comes from v itself,
// not from the lanes, so the next field's offset does not wait for them.
func putDigits(b []byte, v uint32) int {
	n := decimalLen(v)
	binary.LittleEndian.PutUint64(b, digits8(v)>>(64-8*n)|asciiZeros)
	return n
}

// pow10 holds 10^0 to 10^8.
var pow10 = [...]uint32{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// decimalLen is the number of decimal digits of v < 10^8, 1 for 0: its
// bit length times log10(2) (1233/4096), corrected by one comparison.
func decimalLen(v uint32) int {
	t := bits.Len32(v|1) * 1233 >> 12
	if v|1 < pow10[t] {
		return t
	}
	return t + 1
}

// put8 writes v < 10^8 at b as exactly eight digits.
func put8(b []byte, v uint32) {
	binary.LittleEndian.PutUint64(b, digits8(v)|asciiZeros)
}

// appendInt appends v in decimal: the bytes of strconv.AppendInt(dst, v,
// 10). It reserves room for the widest value (a sign, four leading
// digits stored as eight, then sixteen) and writes into it in place.
func appendInt(dst []byte, v int64) []byte {
	const room = 1 + 8 + 16
	n := len(dst)
	dst = slices.Grow(dst, room)
	b := dst[n : n+room]
	u := uint64(v)
	i := 0
	if v < 0 {
		b[0] = '-'
		u, i = -u, 1
	}
	switch {
	case u < 100:
		// Host indices mostly: two digits cost less than the lanes.
		if u >= 10 {
			b[i] = byte('0' + u/10)
			i++
		}
		b[i] = byte('0' + u%10)
		i++
	case u < 1e8:
		i += putDigits(b[i:], uint32(u))
	case u < 1e16:
		i += putDigits(b[i:], uint32(u/1e8))
		put8(b[i:], uint32(u%1e8))
		i += 8
	default:
		i += putDigits(b[i:], uint32(u/1e16))
		put8(b[i:], uint32(u/1e8%1e8))
		put8(b[i+8:], uint32(u%1e8))
		i += 16
	}
	return dst[:n+i]
}

// appendSeconds formats nanoseconds as seconds with nine decimals: the
// bytes of strconv.AppendFloat(dst, float64(ns)/1e9, 'f', 9, 64), which
// is also what %.9f prints. Fixed-precision float formatting takes
// strconv's slow multi-precision path, so below 2^51 ns (26 days) the
// digits come from the integer instead: there the float quotient lies
// within a quarter nanosecond of ns/1e9, so rounding it to nine decimals
// gives back ns exactly.
func appendSeconds(dst []byte, ns int64) []byte {
	const exact = 1 << 51
	if ns <= -exact || ns >= exact {
		return strconv.AppendFloat(dst, float64(ns)/1e9, 'f', 9, 64)
	}
	// A sign, the whole seconds (below 10^8, stored as eight bytes), the
	// point, then the fraction's first digit and its other eight.
	const room = 1 + 8 + 1 + 1 + 8
	n := len(dst)
	dst = slices.Grow(dst, room)
	b := dst[n : n+room]
	i := 0
	if ns < 0 {
		b[0] = '-'
		ns, i = -ns, 1
	}
	i += putDigits(b[i:], uint32(ns/1e9))
	frac := ns % 1e9
	b[i] = '.'
	b[i+1] = byte('0' + frac/1e8)
	put8(b[i+2:], uint32(frac%1e8))
	return dst[:n+i+10]
}

type csvEncoder struct{ rowWriter }

func (e *csvEncoder) ContentType() string { return "text/csv" }

func (e *csvEncoder) Begin() error {
	e.buf = append(e.buf, "start_s,src_host,dst_host,src_port,dst_port,bytes,phase,job\n"...)
	return e.flush("write csv header")
}

func (e *csvEncoder) Flows(schedule []SynthFlow) error {
	for i := range schedule {
		sf := &schedule[i]
		mark := len(e.buf)
		b := appendSeconds(e.buf, sf.StartNs)
		b = append(b, ',')
		b = appendInt(b, int64(sf.SrcHost))
		b = append(b, ',')
		b = appendInt(b, int64(sf.DstHost))
		b = append(b, ',')
		b = appendInt(b, int64(sf.SrcPort))
		b = append(b, ',')
		b = appendInt(b, int64(sf.DstPort))
		b = append(b, ',')
		b = appendInt(b, sf.Bytes)
		e.buf = append(b, e.tail(sf)...)
		if err := e.rowDone(mark); err != nil {
			return err
		}
	}
	return e.flush(e.what)
}

func (e *csvEncoder) End() error { return e.end("flush csv export") }

// csvTail encodes ",phase,job\n".
func csvTail(dst []byte, k tailKey) []byte {
	dst = appendCSVField(append(dst, ','), string(k.phase))
	dst = appendCSVField(append(dst, ','), k.job)
	return append(dst, '\n')
}

// appendCSVField writes one field the way encoding/csv's Writer does
// with its defaults: quoted when it holds the delimiter, a quote, CR or
// LF, starts with a space, or is exactly `\.`; quotes inside are doubled.
func appendCSVField(dst []byte, field string) []byte {
	if !csvNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, field[i])
	}
	return append(dst, '"')
}

func csvNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` || strings.ContainsAny(field, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

type jsonlEncoder struct{ rowWriter }

func (e *jsonlEncoder) ContentType() string { return "application/x-ndjson" }

func (e *jsonlEncoder) Begin() error { return nil }

// Flows writes each flow as the line json.Encoder would: the SynthFlow
// fields in declaration order under their JSON names.
func (e *jsonlEncoder) Flows(schedule []SynthFlow) error {
	for i := range schedule {
		sf := &schedule[i]
		mark := len(e.buf)
		b := append(e.buf, `{"startNs":`...)
		b = appendInt(b, sf.StartNs)
		b = append(b, `,"srcHost":`...)
		b = appendInt(b, int64(sf.SrcHost))
		b = append(b, `,"dstHost":`...)
		b = appendInt(b, int64(sf.DstHost))
		b = append(b, `,"srcPort":`...)
		b = appendInt(b, int64(sf.SrcPort))
		b = append(b, `,"dstPort":`...)
		b = appendInt(b, int64(sf.DstPort))
		b = append(b, `,"bytes":`...)
		b = appendInt(b, sf.Bytes)
		e.buf = append(b, e.tail(sf)...)
		if err := e.rowDone(mark); err != nil {
			return err
		}
	}
	return e.flush(e.what)
}

func (e *jsonlEncoder) End() error { return e.end("flush jsonl export") }

// jsonlTail encodes `,"phase":…,"job":…}` and the line break.
func jsonlTail(dst []byte, k tailKey) []byte {
	dst = appendJSONString(append(dst, `,"phase":`...), string(k.phase))
	dst = appendJSONString(append(dst, `,"job":`...), k.job)
	return append(dst, "}\n"...)
}

// appendJSONString appends s as a JSON string the way encoding/json's
// Encoder writes it by default. A string of printable ASCII with nothing
// to escape is copied between quotes; any other goes through
// json.Marshal, so the HTML, control-character, U+2028/U+2029 and
// invalid-UTF-8 escaping stay exactly encoding/json's.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			q, err := json.Marshal(s)
			if err != nil {
				// Marshalling a string cannot fail.
				panic(err)
			}
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// jsonPlain marks the bytes encoding/json copies into a string as they
// are: printable ASCII other than the quote, the backslash and the HTML
// characters <, > and &.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// errWrap contextualises a non-nil error and passes nil through.
func errWrap(what string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// ImportCSV reads a schedule previously written by ExportCSV, which it
// gets back unchanged: start times to the nanosecond (parseStartNs).
// Rows with equal phase or job labels share one copy of each, as
// generated flows do, so a row pins no other field of its line and the
// encoders' string table finds the label where it found it last.
func ImportCSV(r io.Reader) ([]SynthFlow, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read csv header: %w", err)
	}
	if len(header) != 8 || header[0] != "start_s" {
		return nil, fmt.Errorf("core: not a keddah schedule CSV (header %v)", header)
	}
	labels := make(map[string]string)
	label := func(s string) string {
		if l, ok := labels[s]; ok {
			return l
		}
		s = strings.Clone(s)
		labels[s] = s
		return s
	}
	var out []SynthFlow
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("read csv line %d: %w", line, err)
		}
		startNs, err := parseStartNs(rec[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		var ints [4]int
		for i := range ints {
			v, err := strconv.Atoi(rec[1+i])
			if err != nil {
				return nil, fmt.Errorf("line %d: field %d: %w", line, i+1, err)
			}
			ints[i] = v
		}
		bytes, err := strconv.ParseInt(rec[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bytes: %w", line, err)
		}
		if bytes < 0 {
			return nil, fmt.Errorf("line %d: negative bytes %d", line, bytes)
		}
		out = append(out, SynthFlow{
			StartNs: startNs,
			SrcHost: ints[0],
			DstHost: ints[1],
			SrcPort: ints[2],
			DstPort: ints[3],
			Bytes:   bytes,
			Phase:   flows.Phase(label(rec[6])),
			Job:     label(rec[7]),
		})
	}
}

// parseStartNs reads a start time in seconds as nanoseconds in [0,
// sim.MaxTime). The "s.fffffffff" form ExportCSV writes is read exactly,
// as whole seconds × 10^9 plus the nine-digit fraction; any other
// spelling goes through a float, rounded to the nearest nanosecond.
func parseStartNs(field string) (int64, error) {
	if whole, frac, ok := strings.Cut(field, "."); ok && len(frac) == 9 {
		// ParseUint takes no sign, so these are plain digit strings.
		s, errS := strconv.ParseUint(whole, 10, 64)
		f, errF := strconv.ParseUint(frac, 10, 64)
		if errS == nil && errF == nil {
			if s > uint64(sim.MaxTime)/1e9 || s*1e9+f >= uint64(sim.MaxTime) {
				return 0, fmt.Errorf("start %s s outside [0, %v s)", field, float64(sim.MaxTime)/1e9)
			}
			return int64(s*1e9 + f), nil
		}
	}
	startS, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, fmt.Errorf("start: %w", err)
	}
	// Below 2^63 after rounding, the int64 conversion stays in range.
	startNs := math.Round(startS * 1e9)
	if math.IsNaN(startNs) || startNs < 0 || startNs >= float64(sim.MaxTime) {
		return 0, fmt.Errorf("start %v s outside [0, %v s)", startS, float64(sim.MaxTime)/1e9)
	}
	return int64(startNs), nil
}

// ExportNS3 writes the schedule in the keddah-ns3 driver format for the
// given worker count.
func ExportNS3(w io.Writer, schedule []SynthFlow, workers int) error {
	return exportAll("ns3", w, schedule, workers)
}

type ns3Encoder struct {
	rowWriter
	workers int
}

func (e *ns3Encoder) ContentType() string { return "text/plain" }

func (e *ns3Encoder) Begin() error {
	e.buf = append(e.buf, "# keddah-ns3 v1\nnodes "...)
	e.buf = append(appendInt(e.buf, int64(e.workers+1)), '\n')
	return e.flush("write ns3 header")
}

func (e *ns3Encoder) Flows(schedule []SynthFlow) error {
	for i := range schedule {
		sf := &schedule[i]
		mark := len(e.buf)
		b := append(e.buf, "flow "...)
		b = appendSeconds(b, sf.StartNs)
		b = append(b, ' ')
		b = appendInt(b, int64(e.node(sf.SrcHost)))
		b = append(b, ' ')
		b = appendInt(b, int64(e.node(sf.DstHost)))
		b = append(b, ' ')
		b = appendInt(b, int64(sf.DstPort))
		b = append(b, ' ')
		b = appendInt(b, sf.Bytes)
		e.buf = append(b, e.tail(sf)...)
		if err := e.rowDone(mark); err != nil {
			return err
		}
	}
	return e.flush(e.what)
}

func (e *ns3Encoder) End() error { return e.end("flush ns3 export") }

// node maps a host index to its ns-3 node: the master (-1) is the last.
func (e *ns3Encoder) node(h int) int {
	if h < 0 {
		return e.workers
	}
	return h % e.workers
}

// ns3Tail encodes " <tag>\n", the tag being "job:phase" (or the bare
// phase for an unlabelled flow) made single-token by sanitizeTag.
func ns3Tail(dst []byte, k tailKey) []byte {
	tag := string(k.phase)
	if k.job != "" {
		tag = k.job + ":" + tag
	}
	dst = append(append(dst, ' '), sanitizeTag(tag)...)
	return append(dst, '\n')
}

// sanitizeTag keeps driver lines single-token parseable.
func sanitizeTag(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == ':', r == '-', r == '_', r == '.', r == '/':
			return r
		default:
			return '_'
		}
	}, s)
}

// WriteFlowCSV exports a TraceSet's ground-truth flow records — every
// run plus background — as CSV, one flow per row in a fixed column
// order. The output is a pure function of the TraceSet, so the CI
// shard-determinism job byte-diffs it across engine layouts. Rows are
// appended to one reused buffer and reach w in writes of about
// encFlushBytes; the bytes are those of encoding/csv's Writer with its
// defaults (TestTraceSetWritersMatchReferences). A nil run has no rows.
func WriteFlowCSV(w io.Writer, ts *TraceSet) error {
	rw := newRowWriter(w, "write flow csv")
	rw.buf = append(rw.buf, "scope,label,src,dst,src_port,dst_port,first_ns,last_ns,bytes\n"...)
	err := appendFlowRows(&rw, "background", ts.Background)
	for _, run := range ts.Runs {
		if err != nil {
			break
		}
		if run != nil {
			err = appendFlowRows(&rw, run.JobName, run.Records)
		}
	}
	return endRows(&rw, "flush flow csv", err)
}

// endRows ends rw after its rows: it flushes them when err, the first
// row error, is nil, and otherwise drops them and returns err.
func endRows(rw *rowWriter, what string, err error) error {
	if err != nil {
		rw.buf = rw.buf[:0]
	}
	if endErr := rw.end(what); err == nil {
		err = endErr
	}
	return err
}

// appendFlowRows appends one CSV row per record, all under one scope.
func appendFlowRows(rw *rowWriter, scope string, records []pcap.FlowRecord) error {
	var scratch [64]byte
	head := appendCSVField(scratch[:0], scope)
	for i := range records {
		r := &records[i]
		mark := len(rw.buf)
		b := append(rw.buf, head...)
		b = appendCSVField(append(b, ','), r.Label)
		b = appendAddr(append(b, ','), r.Key.Src)
		b = appendAddr(append(b, ','), r.Key.Dst)
		b = appendInt(append(b, ','), int64(r.Key.SrcPort))
		b = appendInt(append(b, ','), int64(r.Key.DstPort))
		b = appendInt(append(b, ','), r.FirstNs)
		b = appendInt(append(b, ','), r.LastNs)
		b = appendInt(append(b, ','), r.Bytes)
		rw.buf = append(b, '\n')
		if err := rw.rowDone(mark); err != nil {
			return err
		}
	}
	return nil
}

// appendAddr appends a in dotted-quad form, the bytes of a.String().
func appendAddr(dst []byte, a pcap.Addr) []byte {
	dst = appendInt(dst, int64(byte(a>>24)))
	dst = appendInt(append(dst, '.'), int64(byte(a>>16)))
	dst = appendInt(append(dst, '.'), int64(byte(a>>8)))
	return appendInt(append(dst, '.'), int64(byte(a)))
}
