package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace format: 8-byte header (magic "KDHP" + u32 version), then a stream
// of fixed-size 28-byte little-endian packet records.

var traceMagic = [4]byte{'K', 'D', 'H', 'P'}

const (
	traceVersion = 1
	recordSize   = 8 + 4 + 4 + 2 + 2 + 4 + 1 + 1 + 2 // ts,src,dst,sp,dp,len,proto,flags,pad
)

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("pcap: malformed trace")

// MaxPacketLen is the largest payload length a record may claim (1 GiB).
// Synthesised records carry at most a few MSS of coalesced payload, so
// anything near this bound is file corruption, not data; readers reject
// such records instead of passing silently absurd lengths downstream.
const MaxPacketLen = 1 << 30

// Writer streams packets to a trace.
type Writer struct {
	w   *bufio.Writer
	buf [recordSize]byte
	n   int64
}

// NewWriter writes the trace header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("write trace magic: %w", err)
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], traceVersion)
	if _, err := bw.Write(v[:]); err != nil {
		return nil, fmt.Errorf("write trace version: %w", err)
	}
	return &Writer{w: bw}, nil
}

// WritePacket appends one record.
func (w *Writer) WritePacket(p Packet) error {
	b := w.buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(p.TsNs))
	binary.LittleEndian.PutUint32(b[8:], uint32(p.Src))
	binary.LittleEndian.PutUint32(b[12:], uint32(p.Dst))
	binary.LittleEndian.PutUint16(b[16:], p.SrcPort)
	binary.LittleEndian.PutUint16(b[18:], p.DstPort)
	binary.LittleEndian.PutUint32(b[20:], p.Len)
	b[24] = p.Proto
	b[25] = p.Flags
	b[26], b[27] = 0, 0
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("write packet record: %w", err)
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.n }

// Flush drains buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams packets from a trace.
type Reader struct {
	r   *bufio.Reader
	buf [recordSize]byte
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadTrace, err)
	}
	if [4]byte(hdr[:4]) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	return &Reader{r: br}, nil
}

// ReadPacket returns the next record, or io.EOF at end of trace.
func (r *Reader) ReadPacket() (Packet, error) {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("%w: truncated record: %v", ErrBadTrace, err)
	}
	b := r.buf[:]
	p := Packet{
		TsNs:    int64(binary.LittleEndian.Uint64(b[0:])),
		Src:     Addr(binary.LittleEndian.Uint32(b[8:])),
		Dst:     Addr(binary.LittleEndian.Uint32(b[12:])),
		SrcPort: binary.LittleEndian.Uint16(b[16:]),
		DstPort: binary.LittleEndian.Uint16(b[18:]),
		Len:     binary.LittleEndian.Uint32(b[20:]),
		Proto:   b[24],
		Flags:   b[25],
	}
	if p.Len > MaxPacketLen {
		return Packet{}, fmt.Errorf("%w: record claims %d-byte payload (max %d)", ErrBadTrace, p.Len, MaxPacketLen)
	}
	return p, nil
}

// ReadAll drains the trace into memory. On a damaged trace it returns
// every record decoded before the damage together with an error
// wrapping ErrBadTrace.
func (r *Reader) ReadAll() ([]Packet, error) {
	var out []Packet
	for {
		p, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
