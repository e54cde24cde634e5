package pcap

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// writeTrace serialises pkts into a fresh trace buffer.
func writeTrace(t *testing.T, pkts []Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll opens data and drains it with ReadAll.
func readAll(data []byte) ([]Packet, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// TestReadAllTruncatedTrace: a trace cut inside a record, as a crashed
// capture leaves it, reads back as the intact prefix plus ErrBadTrace.
func TestReadAllTruncatedTrace(t *testing.T) {
	pkts := []Packet{
		{TsNs: 1, Src: HostAddr(1), Dst: HostAddr(2), SrcPort: 1000, DstPort: 50010, Len: 1448, Proto: ProtoTCP, Flags: FlagACK},
		{TsNs: 2, Src: HostAddr(2), Dst: HostAddr(3), SrcPort: 1001, DstPort: 13562, Len: 900, Proto: ProtoTCP, Flags: FlagACK},
		{TsNs: 3, Src: HostAddr(3), Dst: HostAddr(1), SrcPort: 1002, DstPort: 50010, Len: 0, Proto: ProtoTCP, Flags: FlagRST},
	}
	raw := writeTrace(t, pkts)

	// Cut mid-way through the final record.
	cut := raw[:len(raw)-recordSize/2]
	got, err := readAll(cut)
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("ReadAll of truncated trace: err = %v, want ErrBadTrace", err)
	}
	if !reflect.DeepEqual(got, []Packet{pkts[0], pkts[1]}) {
		t.Fatalf("ReadAll returned %d packets %+v, want the 2 intact records", len(got), got)
	}
}

// TestReadAllIntactAndHeaderDamage: an intact trace reads back whole
// with no error; a damaged or short header yields no records and a
// typed error.
func TestReadAllIntactAndHeaderDamage(t *testing.T) {
	pkts := []Packet{
		{TsNs: 7, Src: HostAddr(4), Dst: HostAddr(5), SrcPort: 1003, DstPort: 8020, Len: 64, Proto: ProtoTCP, Flags: FlagACK},
	}
	raw := writeTrace(t, pkts)

	got, err := readAll(raw)
	if err != nil {
		t.Fatalf("ReadAll of intact trace: %v", err)
	}
	if !reflect.DeepEqual(got, pkts) {
		t.Fatalf("ReadAll of intact trace = %+v, want %+v", got, pkts)
	}

	// Flip a magic byte: nothing readable, typed error.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	got, err = readAll(bad)
	if !errors.Is(err, ErrBadTrace) || got != nil {
		t.Fatalf("ReadAll with bad magic = %+v, err %v, want nil + ErrBadTrace", got, err)
	}

	// A header cut short is also typed, not an io error.
	got, err = readAll(raw[:4])
	if !errors.Is(err, ErrBadTrace) || got != nil {
		t.Fatalf("ReadAll with short header = %+v, err %v, want nil + ErrBadTrace", got, err)
	}
}
