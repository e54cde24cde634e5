package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"keddah/internal/flows"
	"keddah/internal/pcap"
)

// Trace layout: an 8-byte header, then fixed 28-byte records whose
// payload length sits at byte 20.
const (
	headerLen = 8
	recordLen = 28
)

// writeTrace writes a four-packet shuffle flow and returns the file's
// bytes.
func writeTrace(t *testing.T, path string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := pcap.HostAddr(1), pcap.HostAddr(2)
	for i, p := range []pcap.Packet{
		{Flags: pcap.FlagSYN},
		{Len: 1448, Flags: pcap.FlagACK},
		{Len: 1448, Flags: pcap.FlagACK},
		{Flags: pcap.FlagFIN | pcap.FlagACK},
	} {
		p.TsNs, p.Src, p.Dst = int64(i)*1000, src, dst
		p.SrcPort, p.DstPort, p.Proto = flows.PortShuffle, 40000, 6
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != headerLen+4*recordLen {
		t.Fatalf("trace is %d bytes, want %d", buf.Len(), headerLen+4*recordLen)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunReadsWholeTrace: an intact trace reports every packet.
func TestRunReadsWholeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.kdh")
	writeTrace(t, path)
	var out, errOut bytes.Buffer
	if err := run([]string{"-in", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "packets: 4 ") {
		t.Errorf("report does not count 4 packets:\n%s", out.String())
	}
}

// TestRunRejectsDamagedTrace: a trace cut inside a record, or holding a
// record that claims more than MaxPacketLen bytes, fails with
// pcap.ErrBadTrace instead of reporting the packets before the damage.
func TestRunRejectsDamagedTrace(t *testing.T) {
	dir := t.TempDir()
	good := writeTrace(t, filepath.Join(dir, "good.kdh"))
	corrupt := bytes.Clone(good)
	binary.LittleEndian.PutUint32(corrupt[headerLen+recordLen+20:], pcap.MaxPacketLen+1)
	for name, data := range map[string][]byte{
		"truncated to half": good[:headerLen+2*recordLen+recordLen/2],
		"one byte short":    good[:len(good)-1],
		"oversized record":  corrupt,
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".kdh")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		if err := run([]string{"-in", path}, &out, &errOut); !errors.Is(err, pcap.ErrBadTrace) {
			t.Errorf("%s: run = %v, want an error wrapping pcap.ErrBadTrace (stdout %q)", name, err, out.String())
		}
	}
}
