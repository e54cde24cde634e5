package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzPcapReader throws arbitrary bytes at the trace reader. Whatever
// the input, the reader must not panic, must never hand back a record
// claiming more than MaxPacketLen payload, and must fail only with
// ErrBadTrace-wrapping errors. ReadAll must return, error or not,
// exactly the records a ReadPacket loop decodes before its first error.
func FuzzPcapReader(f *testing.F) {
	// Seed: a well-formed two-record trace from the real writer.
	var good bytes.Buffer
	w, err := NewWriter(&good)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.WritePacket(Packet{TsNs: 1, Src: HostAddr(1), Dst: HostAddr(2), SrcPort: 999, DstPort: 50010, Proto: ProtoTCP, Flags: FlagSYN})
	_ = w.WritePacket(Packet{TsNs: 2, Src: HostAddr(1), Dst: HostAddr(2), SrcPort: 999, DstPort: 50010, Len: 1448, Proto: ProtoTCP, Flags: FlagACK})
	_ = w.Flush()
	f.Add(good.Bytes())
	// Seed: truncated record tail.
	f.Add(good.Bytes()[:good.Len()-5])
	// Seed: bad magic, short input.
	f.Add([]byte("BOGUS!!!"))
	f.Add([]byte("KD"))

	f.Fuzz(func(t *testing.T, data []byte) {
		all, allErr := readAll(data)
		if allErr != nil && !errors.Is(allErr, ErrBadTrace) {
			t.Fatalf("ReadAll failed with non-ErrBadTrace error: %v", allErr)
		}
		for i, p := range all {
			if p.Len > MaxPacketLen {
				t.Fatalf("record %d claims %d bytes > MaxPacketLen", i, p.Len)
			}
		}

		var looped []Packet
		var loopErr error
		if r, err := NewReader(bytes.NewReader(data)); err != nil {
			loopErr = err
		} else {
			for {
				p, err := r.ReadPacket()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					loopErr = err
					break
				}
				looped = append(looped, p)
			}
		}
		if (allErr == nil) != (loopErr == nil) {
			t.Fatalf("ReadAll err %v but ReadPacket loop err %v", allErr, loopErr)
		}
		if len(all) != len(looped) {
			t.Fatalf("ReadAll decoded %d records, the ReadPacket loop %d", len(all), len(looped))
		}
		for i := range looped {
			if all[i] != looped[i] {
				t.Fatalf("record %d differs: ReadAll %+v, ReadPacket %+v", i, all[i], looped[i])
			}
		}
	})
}
