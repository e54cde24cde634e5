package core

import (
	"bytes"
	"strings"
	"testing"

	"keddah/internal/flows"
	"keddah/internal/pcap"
)

func flowRec(srcPort, dstPort uint16, size int64, startNs int64) pcap.FlowRecord {
	return pcap.FlowRecord{
		Key: pcap.FlowKey{Src: pcap.HostAddr(1), Dst: pcap.HostAddr(2),
			SrcPort: srcPort, DstPort: dstPort, Proto: pcap.ProtoTCP},
		Bytes: size, FirstNs: startNs, LastNs: startNs + 1000,
	}
}

func TestValidateIdenticalSetsPerfect(t *testing.T) {
	recs := []pcap.FlowRecord{
		flowRec(flows.PortShuffle, 40000, 100, 0),
		flowRec(flows.PortShuffle, 40001, 200, 10),
		flowRec(flows.PortDataNodeData, 40002, 300, 20),
	}
	v := ValidateWith("x", recs, recs, nil)
	if len(v.Phases) != 2 {
		t.Fatalf("phases = %d", len(v.Phases))
	}
	for _, pc := range v.Phases {
		if pc.SizeKS != 0 {
			t.Errorf("%s: KS = %v on identical sets", pc.Phase, pc.SizeKS)
		}
		if pc.VolumeError != 0 {
			t.Errorf("%s: volume error = %v on identical sets", pc.Phase, pc.VolumeError)
		}
		if pc.MeasuredFlows != pc.GeneratedFlows {
			t.Errorf("%s: flow counts differ", pc.Phase)
		}
	}
}

func TestValidateDetectsVolumeGap(t *testing.T) {
	meas := []pcap.FlowRecord{flowRec(flows.PortShuffle, 1, 1000, 0)}
	gen := []pcap.FlowRecord{flowRec(flows.PortShuffle, 2, 1500, 0)}
	v := ValidateWith("x", meas, gen, nil)
	if len(v.Phases) != 1 {
		t.Fatalf("phases = %d", len(v.Phases))
	}
	pc := v.Phases[0]
	if pc.VolumeError < 0.49 || pc.VolumeError > 0.51 {
		t.Errorf("volume error = %v, want 0.5", pc.VolumeError)
	}
	if pc.SizeKS != 1 {
		t.Errorf("size KS = %v, want 1 for disjoint sizes", pc.SizeKS)
	}
}

func TestValidateTableOutput(t *testing.T) {
	meas := []pcap.FlowRecord{flowRec(flows.PortShuffle, 1, 1000, 0)}
	v := ValidateWith("tera", meas, meas, nil)
	var buf bytes.Buffer
	if err := v.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "shuffle") {
		t.Errorf("table missing phase row: %q", out)
	}
	if !strings.Contains(out, "size KS") {
		t.Errorf("table missing header: %q", out)
	}
}

func TestValidatePhaseOnlyOnOneSide(t *testing.T) {
	meas := []pcap.FlowRecord{flowRec(flows.PortShuffle, 1, 1000, 0)}
	gen := []pcap.FlowRecord{flowRec(flows.PortDataNodeData, 2, 1000, 0)}
	v := ValidateWith("x", meas, gen, nil)
	// Both phases appear: shuffle measured-only, hdfs_read generated-only.
	if len(v.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(v.Phases))
	}
	for _, pc := range v.Phases {
		switch pc.Phase {
		case flows.PhaseShuffle:
			if pc.GeneratedFlows != 0 || pc.MeasuredFlows != 1 {
				t.Errorf("shuffle counts = %d/%d", pc.MeasuredFlows, pc.GeneratedFlows)
			}
		case flows.PhaseHDFSRead:
			if pc.MeasuredFlows != 0 || pc.GeneratedFlows != 1 {
				t.Errorf("read counts = %d/%d", pc.MeasuredFlows, pc.GeneratedFlows)
			}
		}
	}
}
