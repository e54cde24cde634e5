package core

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/stats"
	"keddah/internal/telemetry"
)

// PhaseComparison quantifies how closely generated traffic reproduces
// measured traffic for one phase.
type PhaseComparison struct {
	Phase flows.Phase `json:"phase"`
	// MeasuredFlows / GeneratedFlows are flow counts.
	MeasuredFlows  int `json:"measuredFlows"`
	GeneratedFlows int `json:"generatedFlows"`
	// MeasuredBytes / GeneratedBytes are volumes.
	MeasuredBytes  int64 `json:"measuredBytes"`
	GeneratedBytes int64 `json:"generatedBytes"`
	// SizeKS is the two-sample KS distance between per-flow size
	// distributions; SizeKSP its p-value.
	SizeKS  float64 `json:"sizeKS"`
	SizeKSP float64 `json:"sizeKSP"`
	// ArrivalKS compares inter-arrival distributions.
	ArrivalKS float64 `json:"arrivalKS"`
	// VolumeError is |gen−meas|/meas.
	VolumeError float64 `json:"volumeError"`
}

// Validation is the full measured-vs-generated report for one workload.
type Validation struct {
	Workload string            `json:"workload"`
	Phases   []PhaseComparison `json:"phases"`
}

// ValidateWith compares a measured flow dataset against a generated one,
// phase by phase — the toolchain's closing fidelity check (the paper's
// measured-vs-model CDF comparison). A non-nil tel counts the call and
// adds its wall time to a volatile gauge; a nil tel records nothing.
func ValidateWith(workload string, measured, generated []pcap.FlowRecord, tel *telemetry.Telemetry) Validation {
	wallStart := time.Now()
	md := flows.NewDataset(measured)
	gd := flows.NewDataset(generated)
	v := Validation{Workload: workload}
	for _, ph := range flows.AllPhases {
		ms, gs := md.SizeSample(ph), gd.SizeSample(ph)
		if ms.Len() == 0 && gs.Len() == 0 {
			continue
		}
		pc := PhaseComparison{
			Phase:          ph,
			MeasuredFlows:  ms.Len(),
			GeneratedFlows: gs.Len(),
			MeasuredBytes:  md.Volume(ph),
			GeneratedBytes: gd.Volume(ph),
		}
		pc.SizeKS = stats.KSStatistic2Sorted(ms.Values(), gs.Values())
		pc.SizeKSP = stats.KSPValue2(pc.SizeKS, ms.Len(), gs.Len())
		pc.ArrivalKS = stats.KSStatistic2Sorted(
			md.InterArrivalSample(ph).Values(), gd.InterArrivalSample(ph).Values())
		if pc.MeasuredBytes > 0 {
			diff := float64(pc.GeneratedBytes - pc.MeasuredBytes)
			if diff < 0 {
				diff = -diff
			}
			pc.VolumeError = diff / float64(pc.MeasuredBytes)
		}
		v.Phases = append(v.Phases, pc)
	}
	if tel != nil {
		tel.Core.Validates.Inc()
		tel.Core.ValidateWallMs.Add(float64(time.Since(wallStart).Milliseconds()))
	}
	return v
}

// WriteTable renders the validation as an aligned text table.
func (v Validation) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "phase\tmeas flows\tgen flows\tmeas MB\tgen MB\tvol err\tsize KS\tarrival KS\n")
	for _, pc := range v.Phases {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.1f\t%.1f%%\t%.3f\t%.3f\n",
			pc.Phase, pc.MeasuredFlows, pc.GeneratedFlows,
			float64(pc.MeasuredBytes)/(1<<20), float64(pc.GeneratedBytes)/(1<<20),
			pc.VolumeError*100, pc.SizeKS, pc.ArrivalKS)
	}
	return tw.Flush()
}
