package experiments

import (
	"math"

	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/stats"
)

func init() {
	register("A4", "ablation: packet-sampled capture vs full capture", runA4)
}

// runA4 quantifies what sFlow-style 1-in-N packet sampling costs the
// measurement stage: per sampling factor, the flow recall (flows whose
// boundaries survive), the per-phase volume estimation error after
// Horvitz–Thompson re-inflation, and the shuffle size-distribution drift.
// Expected shape: volumes stay accurate far longer than per-flow detail —
// the classic sampled-measurement trade-off — and the data phases hold up
// better than mouse-sized control flows.
func runA4(cfg Config) ([]Table, error) {
	// Full-fidelity packet capture of one sort run.
	packets, _, err := capturePackets(cfg, cfg.gb(2))
	if err != nil {
		return nil, err
	}

	// Ground truth from the unsampled stream.
	truth := flows.NewDataset(reassemble(packets))
	truthVol := map[flows.Phase]int64{}
	for _, ph := range flows.AllPhases {
		truthVol[ph] = truth.Volume(ph)
	}
	// One fixed truth sample compared against every sampling rate: sort it
	// once and reuse the sorted view in each KS comparison.
	truthShuffle := truth.SizeSample(flows.PhaseShuffle).Values()

	t := Table{
		ID:    "A4",
		Title: "Packet-sampling ablation (sort, one run)",
		Note:  "1-in-N count-based sampling, SYN/FIN preserved; volumes re-inflated by N",
		Headers: []string{"1-in-N", "kept pkts", "flow recall %", "data vol err %",
			"control vol err %", "shuffle size KS"},
	}
	for _, n := range []int{1, 8, 64, 512} {
		s := pcap.NewSampler(n)
		for _, p := range packets {
			s.Add(p)
		}
		est := flows.NewDataset(s.EstimateFlows())
		recall := 100 * float64(est.Len()) / float64(truth.Len())

		dataErr := volErr(est, truth, flows.PhaseHDFSRead, flows.PhaseHDFSWrite, flows.PhaseShuffle)
		ctlErr := volErr(est, truth, flows.PhaseControl)
		ks := stats.KSStatistic2Sorted(est.SizeSample(flows.PhaseShuffle).Values(), truthShuffle)

		t.AddRow(itoa(n), itoa(int(s.Kept())), f2(recall), f2(dataErr*100), f2(ctlErr*100), f3(ks))
	}
	return []Table{t}, nil
}

// volErr is |est−truth|/truth over the pooled phases.
func volErr(est, truth *flows.Dataset, phases ...flows.Phase) float64 {
	var e, tr int64
	for _, ph := range phases {
		e += est.Volume(ph)
		tr += truth.Volume(ph)
	}
	if tr == 0 {
		return 0
	}
	return math.Abs(float64(e-tr)) / float64(tr)
}
