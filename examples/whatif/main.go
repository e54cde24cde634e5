// Whatif: the study the toolchain was built for — fit a Hadoop traffic
// model once, then answer "what happens to my jobs if I cut the rack
// uplink?" entirely in simulation, without touching a cluster.
//
// It fits terasort and wordcount models, generates a mixed four-job
// schedule, and replays it over a two-rack fabric while sweeping the
// uplink from 10 Gbps down to 500 Mbps.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"keddah"
)

func main() {
	// Measure once.
	traces, _, err := keddah.Capture(keddah.ClusterSpec{Workers: 16, Seed: 11},
		[]keddah.RunSpec{
			{Profile: "terasort", InputBytes: 2 << 30, JobName: "t0", InputPath: "/data/t"},
			{Profile: "terasort", InputBytes: 2 << 30, JobName: "t1", InputPath: "/data/t"},
			{Profile: "wordcount", InputBytes: 2 << 30, JobName: "w0", InputPath: "/data/w"},
			{Profile: "wordcount", InputBytes: 2 << 30, JobName: "w1", InputPath: "/data/w"},
		}, keddah.CaptureOpts{})
	if err != nil {
		log.Fatal(err)
	}
	model, err := keddah.Fit(traces, keddah.FitOptions{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// One mixed schedule: two overlapping terasorts + two wordcounts.
	var sched []keddah.SynthFlow
	for _, wl := range []string{"terasort", "wordcount"} {
		part, err := model.Generate(context.Background(), keddah.GenSpec{
			Workload: wl, Workers: 16, Jobs: 2, Stagger: 0.5, Seed: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		sched = append(sched, part...)
	}
	fmt.Printf("mixed schedule: %d flows\n", len(sched))

	// Sweep the uplink.
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "uplink Gbps\tmakespan s\tshuffle MB\tmean shuffle flow s")
	for _, uplink := range []float64{10, 4, 2, 1, 0.5} {
		recs, makespan, err := keddah.Replay(sched, keddah.ClusterSpec{
			Topology:   "multirack",
			Workers:    16,
			Racks:      2,
			UplinkGbps: uplink,
			Seed:       3,
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		var shuffleBytes int64
		var durSum float64
		var n int
		for _, r := range recs {
			if r.Key.SrcPort == 13562 || r.Key.DstPort == 13562 {
				shuffleBytes += r.Bytes
				durSum += float64(r.DurationNs()) / 1e9
				n++
			}
		}
		mean := 0.0
		if n > 0 {
			mean = durSum / float64(n)
		}
		fmt.Fprintf(tw, "%.1f\t%.1f\t%.1f\t%.3f\n",
			uplink, float64(makespan)/1e9, float64(shuffleBytes)/(1<<20), mean)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
}
