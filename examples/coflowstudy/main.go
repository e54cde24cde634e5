// Coflowstudy: extract the coflow workload (shuffle-stage structure) a
// coflow scheduler would be evaluated against, straight from captured
// Hadoop traffic — one of the downstream research uses Keddah enables.
//
// It runs a mixed batch of jobs, groups each job's shuffle into a
// coflow, and prints the per-coflow inventory plus population statistics
// (width, size, skew, completion time).
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"keddah"
)

func main() {
	traces, _, err := keddah.Capture(keddah.ClusterSpec{Workers: 16, Seed: 21},
		[]keddah.RunSpec{
			{Profile: "terasort", InputBytes: 2 << 30},
			{Profile: "wordcount", InputBytes: 2 << 30},
			{Profile: "join", InputBytes: 1 << 30},
			{Profile: "pagerank", InputBytes: 1 << 30},
		}, keddah.CaptureOpts{})
	if err != nil {
		log.Fatal(err)
	}

	var records []keddah.FlowRecord
	for _, r := range traces.Runs {
		records = append(records, r.Records...)
	}
	coflows := keddah.Coflows(records)
	fmt.Printf("extracted %d coflows from %d jobs\n", len(coflows), len(traces.Runs))

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\twidth\tMB\tlongest MB\tskew\tsenders\treceivers\tCCT s")
	for _, c := range coflows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.2f\t%d\t%d\t%.2f\n",
			c.Job, c.Width, float64(c.Bytes)/(1<<20), float64(c.LongestFlowBytes)/(1<<20),
			c.Skew, c.Senders, c.Receivers, c.DurationSeconds())
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	pop, err := keddah.DescribeCoflows(coflows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npopulation (%d coflows):\n", pop.Count)
	fmt.Printf("  width:  median %.0f, p90 %.0f\n", pop.Width.P50, pop.Width.P90)
	fmt.Printf("  size:   median %.1f MB, p90 %.1f MB\n", pop.Bytes.P50/(1<<20), pop.Bytes.P90/(1<<20))
	fmt.Printf("  skew:   median %.2f, max %.2f\n", pop.Skew.P50, pop.Skew.Max)
	fmt.Printf("  CCT:    median %.2f s, p90 %.2f s\n", pop.Duration.P50, pop.Duration.P90)
}
