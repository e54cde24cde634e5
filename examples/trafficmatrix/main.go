// Trafficmatrix: build the rack-to-rack traffic matrix a datacenter
// operator cares about, from a benchmark job mix running on a k=4
// fat-tree. It captures the mix, then aggregates measured flow bytes by
// (source rack, destination rack) — the hot-spot view that motivates
// Hadoop-aware network designs.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"keddah"
	"keddah/internal/core"
	"keddah/internal/netsim"
	"keddah/internal/pcap"
)

func main() {
	spec := core.ClusterSpec{Topology: "fattree", FatTreeK: 4, Seed: 9}
	topo, err := spec.BuildTopology()
	if err != nil {
		log.Fatal(err)
	}
	hosts := topo.Hosts()
	fmt.Printf("fat-tree k=4: %d hosts, %d racks\n", len(hosts), len(hosts)/2)

	traces, results, err := keddah.Capture(spec, []keddah.RunSpec{
		{Profile: "terasort", InputBytes: 2 << 30},
		{Profile: "wordcount", InputBytes: 2 << 30},
		{Profile: "pagerank", InputBytes: 1 << 30},
	}, keddah.CaptureOpts{})
	if err != nil {
		log.Fatal(err)
	}
	for _, rr := range results {
		fmt.Printf("  %-12s %d rounds, %.1fs total\n",
			rr.Spec.Profile, len(rr.Rounds), float64(rr.TotalDuration())/1e9)
	}

	// Rack of a captured address: capture addresses encode the
	// simulator node id (see pcap.HostAddr).
	rackOf := func(a pcap.Addr) int {
		idx := a.HostIndex()
		if idx < 0 || idx >= topo.NumNodes() {
			return -1
		}
		return topo.Rack(netsim.NodeID(idx))
	}

	// Aggregate all measured flows (jobs + background) by rack pair.
	nRacks := 0
	for _, h := range hosts {
		if topo.Rack(h) >= nRacks {
			nRacks = topo.Rack(h) + 1
		}
	}
	matrix := make([][]int64, nRacks)
	for i := range matrix {
		matrix[i] = make([]int64, nRacks)
	}
	add := func(recs []keddah.FlowRecord) {
		for _, r := range recs {
			src, dst := rackOf(r.Key.Src), rackOf(r.Key.Dst)
			if src >= 0 && dst >= 0 {
				matrix[src][dst] += r.Bytes
			}
		}
	}
	for _, run := range traces.Runs {
		add(run.Records)
	}
	add(traces.Background)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "MB src\\dst")
	for d := 0; d < nRacks; d++ {
		fmt.Fprintf(tw, "\track%d", d)
	}
	fmt.Fprintln(tw)
	var intra, inter int64
	for s := 0; s < nRacks; s++ {
		fmt.Fprintf(tw, "rack%d", s)
		for d := 0; d < nRacks; d++ {
			fmt.Fprintf(tw, "\t%.1f", float64(matrix[s][d])/(1<<20))
			if s == d {
				intra += matrix[s][d]
			} else {
				inter += matrix[s][d]
			}
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	total := intra + inter
	if total > 0 {
		fmt.Printf("intra-rack: %.1f%%  inter-rack: %.1f%% of %.1f GB\n",
			100*float64(intra)/float64(total), 100*float64(inter)/float64(total),
			float64(total)/(1<<30))
	}
}
