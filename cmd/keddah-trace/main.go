// Command keddah-trace inspects a binary packet trace (written by
// keddah-capture -pcap): it reassembles flows and prints capture-wide
// statistics, the per-phase breakdown, and the top talkers — the
// first-look analysis the measurement stage of the toolchain starts from.
// A truncated or corrupt trace is an error (exit status 1), not a
// shorter report.
//
// Usage:
//
//	keddah-trace -in packets.kdh
//	keddah-trace -in packets.kdh -flows flows.csv -top 20
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"

	"keddah/internal/flows"
	"keddah/internal/pcap"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "keddah-trace:", err)
		os.Exit(1)
	}
}

// run is the testable command body: parse args, read the whole trace,
// then print the report to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("keddah-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in      = fs.String("in", "packets.kdh", "packet trace input path")
		top     = fs.Int("top", 10, "number of top talkers to print")
		flowCSV = fs.String("flows", "", "optional per-flow CSV output path")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}

	ft := pcap.NewFlowTable(0)
	var packets int64
	var bytes int64
	var firstNs, lastNs int64
	for {
		p, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("%s after %d packets: %w", *in, packets, err)
		}
		if packets == 0 || p.TsNs < firstNs {
			firstNs = p.TsNs
		}
		if p.TsNs > lastNs {
			lastNs = p.TsNs
		}
		packets++
		bytes += int64(p.Len)
		ft.Add(p)
	}
	records := ft.Records()
	ds := flows.NewDataset(records)

	fmt.Fprintf(stdout, "trace: %s\n", *in)
	fmt.Fprintf(stdout, "  packets: %d   bytes: %.1f MB   span: %.2fs   flows: %d\n",
		packets, float64(bytes)/(1<<20), float64(lastNs-firstNs)/1e9, len(records))

	// Per-phase breakdown.
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tflows\tMB\tshare\tmedian flow KB\tp99 flow KB")
	allPhases := append(append([]flows.Phase{}, flows.AllPhases...), flows.PhaseOther)
	for _, ph := range allPhases {
		n := ds.Count(ph)
		if n == 0 {
			continue
		}
		s := ds.SizeSample(ph)
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f%%\t%.1f\t%.1f\n",
			ph, n, float64(ds.Volume(ph))/(1<<20),
			100*float64(ds.Volume(ph))/float64(max(1, bytes)),
			s.Quantile(0.5)/1024, s.Quantile(0.99)/1024)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Top talkers by bytes sent.
	talkers := map[pcap.Addr]int64{}
	for _, rec := range records {
		talkers[rec.Key.Src] += rec.Bytes
	}
	type talker struct {
		addr  pcap.Addr
		bytes int64
	}
	list := make([]talker, 0, len(talkers))
	for a, b := range talkers {
		list = append(list, talker{a, b})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].bytes != list[j].bytes {
			return list[i].bytes > list[j].bytes
		}
		return list[i].addr < list[j].addr
	})
	if len(list) > *top {
		list = list[:*top]
	}
	fmt.Fprintln(stdout, "top talkers (bytes sent):")
	for _, tk := range list {
		fmt.Fprintf(stdout, "  %-15s %10.1f MB\n", tk.addr, float64(tk.bytes)/(1<<20))
	}

	if *flowCSV != "" {
		if err := writeFlowCSV(*flowCSV, records); err != nil {
			return fmt.Errorf("flow csv: %w", err)
		}
		fmt.Fprintf(stderr, "wrote %s: %d flows\n", *flowCSV, len(records))
	}
	return nil
}

func writeFlowCSV(path string, records []pcap.FlowRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"first_s", "last_s", "src", "dst", "src_port", "dst_port", "bytes", "packets", "phase"}); err != nil {
		return err
	}
	for _, rec := range records {
		row := []string{
			strconv.FormatFloat(float64(rec.FirstNs)/1e9, 'f', 6, 64),
			strconv.FormatFloat(float64(rec.LastNs)/1e9, 'f', 6, 64),
			rec.Key.Src.String(),
			rec.Key.Dst.String(),
			strconv.Itoa(int(rec.Key.SrcPort)),
			strconv.Itoa(int(rec.Key.DstPort)),
			strconv.FormatInt(rec.Bytes, 10),
			strconv.FormatInt(rec.Packets, 10),
			string(flows.Classify(rec)),
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return f.Close()
}
