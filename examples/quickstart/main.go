// Quickstart: capture one terasort run, fit a traffic model, regenerate
// synthetic traffic, and check how well it matches — the whole Keddah
// pipeline in one screen of code.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"keddah"
)

func main() {
	// 1. Capture: run terasort three times on a simulated 16-worker
	// cluster and record every flow.
	cluster := keddah.ClusterSpec{Workers: 16, Seed: 42}
	traces, _, err := keddah.Capture(cluster, []keddah.RunSpec{
		{Profile: "terasort", InputBytes: 2 << 30, JobName: "t0", InputPath: "/data/t"},
		{Profile: "terasort", InputBytes: 2 << 30, JobName: "t1", InputPath: "/data/t"},
		{Profile: "terasort", InputBytes: 2 << 30, JobName: "t2", InputPath: "/data/t"},
	}, keddah.CaptureOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d runs\n", len(traces.Runs))

	// 2. Fit: build the empirical per-phase traffic model.
	model, err := keddah.Fit(traces, keddah.FitOptions{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	jm := model.Jobs["terasort"]
	fmt.Printf("terasort moves %.2f bytes per input byte\n", jm.BytesPerInputByte)

	// 3. Generate: synthesise the same three-job load from the model
	// (change InputBytes/Workers/Jobs here to scale the scenario —
	// that's the point of a parameterised model).
	sched, err := model.Generate(context.Background(), keddah.GenSpec{
		Workload: "terasort",
		Workers:  16,
		Jobs:     3,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d synthetic flows\n", len(sched))

	// 4. Replay + validate against the measured corpus.
	generated, makespan, err := keddah.Replay(sched, cluster, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay makespan: %.1fs\n", float64(makespan)/1e9)

	var measured []keddah.FlowRecord
	for _, r := range traces.Runs {
		measured = append(measured, r.Records...)
	}
	v := keddah.Validate("terasort", measured, generated, nil)
	if err := v.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
