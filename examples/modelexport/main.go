// Modelexport: build the full Keddah model library — every built-in
// benchmark workload measured five times and fitted — and export it as
// models.json for use by other tools (keddah-gen, external simulators).
package main

import (
	"fmt"
	"log"
	"os"

	"keddah"
)

func main() {
	out := "models.json"
	if len(os.Args) > 1 {
		out = os.Args[1]
	}

	var runs []keddah.RunSpec
	for _, prof := range keddah.Workloads() {
		for i := 0; i < 5; i++ {
			// Jitter input sizes so count scaling sees variation.
			size := int64(float64(1<<31) * (0.8 + 0.1*float64(i)))
			runs = append(runs, keddah.RunSpec{
				Profile:    prof,
				InputBytes: size,
				JobName:    fmt.Sprintf("%s-%d", prof, i),
				InputPath:  fmt.Sprintf("/data/%s-%d", prof, i),
			})
		}
	}
	fmt.Printf("capturing %d runs across %d workloads...\n", len(runs), len(keddah.Workloads()))
	traces, _, err := keddah.Capture(keddah.ClusterSpec{Workers: 16, Seed: 1}, runs, keddah.CaptureOpts{})
	if err != nil {
		log.Fatal(err)
	}

	model, err := keddah.Fit(traces, keddah.FitOptions{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range model.WorkloadNames() {
		jm := model.Jobs[name]
		fmt.Printf("  %-10s %d runs, %.2f bytes/input byte, %d phases\n",
			name, jm.RefRuns, jm.BytesPerInputByte, len(jm.Phases))
	}

	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := model.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}
