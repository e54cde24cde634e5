package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"keddah/internal/workload"
)

// fenceCorpus is the capture corpus the fit fence fits: mixModel's four
// runs, a terasort at a second input size (so the duration line has a
// slope) and a map-only scan run (no shuffle phase).
func fenceCorpus(t *testing.T) *TraceSet {
	t.Helper()
	ts, _, err := CaptureWith(ClusterSpec{Workers: 8, Seed: 13}, []workload.RunSpec{
		{Profile: "terasort", InputBytes: 512 << 20, JobName: "t0", InputPath: "/d/t"},
		{Profile: "terasort", InputBytes: 512 << 20, JobName: "t1", InputPath: "/d/t"},
		{Profile: "wordcount", InputBytes: 512 << 20, JobName: "w0", InputPath: "/d/w"},
		{Profile: "wordcount", InputBytes: 512 << 20, JobName: "w1", InputPath: "/d/w"},
		{Profile: "terasort", InputBytes: 256 << 20, JobName: "t2", InputPath: "/d/t2"},
		{Profile: "scan", InputBytes: 384 << 20, JobName: "s0", InputPath: "/d/s"},
	}, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// unitsModel is a hand-written model whose job phases between them name
// every count unit generation evaluates — mapxreduce, block, controlmix,
// job, second, hostsecond and one unknown unit — and put the reducers
// size normaliser on a shuffle and on a non-shuffle phase. Fit writes
// only some of these, so only this model fences the rest.
const unitsModel = `{"jobs":{` +
	`"structural":{"workload":"structural","refInputBytes":268435456,"refMaps":4,"refReducers":3,` +
	`"refBlockSize":67108864,"refReplication":3,"refRuns":1,"durationSecs":20,"phases":{` +
	`"hdfs_read":{"size":{"family":"lognormal","params":[16,1]},"sizeAtoms":[{"value":67108864,"weight":0.5}],` +
	`"sizeMin":1000,"sizeMax":67108864,"interArrival":{"family":"exponential","params":[4]},` +
	`"startOffset":{"family":"uniform","params":[0,2]},"countPerUnit":1.5,"unit":"block"},` +
	`"hdfs_write":{"size":{"family":"constant","params":[1048576]},"sizeMin":1048576,"sizeMax":1048576,` +
	`"interArrival":{"family":"exponential","params":[1]},"startOffset":{"family":"constant","params":[10]},` +
	`"countPerUnit":7,"unit":"job"},` +
	`"shuffle":{"size":{"family":"lognormal","params":[17,0.5]},"sizeMin":1,"sizeMax":100000000,` +
	`"sizeNormalizer":"reducers","interArrival":{"family":"exponential","params":[20]},` +
	`"startOffset":{"family":"constant","params":[5]},"countPerUnit":1,"unit":"mapxreduce"},` +
	`"control":{"size":{"family":"constant","params":[600]},"sizeMin":600,"sizeMax":600,` +
	`"interArrival":{"family":"exponential","params":[8]},"startOffset":{"family":"constant","params":[0]},` +
	`"countPerUnit":0.5,"unit":"controlmix"}}},` +
	`"timed":{"workload":"timed","refInputBytes":134217728,"refMaps":2,"refReducers":2,` +
	`"refBlockSize":67108864,"refReplication":3,"refRuns":1,"durationSecs":12,` +
	`"durIntercept":4,"durSecsPerByte":6e-8,"phases":{` +
	`"hdfs_read":{"size":{"family":"exponential","params":[0.00001]},"sizeMin":1,"sizeMax":500000,` +
	`"interArrival":{"family":"exponential","params":[3]},"startOffset":{"family":"constant","params":[1]},` +
	`"countPerUnit":2,"unit":"second"},` +
	`"hdfs_write":{"size":{"family":"constant","params":[2000000]},"sizeMin":1,"sizeMax":2000000,` +
	`"sizeNormalizer":"reducers","interArrival":{"family":"exponential","params":[2]},` +
	`"startOffset":{"family":"constant","params":[3]},"countPerUnit":0.75,"unit":"hostsecond"},` +
	`"shuffle":{"size":{"family":"constant","params":[300000]},"sizeMin":1,"sizeMax":300000,` +
	`"interArrival":{"family":"exponential","params":[5]},"startOffset":{"family":"constant","params":[2]},` +
	`"countPerUnit":9,"unit":"furlong"}}}},` +
	`"background":{"size":{"family":"constant","params":[512]},"sizeAtoms":[{"value":700,"weight":0.25}],` +
	`"sizeMin":512,"sizeMax":700,"interArrival":{"family":"constant","params":[0]},` +
	`"startOffset":{"family":"constant","params":[0]},"countPerUnit":0.5,"unit":"hostsecond"}}`

// digestLine hashes what write produces into one "<sha256>  <name>" line.
func digestLine(t *testing.T, buf *bytes.Buffer, name string, write func(io.Writer) error) {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(buf, "%x  %s\n", h.Sum(nil), name)
}

// scheduleDigest hashes the JSONL export of a generated schedule.
func scheduleDigest(t *testing.T, buf *bytes.Buffer, name string, sched []SynthFlow, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(sched) == 0 {
		t.Fatalf("%s: empty schedule", name)
	}
	digestLine(t, buf, name, func(w io.Writer) error { return ExportJSONL(w, sched) })
}

// TestFitGenerateGoldenDigests fences the bytes of the modelling and
// generation stages: the model JSON fitted from a fixed capture corpus,
// the same corpus refitted with the scan runs' block size unknown,
// Generate with every structural knob off its default, a two-workload
// GenerateMix, and schedules from a hand-written model that names every
// count unit. Each artifact's SHA-256 must match
// testdata/fit-generate.sha256 (rewritten under -update).
func TestFitGenerateGoldenDigests(t *testing.T) {
	ctx := context.Background()
	ts := fenceCorpus(t)
	model, err := FitWith(ts, FitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	digestLine(t, &buf, "model.json", model.WriteJSON)
	// A run without a block size has no block count, so its HDFS phases
	// fall back to the per-job count.
	for _, r := range ts.Runs {
		if r.Workload == "scan" {
			r.BlockSize = 0
		}
	}
	blockless, err := FitWith(ts, FitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	digestLine(t, &buf, "model-blockless.json", blockless.WriteJSON)

	sched, err := model.Generate(ctx, GenSpec{Workload: "terasort", InputBytes: 768 << 20,
		BlockSize: 64 << 20, Reducers: 5, Workers: 12, Jobs: 3, Stagger: 0.4,
		IncludeBackground: true, Seed: 17})
	scheduleDigest(t, &buf, "generate-terasort.jsonl", sched, err)
	sched, err = model.Generate(ctx, GenSpec{Workload: "scan", Workers: 8, Jobs: 2, Seed: 3})
	scheduleDigest(t, &buf, "generate-scan.jsonl", sched, err)

	sched, err = model.GenerateMix(ctx, MixSpec{Weights: map[string]float64{"terasort": 2, "wordcount": 1},
		JobsPerMinute: 4, WindowSecs: 240, InputScale: 0.75, Workers: 10,
		IncludeBackground: true, Seed: 29})
	scheduleDigest(t, &buf, "mix.jsonl", sched, err)

	units, err := ReadModel(strings.NewReader(unitsModel))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []GenSpec{
		{Workload: "structural", InputBytes: 300 << 20, Reducers: 4, Workers: 6, Jobs: 2,
			Stagger: 0.5, IncludeBackground: true, Seed: 5},
		{Workload: "timed", InputBytes: 200 << 20, BlockSize: 32 << 20, Workers: 5, Jobs: 2,
			IncludeBackground: true, Seed: 6},
	} {
		sched, err := units.Generate(ctx, spec)
		scheduleDigest(t, &buf, "units-"+spec.Workload+".jsonl", sched, err)
	}
	checkGolden(t, "fit-generate.sha256", buf.Bytes())
}
