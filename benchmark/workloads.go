package main

import "keddah/internal/core"

// scale selects input sizes: full for measurement, tiny for the smoke
// test and for the traced run's layer sweep.
type scale int

const (
	full scale = iota
	tiny
)

func (s scale) String() string {
	if s == tiny {
		return "tiny"
	}
	return "full"
}

// workloadDef is one named workload of the benchmark. BENCHMARK.json and
// README.md say why each exists.
type workloadDef struct {
	name string
	at   func(scale) instance
}

// instance is a workload at one scale.
type instance struct {
	setup     setupFunc
	minPasses int     // untraced operations a run makes at least
	tracedLen float64 // share of -seconds the traced pass measures (0 = one operation)
}

const (
	mib = int64(1) << 20
	gib = int64(1) << 30
)

// sixProfiles are the paper's six workloads.
var sixProfiles = []string{"terasort", "sort", "wordcount", "grep", "pagerank", "kmeans"}

func plans(bytes int64, profiles ...string) []runPlan {
	out := make([]runPlan, len(profiles))
	for i, p := range profiles {
		out[i] = runPlan{p, bytes}
	}
	return out
}

// corpus is the fixed corpus bulk-generate and serve-stream fit from.
func corpus(s scale) corpusSpec {
	if s == tiny {
		return corpusSpec{workers: 4, profiles: []string{"terasort", "wordcount"}, inputBytes: 128 * mib}
	}
	return corpusSpec{workers: 16, profiles: sixProfiles, inputBytes: gib}
}

var workloads = []workloadDef{
	{
		name: "toolchain",
		at: func(s scale) instance {
			spec := pipelineSpec{workers: 64, runs: plans(8*gib, sixProfiles...), genJobs: 3}
			if s == tiny {
				spec = pipelineSpec{workers: 4, runs: plans(256*mib, "terasort", "wordcount"), genJobs: 1}
			}
			return instance{setup: setupPipeline("toolchain@"+s.String(), spec), minPasses: 2}
		},
	},
	{
		name: "tcp-shuffle",
		at: func(s scale) instance {
			spec := pipelineSpec{workers: 32, transport: "tcp", genJobs: 2,
				runs: []runPlan{{"terasort", 6 * gib}, {"sort", 6 * gib}, {"terasort", 3 * gib}}}
			if s == tiny {
				spec = pipelineSpec{workers: 4, transport: "tcp", runs: plans(256*mib, "terasort"), genJobs: 1}
			}
			return instance{setup: setupPipeline("tcp-shuffle@"+s.String(), spec), minPasses: 2}
		},
	},
	{
		name: "bulk-generate",
		at: func(s scale) instance {
			weights := map[string]float64{}
			for _, p := range corpus(s).profiles {
				weights[p] = 1
			}
			ps := []streamPlan{
				{label: "terasort-x10", format: "csv", gen: &core.GenSpec{Workload: "terasort", Workers: 64, InputBytes: 32 * gib, Jobs: 10}},
				{label: "terasort-x40", format: "jsonl", gen: &core.GenSpec{Workload: "terasort", Workers: 64, InputBytes: 32 * gib, Jobs: 40}},
				{label: "wordcount-x20", format: "ns3", gen: &core.GenSpec{Workload: "wordcount", Workers: 64, InputBytes: 32 * gib, Jobs: 20}},
				{label: "mix", format: "csv", mix: &core.MixSpec{Weights: weights, Workers: 64, InputScale: 8, JobsPerMinute: 6, WindowSecs: 600}},
			}
			if s == tiny {
				ps = []streamPlan{
					{label: "terasort-x2", format: "csv", gen: &core.GenSpec{Workload: "terasort", Workers: 8, InputBytes: gib, Jobs: 2}},
					{label: "terasort-x4", format: "jsonl", gen: &core.GenSpec{Workload: "terasort", Workers: 8, InputBytes: gib, Jobs: 4}},
					{label: "wordcount-x2", format: "ns3", gen: &core.GenSpec{Workload: "wordcount", Workers: 8, InputBytes: gib, Jobs: 2}},
					{label: "mix", format: "csv", mix: &core.MixSpec{Weights: weights, Workers: 8, InputScale: 2, JobsPerMinute: 6, WindowSecs: 60}},
				}
			}
			return instance{setup: setupBulk("bulk-generate@"+s.String(), corpus(s), ps), minPasses: 2}
		},
	},
	{
		name: "serve-stream",
		at: func(s scale) instance {
			spec := serveSpec{corpus: corpus(s), rate: 20, conns: 2, warmup: 20, checkEvery: 50,
				gen: core.GenSpec{Workload: "terasort", Workers: 64, InputBytes: 16 * gib, Jobs: 1}}
			if s == tiny {
				spec.warmup = 2
				spec.gen = core.GenSpec{Workload: "terasort", Workers: 8, InputBytes: gib, Jobs: 1}
			}
			return instance{setup: setupServe("serve-stream@"+s.String(), spec), minPasses: 1, tracedLen: 0.25}
		},
	},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
