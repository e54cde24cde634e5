// Command benchmark is the repository's benchmark. One run is one process
// and one workload: it sets the workload up several times, measures it for
// a fixed time with tracing off, checks every output, and prints one JSON
// result line. With -trace 1 it then makes one traced run and reports the
// per-layer metrics instead. See README.md for the workloads and metrics.
//
//	go build -o keddah-benchmark . && ./keddah-benchmark -workload toolchain -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed passes the tcp-shuffle stretch check (see README.md).
const defaultSeed = 1

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	dir      string // scratch directory for model files
	spans    string // where the traced run's spans go ("" = nowhere)
	out      string // where the full report goes ("" = nowhere)
}

func main() {
	var cfg config
	var traceFlag int
	var calib bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed every input of the run is made from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the untraced passes measure, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = make a traced run after the passes and report per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory (model files)")
	flag.StringVar(&cfg.spans, "spans", "", "write the traced run's spans to this JSON file")
	flag.StringVar(&cfg.out, "out", "", "write the full run report to this JSON file")
	flag.BoolVar(&calib, "calib", false, "print host.calib_ms, the time of a sha256 pass over 64 MiB, and exit")
	flag.Parse()
	if calib {
		fmt.Printf("host.calib_ms %.3f\n", calibrate())
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	res, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything a run measured. Its summary is the result line.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Digests   []digestEntry     `json:"digests"`
	SetupS    []float64         `json:"setup_cpu_s"`
	OpCPUMs   []float64         `json:"op_cpu_ms"`
	OpWallMs  []float64         `json:"op_wall_ms"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) summary() summary {
	return summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// env is what a set-up needs besides its spec.
type env struct {
	seed int64
	dir  string
}

// state is a workload after set-up.
type state interface {
	// measure runs operations until the budget is spent, checking every
	// output with chk; sc is where traced calls record their spans.
	measure(sc scope, b budget, chk *checker) (measurement, error)
	close()
}

type setupFunc func(sc scope, e *env) (state, error)

// budget is how much work a measure call does: operations until seconds
// have passed, and at least minOps of them.
type budget struct {
	seconds float64
	minOps  int
}

// opSample is one timed operation.
type opSample struct{ cpuMs, wallMs float64 }

// measurement is the samples of one measure call.
type measurement struct {
	cpuMs  []float64 // process CPU time of each operation
	wallMs []float64 // wall time of each operation
}

// repeatPasses runs pass until the budget is spent.
func repeatPasses(b budget, pass func() (opSample, error)) (measurement, error) {
	var m measurement
	start := time.Now()
	for len(m.cpuMs) < b.minOps || time.Since(start).Seconds() < b.seconds {
		runtime.GC() // each operation pays for its own garbage, not the last one's
		s, err := pass()
		if err != nil {
			return m, err
		}
		m.cpuMs = append(m.cpuMs, s.cpuMs)
		m.wallMs = append(m.wallMs, s.wallMs)
	}
	return m, nil
}

// checker counts checks and keeps the run's digests. The first value
// recorded under a digest name is the reference every later pass must
// reproduce.
type checker struct {
	log       io.Writer
	attempted int64
	failed    int64
	digests   []digestEntry
	index     map[string]int
}

type digestEntry struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

func newChecker(log io.Writer) *checker { return &checker{log: log, index: map[string]int{}} }

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "check failed: "+format+"\n", args...)
	}
}

func (c *checker) digest(name, value string) {
	if i, ok := c.index[name]; ok {
		c.check(c.digests[i].Value == value, "digest %s: %s, first pass had %s", name, value, c.digests[i].Value)
		return
	}
	c.index[name] = len(c.digests)
	c.digests = append(c.digests, digestEntry{name, value})
}

// A run sets its workload up at least setupMinReps times, and more while
// the set-ups have taken less than setupBudget in all, so that cheap
// set-ups get a steady median too; setup_s is the median.
const (
	setupMinReps = 3
	setupMaxReps = 15
	setupBudget  = 1.5 // seconds
)

// run executes one benchmark run and prints its metrics and digests to
// stdout; check failures go to log.
func run(cfg config, stdout, log io.Writer) (*report, error) {
	def, ok := lookup(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: cfg.seed, dir: dir}
	inst := def.at(cfg.scale)
	chk := newChecker(log)
	rep := &report{Workload: def.name, Seed: cfg.seed}

	var st state
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	minReps, maxReps := setupMinReps, setupMaxReps
	if cfg.scale == tiny {
		minReps, maxReps = 1, 1
	}
	var spent float64
	for i := 0; i < maxReps && (i < minReps || spent < setupBudget); i++ {
		cpu0 := cpuTime()
		next, err := inst.setup(scope{}, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupS = append(rep.SetupS, (cpuTime() - cpu0).Seconds())
		spent += rep.SetupS[i]
		if st != nil {
			st.close()
		}
		st = next
	}
	m, err := st.measure(scope{}, budget{cfg.seconds, inst.minPasses}, chk)
	if err != nil {
		return nil, err
	}
	rep.OpCPUMs, rep.OpWallMs = m.cpuMs, m.wallMs

	if cfg.trace {
		spans, err := tracedRun(cfg, e, def, inst, chk, median(m.cpuMs))
		if err != nil {
			return nil, err
		}
		rep.Metrics = layerMetrics(spans)
		if cfg.spans != "" {
			if err := writeJSON(cfg.spans, spans); err != nil {
				return nil, err
			}
		}
	} else {
		rep.Metrics = map[string]metric{
			"setup_s":       {median(rep.SetupS), "s"},
			"cpu_ms_per_op": {median(m.cpuMs), "ms"},
			"peak_rss_mb":   {peakRSSMB(), "MB"},
		}
	}
	rep.Attempted, rep.Failed, rep.Digests = chk.attempted, chk.failed, chk.digests
	rep.Correct = chk.failed == 0
	printReport(stdout, rep)
	if cfg.out != "" {
		if err := writeJSON(cfg.out, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// printReport prints every digest and metric by name. Digests of the
// per-request serve bodies are folded into one line per workload.
func printReport(w io.Writer, r *report) {
	folded := map[string][]string{}
	var order []string
	for _, d := range r.Digests {
		if i := strings.IndexByte(d.Name, '#'); i >= 0 {
			key := d.Name[:i]
			if folded[key] == nil {
				order = append(order, key)
			}
			folded[key] = append(folded[key], d.Value)
			continue
		}
		fmt.Fprintf(w, "digest %s %s\n", d.Name, d.Value)
	}
	for _, key := range order {
		fmt.Fprintf(w, "digest %s[%d] %s\n", key, len(folded[key]), sha([]byte(strings.Join(folded[key], "\n"))))
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "metric %-44s %16.6f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	fmt.Fprintf(w, "checks %d attempted, %d failed\n", r.Attempted, r.Failed)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// calibrate times a fixed sha256 pass over 64 MiB: a host-speed reading
// to set beside the benchmark's numbers.
func calibrate() float64 {
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	t0 := time.Now()
	sha(buf)
	return msSince(t0)
}
