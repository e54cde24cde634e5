// Package experiments reproduces the paper's evaluation: every table and
// figure has a runner that executes the relevant capture/model/replay
// pipeline and returns a printable table. The same runners back
// cmd/keddah-bench (full scale) and the root bench suite (reduced scale).
package experiments

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"keddah/internal/core"
	"keddah/internal/telemetry"
	"keddah/internal/workload"
)

// Config scales the suite. Scale multiplies every input size: 1.0 runs
// the paper-scale experiment (gigabytes), 0.125 is a quick run.
type Config struct {
	Scale float64
	Seed  int64
	// Telemetry, when non-nil, instruments every capture and replay an
	// experiment runs. Its instruments are concurrency-safe, so one
	// Telemetry may be shared across a parallel RunAll.
	Telemetry *telemetry.Telemetry
	// StrictChecks runs every capture with the invariants layer enabled
	// (core.CaptureOpts.StrictChecks): sampled cross-layer sweeps plus
	// end-of-capture conservation checks. Checks are read-only, so
	// results are identical; only wall time changes.
	StrictChecks bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// gb returns n gigabytes scaled by the config.
func (c Config) gb(n float64) int64 {
	v := int64(n * c.Scale * float64(1<<30))
	if v < 1<<20 {
		v = 1 << 20
	}
	return v
}

// capture runs one capture session under the suite's telemetry and
// strict checks; opts carries whatever else the experiment sets.
func (c Config) capture(spec core.ClusterSpec, runs []workload.RunSpec, opts core.CaptureOpts) (*core.TraceSet, []workload.RunResult, error) {
	opts.Telemetry, opts.StrictChecks = c.Telemetry, c.StrictChecks
	return core.CaptureWith(spec, runs, opts)
}

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
	// Volatile names the headers of the wall-clock columns: their cells
	// differ between two runs of the same seed, and every other cell is
	// a pure function of Config.
	Volatile []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Note); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, row := range append([][]string{t.Headers}, t.Rows...) {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV writes the table as CSV for plotting: the note, when there is
// one, as a first line "# <note>" (the comment convention of gnuplot and
// pandas' comment="#"), then the header row and the rows.
func (t *Table) WriteCSV(w io.Writer) error {
	if t.Note != "" {
		if strings.ContainsAny(t.Note, "\r\n") {
			return fmt.Errorf("experiments: %s note %q spans lines", t.ID, t.Note)
		}
		if _, err := fmt.Fprintf(w, "# %s\n", t.Note); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// ReadTableCSV reads what Table.WriteCSV wrote: the note ("" when there
// is none) and the records, header row first.
func ReadTableCSV(r io.Reader) (note string, records [][]string, err error) {
	br := bufio.NewReader(r)
	if b, _ := br.Peek(2); string(b) == "# " {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", nil, fmt.Errorf("experiments: table note: %w", err)
		}
		note = strings.TrimSuffix(line[2:], "\n")
	}
	records, err = csv.NewReader(br).ReadAll()
	return note, records, err
}

// tables returns a runner's tables, or none when err says it failed.
func tables(err error, ts ...Table) ([]Table, error) {
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// Runner executes one experiment.
type Runner func(Config) ([]Table, error)

// experiment is a registered runner with its one-line summary.
type experiment struct {
	desc string
	run  Runner
}

// registry maps experiment ids to experiments, populated by each file's
// register call.
var registry = map[string]experiment{}

func register(id, desc string, r Runner) { registry[id] = experiment{desc, r} }

// IDs lists registered experiments in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line summary of an experiment.
func Describe(id string) string { return registry[id].desc }

// Run executes one experiment by id.
func Run(id string, cfg Config) ([]Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return e.run(cfg.withDefaults())
}

// Result is one experiment's outcome from RunAll.
type Result struct {
	ID      string
	Tables  []Table
	Err     error
	Elapsed time.Duration
}

// timingIDs are the experiments that time themselves with the wall
// clock: E10 its toolchain stages, E18 its engine layouts under
// GOMAXPROCS values it sets itself.
var timingIDs = map[string]bool{"E10": true, "E18": true}

// RunAll executes the given experiments on a pool of workers and returns
// results in the order of ids, regardless of completion order. Every
// runner builds its own cluster, capture and model from the shared
// immutable Config, so experiments are independent and safe to run
// concurrently; each one's output is in its returned tables. workers
// <= 0 means GOMAXPROCS. The timing experiments run alone, one after
// another, once the pool has drained: no other runner shares their
// CPUs, and none is in flight while E18 changes GOMAXPROCS.
func RunAll(ids []string, cfg Config, workers int) []Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg = cfg.withDefaults()

	results := make([]Result, len(ids))
	run := func(i int) {
		start := time.Now()
		tabs, err := Run(ids[i], cfg)
		results[i] = Result{ID: ids[i], Tables: tabs, Err: err, Elapsed: time.Since(start)}
	}
	next := make(chan int, len(ids))
	var alone []int
	for i, id := range ids {
		if timingIDs[id] {
			alone = append(alone, i)
		} else {
			next <- i
		}
	}
	close(next)
	workers = min(workers, len(next))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
	wg.Wait()
	for _, i := range alone {
		run(i)
	}
	return results
}

// Formatting helpers shared by the experiment files.

func mb(bytes int64) string {
	return strconv.FormatFloat(float64(bytes)/(1<<20), 'f', 1, 64)
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func itoa(v int) string   { return strconv.Itoa(v) }

func gbLabel(bytes int64) string {
	return strconv.FormatFloat(float64(bytes)/(1<<30), 'f', 2, 64)
}
