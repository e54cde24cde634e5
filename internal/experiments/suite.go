// Package experiments reproduces the paper's evaluation: every table and
// figure has a runner that executes the relevant capture/model/replay
// pipeline and returns a printable table. The same runners back
// cmd/keddah-bench (full scale) and the root bench suite (reduced scale).
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"text/tabwriter"
	"time"

	"keddah/internal/telemetry"
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

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
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
	for i, h := range t.Headers {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Runner executes one experiment.
type Runner func(Config) ([]Table, error)

// registry maps experiment ids to runners, populated by each file's
// register call.
var registry = map[string]Runner{}

// descriptions holds one-line summaries for listing.
var descriptions = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	descriptions[id] = desc
}

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
func Describe(id string) string { return descriptions[id] }

// Run executes one experiment by id.
func Run(id string, cfg Config) ([]Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(cfg.withDefaults())
}

// Result is one experiment's outcome from RunAll.
type Result struct {
	ID      string
	Tables  []Table
	Err     error
	Elapsed time.Duration
}

// RunAll executes the given experiments on a pool of workers and returns
// results in the order of ids, regardless of completion order. Every
// runner builds its own cluster, capture and model from the shared
// immutable Config, so experiments are independent and safe to run
// concurrently; each one's output is in its returned tables. workers
// <= 0 means GOMAXPROCS.
func RunAll(ids []string, cfg Config, workers int) []Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	cfg = cfg.withDefaults()

	results := make([]Result, len(ids))
	next := make(chan int, len(ids))
	for i := range ids {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				tables, err := Run(ids[i], cfg)
				results[i] = Result{ID: ids[i], Tables: tables, Err: err, Elapsed: time.Since(start)}
			}
		}()
	}
	wg.Wait()
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
