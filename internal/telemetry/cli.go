package telemetry

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Flags is the standard telemetry flag set shared by the keddah
// commands. Register binds it to a FlagSet; after the command's work,
// Emit writes whatever outputs were requested.
type Flags struct {
	// Metrics prints the Prometheus text exposition and the JSON
	// snapshot to stdout when the command finishes.
	Metrics bool
	// MetricsOut writes <prefix>.prom and <prefix>.json files.
	MetricsOut string
	// TraceOut writes the span timeline as CSV.
	TraceOut string
	// LinksOut enables the per-link utilisation timeline and writes it
	// as CSV. Only single-session commands take it: the timeline has no
	// session column, so a command that runs many sessions refuses it.
	LinksOut string
	// PprofAddr serves /metrics, /metrics.json, /trace.csv and
	// /debug/pprof on this address for the lifetime of the command.
	PprofAddr string
}

// Register binds the telemetry flags.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Metrics, "metrics", false, "collect telemetry; print Prometheus text and JSON snapshot to stdout on exit")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "collect telemetry; write <prefix>.prom and <prefix>.json snapshots")
	fs.StringVar(&f.TraceOut, "trace-out", "", "collect telemetry; write the phase-span timeline as CSV to this path")
	fs.StringVar(&f.LinksOut, "links-out", "", "sample per-link utilisation; write the timeline as CSV to this path (single-session commands only)")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
}

// Enabled reports whether any telemetry output was requested.
func (f *Flags) Enabled() bool {
	return f.Metrics || f.MetricsOut != "" || f.TraceOut != "" || f.LinksOut != "" || f.PprofAddr != ""
}

// Telemetry builds the instrumentation the flags ask for, or nil when
// none was requested. A requested pprof server starts immediately on a
// background goroutine.
func (f *Flags) Telemetry() *Telemetry {
	if !f.Enabled() {
		return nil
	}
	t := New()
	if f.LinksOut != "" {
		t.EnableLinkTimeline()
	}
	if f.PprofAddr != "" {
		go func() {
			if err := t.ListenAndServe(f.PprofAddr); err != nil {
				fmt.Fprintln(os.Stderr, "telemetry: pprof server:", err)
			}
		}()
	}
	return t
}

// Emit writes the requested outputs. stdout receives the -metrics
// exposition; file outputs go to their configured paths.
func (f *Flags) Emit(t *Telemetry, stdout io.Writer) error {
	if t == nil {
		return nil
	}
	if f.Metrics {
		if err := t.WritePrometheus(stdout); err != nil {
			return fmt.Errorf("telemetry: prometheus: %w", err)
		}
		if err := t.WriteJSON(stdout); err != nil {
			return fmt.Errorf("telemetry: json: %w", err)
		}
	}
	if f.MetricsOut != "" {
		if err := writeFile(f.MetricsOut+".prom", t.WritePrometheus); err != nil {
			return err
		}
		if err := writeFile(f.MetricsOut+".json", t.WriteJSON); err != nil {
			return err
		}
	}
	if f.TraceOut != "" {
		if err := writeFile(f.TraceOut, func(w io.Writer) error {
			return t.Trace.WriteCSV(w)
		}); err != nil {
			return err
		}
	}
	if f.LinksOut != "" && t.Links != nil {
		if err := writeFile(f.LinksOut, func(w io.Writer) error {
			return t.Links.WriteCSV(w)
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := write(fh); err != nil {
		fh.Close()
		return fmt.Errorf("telemetry: write %s: %w", path, err)
	}
	return fh.Close()
}
