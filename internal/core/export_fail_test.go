package core

import (
	"context"
	"errors"
	"testing"
)

// failAfter is a sink that accepts n bytes and then fails every write,
// modelling a full disk or a hung-up client mid-export.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestExportFailingWriter: every exporter must surface a sink failure as
// an error — a short CSV or ns3 file that reports success poisons every
// simulation consuming it downstream.
func TestExportFailingWriter(t *testing.T) {
	model := mixModel(t)
	sched, err := model.Generate(context.Background(), GenSpec{Workload: "terasort", Jobs: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sink := errors.New("sink full")
	exports := map[string]func(*failAfter) error{
		"csv":   func(w *failAfter) error { return ExportCSV(w, sched) },
		"jsonl": func(w *failAfter) error { return ExportJSONL(w, sched) },
		"ns3":   func(w *failAfter) error { return ExportNS3(w, sched, 8) },
	}
	// Cut the sink off at several points: immediately, mid-header,
	// mid-body. Every cut must propagate.
	for name, export := range exports {
		for _, budget := range []int{0, 3, 300} {
			err := export(&failAfter{n: budget, err: sink})
			if err == nil {
				t.Errorf("%s export to a writer failing after %d bytes reported success", name, budget)
				continue
			}
			if !errors.Is(err, sink) {
				t.Errorf("%s export after %d bytes: %v does not wrap the sink error", name, budget, err)
			}
		}
	}
}
