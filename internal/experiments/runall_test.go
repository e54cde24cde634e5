package experiments

import (
	"reflect"
	"slices"
	"testing"
)

// deterministic returns copies of tables with every Volatile cell
// blanked, leaving only the cells a seed fixes.
func deterministic(tables []Table) []Table {
	out := make([]Table, len(tables))
	for i, tab := range tables {
		rows := make([][]string, len(tab.Rows))
		for r, row := range tab.Rows {
			rows[r] = slices.Clone(row)
			for c := range row {
				if c < len(tab.Headers) && slices.Contains(tab.Volatile, tab.Headers[c]) {
					rows[r][c] = ""
				}
			}
		}
		tab.Rows = rows
		out[i] = tab
	}
	return out
}

// TestRunAllTimingExperimentsMatchSerial: RunAll holds E10 back until
// the pool drains and runs it alone; its deterministic cells, and every
// cell of the pooled experiments, still equal serial runs, and results
// keep the order of ids.
func TestRunAllTimingExperimentsMatchSerial(t *testing.T) {
	ids := []string{"E10", "E2", "A2"}
	cfg := quickCfg()
	results := RunAll(ids, cfg, 2)
	if len(results) != len(ids) {
		t.Fatalf("results = %d, want %d", len(results), len(ids))
	}
	for i, res := range results {
		if res.ID != ids[i] {
			t.Fatalf("result %d is %s, want %s (ordering lost)", i, res.ID, ids[i])
		}
		if res.Err != nil {
			t.Fatalf("%s: %v", res.ID, res.Err)
		}
		want, err := Run(ids[i], cfg)
		if err != nil {
			t.Fatalf("serial %s: %v", ids[i], err)
		}
		if !reflect.DeepEqual(deterministic(res.Tables), deterministic(want)) {
			t.Errorf("%s: deterministic cells differ from a serial run", res.ID)
		}
	}
}
