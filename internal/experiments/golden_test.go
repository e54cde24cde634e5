package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goldenDir holds one CSV per experiment table, written by
// `keddah-bench -exp all -scale 1 -seed 1 -csv results_csv`.
const goldenDir = "../../results_csv"

// TestExperimentTablesGolden runs the whole suite at the scale and seed
// results_csv/ was written with and requires every table to match its
// CSV: the same set of tables, equal notes and header rows, and
// byte-equal cells everywhere except the columns a table names as
// Volatile.
func TestExperimentTablesGolden(t *testing.T) {
	got := map[string]Table{}
	for _, res := range RunAll(IDs(), Config{Scale: 1, Seed: 1}, 0) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.ID, res.Err)
		}
		for _, tab := range res.Tables {
			got[strings.ToLower(tab.ID)+".csv"] = tab
		}
	}
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, p := range paths {
		files[filepath.Base(p)] = true
	}
	for name, tab := range got {
		if !files[name] {
			t.Errorf("table %s has no %s in results_csv/", tab.ID, name)
		}
	}
	for _, p := range paths {
		name := filepath.Base(p)
		tab, ok := got[name]
		if !ok {
			t.Errorf("results_csv/%s belongs to no table the suite prints", name)
			continue
		}
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		note, want, err := ReadTableCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("results_csv/%s: %v", name, err)
		}
		if note != tab.Note {
			t.Errorf("%s: note = %q, want %q", tab.ID, tab.Note, note)
		}
		compareGolden(t, tab, want)
	}
}

// compareGolden reports every difference between a table and the
// records of its golden CSV, header row first.
func compareGolden(t *testing.T, tab Table, want [][]string) {
	t.Helper()
	for _, v := range tab.Volatile {
		if !slices.Contains(tab.Headers, v) {
			t.Errorf("%s: volatile column %q is not one of its headers %q", tab.ID, v, tab.Headers)
		}
	}
	if len(want) == 0 || !slices.Equal(want[0], tab.Headers) {
		t.Errorf("%s: headers = %q, want %q", tab.ID, tab.Headers, want[:min(1, len(want))])
		return
	}
	want = want[1:]
	if len(tab.Rows) != len(want) {
		t.Errorf("%s: %d rows, want %d", tab.ID, len(tab.Rows), len(want))
	}
	for r := range min(len(tab.Rows), len(want)) {
		row := tab.Rows[r]
		if len(row) != len(want[r]) {
			t.Errorf("%s row %d: %d cells, want %d", tab.ID, r, len(row), len(want[r]))
			continue
		}
		for c, h := range tab.Headers {
			if slices.Contains(tab.Volatile, h) || row[c] == want[r][c] {
				continue
			}
			t.Errorf("%s row %d column %q: got %q, want %q", tab.ID, r, h, row[c], want[r][c])
		}
	}
}
