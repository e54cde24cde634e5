package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"keddah/internal/experiments"
)

// TestRunRefusesLinksOut: the suite runs many sessions and the link
// timeline has no session column, so -links-out is refused before any
// experiment runs, naming the single-session command, and no file is
// written.
func TestRunRefusesLinksOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l.csv")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-exp", "E12", "-scale", "0.0625", "-links-out", path}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "keddah-capture") {
		t.Fatalf("run = %v, want a refusal naming keddah-capture", err)
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("refused run printed output:\n%s%s", stdout.String(), stderr.String())
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("refused run left %s behind (stat: %v)", path, err)
	}
}

// TestRunWritesTableCSVs: -csv writes one <id>.csv per printed table,
// holding its headers and then its rows.
func TestRunWritesTableCSVs(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "E12", "-scale", "0.0625", "-csv", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	tables, err := experiments.Run("E12", experiments.Config{Scale: 0.0625, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"e12a.csv", "e12b.csv"}; !slices.Equal(names, want) {
		t.Fatalf("-csv wrote %q, want %q", names, want)
	}
	for _, tab := range tables {
		f, err := os.Open(filepath.Join(dir, strings.ToLower(tab.ID)+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		note, records, err := experiments.ReadTableCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", tab.ID, err)
		}
		if note != tab.Note {
			t.Errorf("%s note = %q, want %q", tab.ID, note, tab.Note)
		}
		if len(records) == 0 || !slices.Equal(records[0], tab.Headers) {
			t.Fatalf("%s header row = %q, want %q", tab.ID, records[:min(1, len(records))], tab.Headers)
		}
		if !reflect.DeepEqual(records[1:], tab.Rows) {
			t.Errorf("%s rows = %q, want %q", tab.ID, records[1:], tab.Rows)
		}
	}
}
