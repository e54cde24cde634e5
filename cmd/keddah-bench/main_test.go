package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
