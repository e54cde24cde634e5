package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"

	"keddah/internal/core"
	"keddah/internal/workload"
)

// TestDaemonSIGTERMDrain runs the real daemon body end to end: a
// SIGTERM mid-stream must stop admission (503 for new work) while the
// in-flight stream runs to a byte-perfect end, and run() must return.
func TestDaemonSIGTERMDrain(t *testing.T) {
	ts, _, err := core.CaptureWith(core.ClusterSpec{Workers: 8, Seed: 13}, []workload.RunSpec{
		{Profile: "terasort", InputBytes: 256 << 20, JobName: "t0", InputPath: "/d/t"},
		{Profile: "terasort", InputBytes: 256 << 20, JobName: "t1", InputPath: "/d/t"},
	}, core.CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.FitWith(ts, core.FitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := t.TempDir() + "/bench.json"
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A schedule far larger than kernel socket buffers, so the stream is
	// genuinely in flight while we deliver the signal.
	spec := core.GenSpec{Workload: "terasort", Jobs: 5000, Seed: 11}
	sched, err := model.Generate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := core.ExportJSONL(&want, sched); err != nil {
		t.Fatal(err)
	}

	addrCh := make(chan string, 1)
	onListen = func(addr string) { addrCh <- addr }
	defer func() { onListen = nil }()
	sig := make(chan os.Signal, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-addr", "127.0.0.1:0",
			"-model", "bench=" + modelPath,
			"-drain-timeout", "30s",
		}, sig, io.Discard)
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-runErr:
		t.Fatalf("daemon exited before listening: %v", err)
	}

	url := fmt.Sprintf("%s/v1/generate?workload=terasort&jobs=%d&seed=%d", base, spec.Jobs, spec.Seed)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	got := make([]byte, 0, want.Len())
	buf := make([]byte, 64<<10)
	n, err := io.ReadFull(resp.Body, buf)
	if err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	got = append(got, buf[:n]...)

	// Stream in flight: deliver the signal the process manager would.
	sig <- syscall.SIGTERM

	// Admission must stop: poll readiness until the drain takes effect.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("readyz during drain: %v", err)
		}
		r.Body.Close()
		if r.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 after SIGTERM")
		}
		time.Sleep(10 * time.Millisecond)
	}
	r, err := http.Get(base + "/v1/generate?workload=terasort")
	if err != nil {
		t.Fatalf("new request during drain: %v", err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable || r.Header.Get("Retry-After") == "" {
		t.Fatalf("new request during drain: status %d, Retry-After %q", r.StatusCode, r.Header.Get("Retry-After"))
	}

	// The in-flight stream must finish completely and byte-identically.
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("drained stream truncated: %v", err)
	}
	got = append(got, rest...)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("drained stream delivered %d bytes, batch export is %d", len(got), want.Len())
	}

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after draining")
	}
}
