package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keddah/internal/core"
	"keddah/internal/workload"
)

// The package fixture: one fitted two-workload model, written to disk
// once for the whole test run so every server test loads the same file.
var (
	testModel     *core.Model
	testModelFile string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "keddah-serve-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := func() int {
		defer os.RemoveAll(dir)
		ts, _, err := core.CaptureWith(core.ClusterSpec{Workers: 8, Seed: 13}, []workload.RunSpec{
			{Profile: "terasort", InputBytes: 256 << 20, JobName: "t0", InputPath: "/d/t"},
			{Profile: "terasort", InputBytes: 256 << 20, JobName: "t1", InputPath: "/d/t"},
			{Profile: "wordcount", InputBytes: 256 << 20, JobName: "w0", InputPath: "/d/w"},
			{Profile: "wordcount", InputBytes: 256 << 20, JobName: "w1", InputPath: "/d/w"},
		}, core.CaptureOpts{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fixture capture:", err)
			return 1
		}
		testModel, err = core.FitWith(ts, core.FitOptions{}, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fixture fit:", err)
			return 1
		}
		testModelFile = dir + "/bench.json"
		f, err := os.Create(testModelFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := testModel.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "fixture write:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}()
	os.Exit(code)
}

// newTestServer builds a Server over the fixture model plus an
// httptest.Server for its handler.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Models: map[string]string{"bench": testModelFile}}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func get(t *testing.T, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// TestStreamMatchesBatch is the core acceptance check: for every format,
// the bytes a streamed request delivers are identical to what the batch
// exporter produces from the same model, spec and seed.
func TestStreamMatchesBatch(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) {
		c.ChunkFlows = 13 // odd and small: force many partial chunks
	})
	spec := core.GenSpec{Workload: "terasort", InputBytes: 1 << 30, Jobs: 2, Workers: 8, Seed: 42}
	sched, err := testModel.Generate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	batch := map[string]func(io.Writer) error{
		"jsonl": func(w io.Writer) error { return core.ExportJSONL(w, sched) },
		"csv":   func(w io.Writer) error { return core.ExportCSV(w, sched) },
		"ns3":   func(w io.Writer) error { return core.ExportNS3(w, sched, spec.Workers) },
	}
	for format, export := range batch {
		t.Run(format, func(t *testing.T) {
			var want bytes.Buffer
			if err := export(&want); err != nil {
				t.Fatal(err)
			}
			url := hs.URL + "/v1/generate?workload=terasort&inputBytes=1073741824&jobs=2&workers=8&seed=42&format=" + format
			resp, body, err := get(t, url)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Keddah-Model"); got != "bench" {
				t.Errorf("X-Keddah-Model = %q, want bench", got)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("streamed %s differs from batch export: %d vs %d bytes", format, len(body), want.Len())
			}
			if len(body) == 0 {
				t.Fatal("empty stream")
			}
		})
	}
}

// TestMixStreamMatchesBatch does the same for the POST /v1/mix endpoint.
func TestMixStreamMatchesBatch(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) { c.ChunkFlows = 11 })
	spec := core.MixSpec{
		Weights:       map[string]float64{"terasort": 3, "wordcount": 1},
		JobsPerMinute: 6,
		WindowSecs:    300,
		Workers:       8,
		Seed:          5,
	}
	sched, err := testModel.GenerateMix(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := core.ExportJSONL(&want, sched); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"model": "bench", "format": "jsonl", "spec": spec}
	payload, _ := json.Marshal(req)
	resp, err := http.Post(hs.URL+"/v1/mix", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("streamed mix differs from batch export: %d vs %d bytes", len(body), want.Len())
	}
}

// TestRequestValidation walks the rejection surface: every row must fail
// with the right status and never reach generation.
func TestRequestValidation(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) { c.MaxFlows = 50 })
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"unknown query key", "GET", "/v1/generate?workload=terasort&bogus=1", "", http.StatusBadRequest},
		{"bad format", "GET", "/v1/generate?workload=terasort&format=xml", "", http.StatusBadRequest},
		{"unparseable int", "GET", "/v1/generate?workload=terasort&jobs=many", "", http.StatusBadRequest},
		{"unknown workload", "GET", "/v1/generate?workload=nosuch", "", http.StatusBadRequest},
		{"negative input", "GET", "/v1/generate?workload=terasort&inputBytes=-5", "", http.StatusBadRequest},
		{"unknown model", "GET", "/v1/generate?workload=terasort&model=missing", "", http.StatusNotFound},
		{"schedule too large", "GET", "/v1/generate?workload=terasort&jobs=1000", "", http.StatusRequestEntityTooLarge},
		{"schedule over core limit", "GET", "/v1/generate?workload=terasort&inputBytes=1099511627776&blockBytes=1048576&reducers=1048576", "", http.StatusRequestEntityTooLarge},
		{"mix too large", "POST", "/v1/mix", `{"spec":{"weights":{"terasort":1},"jobsPerMinute":60,"windowSecs":600}}`, http.StatusRequestEntityTooLarge},
		{"mix over core limit", "POST", "/v1/mix", `{"spec":{"weights":{"terasort":1},"jobsPerMinute":1e-12,"windowSecs":1e15,"includeBackground":true}}`, http.StatusRequestEntityTooLarge},
		{"method not allowed", "DELETE", "/v1/generate", "", http.StatusMethodNotAllowed},
		{"mix needs POST", "GET", "/v1/mix", "", http.StatusMethodNotAllowed},
		{"unknown JSON field", "POST", "/v1/generate", `{"speed": 9}`, http.StatusBadRequest},
		{"trailing JSON data", "POST", "/v1/generate", `{"spec":{"workload":"terasort"}} {}`, http.StatusBadRequest},
		{"mix empty weights", "POST", "/v1/mix", `{"spec":{}}`, http.StatusBadRequest},
		{"mix negative weight", "POST", "/v1/mix", `{"spec":{"weights":{"terasort":-1}}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, hs.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			var msg map[string]string
			if err := json.Unmarshal(body, &msg); err != nil || msg["error"] == "" {
				t.Fatalf("expected a JSON error body, got %q", body)
			}
		})
	}
	if got := s.tel.Serve.Streams.Value(); got != 0 {
		t.Errorf("rejected requests completed %d streams", got)
	}
}

// TestSpecPastClock: a spec that would start flows past the latest time
// int64 nanoseconds hold is refused as too large, naming its field,
// before any body byte is written.
func TestSpecPastClock(t *testing.T) {
	s, hs := newTestServer(t, nil)
	cases := []struct{ method, path, body, field string }{
		{"GET", "/v1/generate?workload=terasort&workers=4&jobs=3&stagger=1e9", "", "GenSpec.stagger"},
		{"POST", "/v1/mix", `{"spec":{"weights":{"terasort":1},"jobsPerMinute":1e-9,"windowSecs":1e12}}`, "MixSpec.windowSecs"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, hs.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), tc.field) {
			t.Errorf("%s %s: status %d (%s), want %d naming %s", tc.method, tc.path, resp.StatusCode, body,
				http.StatusRequestEntityTooLarge, tc.field)
		}
	}
	if got := s.tel.Serve.Streams.Value(); got != 0 {
		t.Errorf("refused requests completed %d streams", got)
	}
}

// TestLoadShed fills the pool (no queue) and checks the next request is
// shed with 503 + Retry-After while the daemon keeps serving.
func TestLoadShed(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) {
		c.MaxStreams = 2
		c.MaxQueue = -1 // shed immediately when the pool is full
		c.RetryAfter = 3 * time.Second
	})
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.hook = func(stage string) {
		if stage == "generate" {
			entered <- struct{}{}
			<-release
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body, err := get(t, hs.URL+"/v1/generate?workload=terasort")
			if err != nil {
				t.Errorf("held stream: %v", err)
				return
			}
			if resp.StatusCode != http.StatusOK || len(body) == 0 {
				t.Errorf("held stream: status %d, %d bytes", resp.StatusCode, len(body))
			}
		}()
	}
	<-entered
	<-entered

	resp, _, err := get(t, hs.URL+"/v1/generate?workload=terasort")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want 3", got)
	}
	if got := s.tel.Serve.Shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	close(release)
	wg.Wait()
	if got := s.tel.Serve.Streams.Value(); got != 2 {
		t.Errorf("completed streams = %d, want 2", got)
	}
}

// TestQueueTimeout parks a request in the wait queue longer than
// QueueWait and checks it is shed late with the right counter.
func TestQueueTimeout(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) {
		c.MaxStreams = 1
		c.MaxQueue = 4
		c.QueueWait = 50 * time.Millisecond
	})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.hook = func(stage string) {
		if stage == "generate" {
			entered <- struct{}{}
			<-release
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		get(t, hs.URL+"/v1/generate?workload=terasort")
	}()
	<-entered

	start := time.Now()
	resp, _, err := get(t, hs.URL+"/v1/generate?workload=terasort")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-past-deadline status %d, want 503", resp.StatusCode)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("shed after %v, before QueueWait elapsed", waited)
	}
	if got := s.tel.Serve.QueueTimeouts.Value(); got != 1 {
		t.Errorf("queue timeout counter = %d, want 1", got)
	}
	close(release)
	<-done
}

// TestDeadlineBeforeFirstByte: a request whose deadline expires before
// any output gets a clean 504.
func TestDeadlineBeforeFirstByte(t *testing.T) {
	s, hs := newTestServer(t, nil)
	s.hook = func(stage string) {
		if stage == "generate" {
			time.Sleep(80 * time.Millisecond)
		}
	}
	resp, _, err := get(t, hs.URL+"/v1/generate?workload=terasort&timeoutMs=20")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if got := s.tel.Serve.Deadlines.Value(); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
}

// TestDeadlineMidStream: once bytes are on the wire a blown deadline
// must abort the connection — the client sees truncation, not a clean
// EOF that looks like a complete trace.
func TestDeadlineMidStream(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) { c.ChunkFlows = 8 })
	var chunks atomic.Int32
	s.hook = func(stage string) {
		if stage == "chunk" && chunks.Add(1) == 1 {
			time.Sleep(120 * time.Millisecond) // outlive the deadline after chunk 1
		}
	}
	resp, err := http.Get(hs.URL + "/v1/generate?workload=terasort&jobs=4&timeoutMs=40")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 then truncation", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("read %d bytes with clean EOF; want a truncated-body error", len(body))
	}
	if len(body) == 0 {
		t.Fatal("no bytes before the deadline fired")
	}
	if got := s.tel.Serve.Deadlines.Value(); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
	if got := s.tel.Serve.Streams.Value(); got != 0 {
		t.Errorf("aborted stream counted as completed (%d)", got)
	}
}

// TestPanicRecovery: a panicking generation must never take the daemon
// down — 500 before the first byte, a connection abort mid-stream, and
// the next request works either way.
func TestPanicRecovery(t *testing.T) {
	t.Run("before body", func(t *testing.T) {
		s, hs := newTestServer(t, nil)
		var once atomic.Bool
		s.hook = func(stage string) {
			if stage == "generate" && once.CompareAndSwap(false, true) {
				panic("injected model fault")
			}
		}
		resp, body, err := get(t, hs.URL+"/v1/generate?workload=terasort")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", resp.StatusCode)
		}
		if !bytes.Contains(body, []byte("injected model fault")) {
			t.Fatalf("error body %q does not name the panic", body)
		}
		if got := s.tel.Serve.Panics.Value(); got != 1 {
			t.Errorf("panic counter = %d, want 1", got)
		}
		// The daemon survived: the same endpoint serves the next request.
		resp, body, err = get(t, hs.URL+"/v1/generate?workload=terasort")
		if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("request after panic: %v, status %d, %d bytes", err, resp.StatusCode, len(body))
		}
	})
	t.Run("mid-stream", func(t *testing.T) {
		s, hs := newTestServer(t, func(c *Config) { c.ChunkFlows = 8 })
		var chunks atomic.Int32
		s.hook = func(stage string) {
			if stage == "chunk" && chunks.Add(1) == 2 {
				panic("injected encode fault")
			}
		}
		resp, err := http.Get(hs.URL + "/v1/generate?workload=terasort&jobs=4")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatalf("read %d bytes with clean EOF; want a truncated-body error", len(body))
		}
		if got := s.tel.Serve.Panics.Value(); got != 1 {
			t.Errorf("panic counter = %d, want 1", got)
		}
		s.hook = nil
		resp2, body2, err := get(t, hs.URL+"/v1/generate?workload=terasort")
		if err != nil || resp2.StatusCode != http.StatusOK || len(body2) == 0 {
			t.Fatalf("request after mid-stream panic: %v, status %d", err, resp2.StatusCode)
		}
	})
}

// TestDrainGraceful: BeginDrain flips readiness and sheds new work while
// in-flight streams run to a complete, untruncated end.
func TestDrainGraceful(t *testing.T) {
	s, hs := newTestServer(t, nil)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.hook = func(stage string) {
		if stage == "generate" {
			entered <- struct{}{}
			<-release
		}
	}
	type result struct {
		status int
		bytes  int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/v1/generate?workload=terasort&seed=7")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode, bytes: len(body), err: err}
	}()
	<-entered

	if resp, _, _ := get(t, hs.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	s.BeginDrain()
	if resp, _, _ := get(t, hs.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	resp, _, err := get(t, hs.URL+"/v1/generate?workload=terasort")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("new request during drain: %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp, _, _ := get(t, hs.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", resp.StatusCode)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-inflight
	if r.err != nil || r.status != http.StatusOK || r.bytes == 0 {
		t.Fatalf("in-flight stream during drain: %+v", r)
	}
	// The completed stream must be byte-identical to batch: drain did not
	// truncate it.
	sched, err := testModel.Generate(context.Background(), core.GenSpec{Workload: "terasort", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := core.ExportJSONL(&want, sched); err != nil {
		t.Fatal(err)
	}
	if r.bytes != want.Len() {
		t.Fatalf("drained stream delivered %d bytes, batch has %d", r.bytes, want.Len())
	}
}

// TestDrainDeadlineHardStops: a drain that outlives its deadline aborts
// the stragglers instead of hanging forever.
func TestDrainDeadlineHardStops(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) { c.ChunkFlows = 4 })
	s.hook = func(stage string) {
		if stage == "chunk" {
			time.Sleep(50 * time.Millisecond) // a deliberately slow stream
		}
	}
	bodyErr := make(chan error, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/v1/generate?workload=terasort&jobs=8")
		if err != nil {
			bodyErr <- err
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		bodyErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the stream get going

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("drain finished cleanly; expected a deadline-forced hard stop")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("drain took %v after hard stop; stragglers did not abort", took)
	}
	if err := <-bodyErr; err == nil {
		t.Fatal("hard-stopped stream delivered a clean EOF; want truncation")
	}
}

// TestModelsEndpoint checks /v1/models reflects configured sources and
// cache states, including a failed load.
func TestModelsEndpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/broken.json", []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, func(c *Config) { c.ModelDir = dir })
	// Warm one good and one bad entry.
	get(t, hs.URL+"/v1/generate?workload=terasort")
	get(t, hs.URL+"/v1/generate?workload=terasort&model=broken")

	resp, body, err := get(t, hs.URL+"/v1/models")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("models: %v, status %d", err, resp.StatusCode)
	}
	var got struct {
		Default    string       `json:"default"`
		Configured []string     `json:"configured"`
		Cache      []cacheState `json:"cache"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("models body %q: %v", body, err)
	}
	if got.Default != "bench" || len(got.Configured) != 1 || got.Configured[0] != "bench" {
		t.Fatalf("models response: %+v", got)
	}
	states := map[string]string{}
	for _, c := range got.Cache {
		states[c.Name] = c.State
	}
	if states["bench"] != "loaded" || states["broken"] != "failed" {
		t.Fatalf("cache states: %v", states)
	}
}

// TestPathTraversalRejected: model names must never escape ModelDir.
func TestPathTraversalRejected(t *testing.T) {
	_, hs := newTestServer(t, func(c *Config) { c.ModelDir = t.TempDir() })
	u := hs.URL + "/v1/generate?workload=terasort&model=" + "..%2F..%2Fetc%2Fpasswd"
	resp, _, err := get(t, u)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traversal name: status %d, want 404", resp.StatusCode)
	}
}
