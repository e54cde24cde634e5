package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"keddah/internal/core"
)

// FuzzGenerateRequest drives arbitrary /v1/generate query strings through
// the server's handler (parse → GenSpec.Validate → EstimateFlows →
// generate → encode) against the fixture model under a low flow cap. No
// request may panic or answer with a 5xx other than a 503 shed, and every
// 200 body must hold exactly EstimateFlows rows of its format, never more
// than MaxFlows. A request that sets its own timeoutMs may also meet that
// deadline: a 504 before the first byte, an aborted stream after it.
func FuzzGenerateRequest(f *testing.F) {
	const maxFlows = 3000
	s, model := fuzzServer(f, maxFlows)
	h := s.Handler()
	for _, q := range []string{
		"workload=terasort&workers=8&jobs=1&seed=1",
		"workload=wordcount&workers=8&inputBytes=268435456&format=csv&seed=2",
		"workload=terasort&workers=4&format=ns3&background=true&stagger=0.5&seed=3",
		"workload=terasort&inputGb=0.25&reducers=3&blockBytes=67108864&format=ns3",
		"model=bench&workload=wordcount&jobs=2&stagger=0&timeoutMs=60000",
		"workload=terasort&jobs=1000",
		"workload=terasort&inputGb=1e300",
		"workload=terasort&workers=-1&reducers=-2&blockBytes=0",
		"workload=nosuch",
		"model=nosuch&workload=terasort",
		"model=../bench&workload=terasort",
		"workload=terasort&format=xml",
		"workload=terasort&seed=x",
		"workload=terasort&stagger=NaN",
		"workload=terasort&timeoutMs=-5",
		"bogus=1",
		"%zz&;",
		"",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, query string) {
		r := httptest.NewRequest(http.MethodGet, "/v1/generate", nil)
		r.URL.RawQuery = query
		req, parseErr := genFromQuery(r)
		ownDeadline := parseErr == nil && req.TimeoutMs > 0
		panics := s.tel.Serve.Panics.Value()
		w := httptest.NewRecorder()
		if aborted := serveCatchingAbort(h, w, r); aborted {
			if !ownDeadline {
				t.Fatalf("%q: stream aborted without a client deadline", query)
			}
			return
		}
		if n := s.tel.Serve.Panics.Value(); n != panics {
			t.Fatalf("%q: the handler recovered a panic (status %d: %s)", query, w.Code, w.Body.Bytes())
		}
		switch {
		case w.Code == http.StatusOK:
		case w.Code == http.StatusServiceUnavailable:
			return
		case w.Code == http.StatusGatewayTimeout && ownDeadline:
			return
		case w.Code >= 500:
			t.Fatalf("%q: status %d: %s", query, w.Code, w.Body.Bytes())
		default:
			return
		}
		if parseErr != nil {
			t.Fatalf("%q: 200 for a query the parser rejects: %v", query, parseErr)
		}
		want, err := model.EstimateFlows(req.Spec)
		if err != nil {
			t.Fatalf("%q: 200 for a spec EstimateFlows rejects: %v", query, err)
		}
		got, err := countRows(req.Format, w.Body.Bytes())
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		if int64(got) != want || got > maxFlows {
			t.Fatalf("%q: %d rows, EstimateFlows %d, cap %d", query, got, want, maxFlows)
		}
	})
}

// FuzzMixRequest drives arbitrary POST /v1/mix bodies through the
// server's handler (decode → MixSpec.Validate → EstimateMixFlows →
// generate → encode) against the fixture model under a low flow cap. No
// request may panic or answer with a 5xx other than a 503 shed. Every
// spec that decodes and that EstimateMixFlows refuses must be refused
// with a typed core.ErrBadSpec error, and every 200 body must hold
// exactly EstimateMixFlows rows of its format, never more than MaxFlows.
// As for /v1/generate, a request that sets its own timeoutMs may also
// meet that deadline.
func FuzzMixRequest(f *testing.F) {
	const maxFlows = 3000
	s, model := fuzzServer(f, maxFlows)
	h := s.Handler()
	for _, body := range []string{
		`{"spec":{"weights":{"terasort":1,"wordcount":2},"jobsPerMinute":2,"windowSecs":60,"workers":8,"seed":1}}`,
		`{"format":"csv","spec":{"weights":{"wordcount":1},"jobsPerMinute":3,"windowSecs":40,"inputScale":0.5,"seed":2}}`,
		`{"format":"ns3","spec":{"weights":{"terasort":1},"windowSecs":30,"workers":4,"includeBackground":true,"seed":3}}`,
		`{"model":"bench","timeoutMs":60000,"spec":{"weights":{"terasort":1},"windowSecs":20}}`,
		`{"spec":{"weights":{"terasort":1},"jobsPerMinute":60,"windowSecs":600}}`,
		`{"spec":{"weights":{"terasort":1},"jobsPerMinute":1e-12,"windowSecs":1e15,"includeBackground":true}}`,
		`{"spec":{"weights":{"terasort":1},"inputScale":1e300}}`,
		`{"spec":{"weights":{"terasort":1},"jobsPerMinute":1e300}}`,
		`{"spec":{"weights":{"terasort":1},"workers":2000000}}`,
		`{"spec":{"weights":{"terasort":0}}}`,
		`{"spec":{"weights":{"terasort":-1}}}`,
		`{"spec":{"weights":{"nosuch":1}}}`,
		`{"spec":{"weights":{"terasort":1e400}}}`,
		`{"spec":{}}`,
		`{"model":"nosuch","spec":{"weights":{"terasort":1}}}`,
		`{"model":"../bench","spec":{"weights":{"terasort":1}}}`,
		`{"format":"xml","spec":{"weights":{"terasort":1}}}`,
		`{"timeoutMs":-5,"spec":{"weights":{"terasort":1}}}`,
		`{"bogus":1}`,
		`{"spec":{"weights":{"terasort":1}}} {}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req mixRequest
		decodeErr := decodeJSONBody(httptest.NewRecorder(),
			httptest.NewRequest(http.MethodPost, "/v1/mix", strings.NewReader(body)), &req)
		ownDeadline := decodeErr == nil && req.TimeoutMs > 0
		var want int64
		var specErr error
		if decodeErr == nil {
			want, specErr = model.EstimateMixFlows(req.Spec, maxFlows)
			if specErr != nil && !errors.Is(specErr, core.ErrBadSpec) {
				t.Fatalf("%q: spec refused with an untyped error: %v", body, specErr)
			}
		}
		panics := s.tel.Serve.Panics.Value()
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/mix", strings.NewReader(body))
		if aborted := serveCatchingAbort(h, w, r); aborted {
			if !ownDeadline {
				t.Fatalf("%q: stream aborted without a client deadline", body)
			}
			return
		}
		if n := s.tel.Serve.Panics.Value(); n != panics {
			t.Fatalf("%q: the handler recovered a panic (status %d: %s)", body, w.Code, w.Body.Bytes())
		}
		switch {
		case w.Code == http.StatusOK:
		case w.Code == http.StatusServiceUnavailable:
			return
		case w.Code == http.StatusGatewayTimeout && ownDeadline:
			return
		case w.Code >= 500:
			t.Fatalf("%q: status %d: %s", body, w.Code, w.Body.Bytes())
		default:
			return
		}
		if decodeErr != nil {
			t.Fatalf("%q: 200 for a body the decoder rejects: %v", body, decodeErr)
		}
		if specErr != nil {
			t.Fatalf("%q: 200 for a spec EstimateMixFlows rejects: %v", body, specErr)
		}
		got, err := countRows(req.Format, w.Body.Bytes())
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if int64(got) != want || got > maxFlows {
			t.Fatalf("%q: %d rows, EstimateMixFlows %d, cap %d", body, got, want, maxFlows)
		}
	})
}

// fuzzServer builds a server over the fixture model with the given flow
// cap and returns it with the loaded model the fuzz targets check
// estimates against.
func fuzzServer(f *testing.F, maxFlows int64) (*Server, *core.Model) {
	f.Helper()
	s, err := New(Config{
		Models:       map[string]string{"bench": testModelFile},
		DefaultModel: "bench",
		MaxFlows:     maxFlows,
		ChunkFlows:   97,
	})
	if err != nil {
		f.Fatal(err)
	}
	model, err := s.cache.get(context.Background(), "bench")
	if err != nil {
		f.Fatal(err)
	}
	return s, model
}

// serveCatchingAbort serves one request and reports whether the handler
// aborted the stream with http.ErrAbortHandler, the panic net/http's
// server turns into a cut connection. Any other panic propagates.
func serveCatchingAbort(h http.Handler, w http.ResponseWriter, r *http.Request) (aborted bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec != http.ErrAbortHandler {
				panic(rec)
			}
			aborted = true
		}
	}()
	h.ServeHTTP(w, r)
	return false
}

// countRows parses a generate body of format ("" is jsonl) and counts
// its flows: every jsonl line must decode as a SynthFlow, the csv must
// import, and every ns3 line past the header must be a flow directive.
func countRows(format string, body []byte) (int, error) {
	if format == "csv" {
		sched, err := core.ImportCSV(bytes.NewReader(body))
		return len(sched), err
	}
	lines := bytes.Split(body, []byte("\n"))
	if len(lines[len(lines)-1]) != 0 {
		return 0, fmt.Errorf("body does not end in a line break: %q", lines[len(lines)-1])
	}
	rows := lines[:len(lines)-1]
	if format == "ns3" {
		if len(rows) < 2 || string(rows[0]) != "# keddah-ns3 v1" || !bytes.HasPrefix(rows[1], []byte("nodes ")) {
			return 0, fmt.Errorf("malformed ns3 header: %q", body[:min(len(body), 64)])
		}
		rows = rows[2:]
	}
	for _, row := range rows {
		if format == "ns3" {
			if !bytes.HasPrefix(row, []byte("flow ")) {
				return 0, fmt.Errorf("malformed ns3 line: %q", row)
			}
			continue
		}
		var sf core.SynthFlow
		if err := json.Unmarshal(row, &sf); err != nil {
			return 0, fmt.Errorf("jsonl line %q: %w", row, err)
		}
	}
	return len(rows), nil
}
