package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"keddah/internal/core"
	"keddah/internal/telemetry"
)

// errMethod reports an HTTP method an endpoint does not serve.
var errMethod = errors.New("serve: method not allowed")

// errTooLarge reports a request whose predicted schedule exceeds the
// per-request flow cap.
var errTooLarge = errors.New("serve: schedule too large")

// generateRequest is the wire form of a /v1/generate request: the model
// name, the output format, an optional per-request deadline (clamped to
// the server's RequestTimeout) and the generation spec itself.
type generateRequest struct {
	Model     string       `json:"model,omitempty"`
	Format    string       `json:"format,omitempty"`
	TimeoutMs int64        `json:"timeoutMs,omitempty"`
	Spec      core.GenSpec `json:"spec"`
}

// mixRequest is the wire form of a /v1/mix request.
type mixRequest struct {
	Model     string       `json:"model,omitempty"`
	Format    string       `json:"format,omitempty"`
	TimeoutMs int64        `json:"timeoutMs,omitempty"`
	Spec      core.MixSpec `json:"spec"`
}

// handleGenerate streams one workload's synthetic schedule.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	s.tel.Serve.Requests.Inc()
	req, err := parseGenerateRequest(w, r)
	if err != nil {
		s.requestError(w, err)
		return
	}
	if err := req.Spec.Validate(); err != nil {
		s.rejectSpec(w, err)
		return
	}
	s.runStream(w, r, streamParams{
		model:   req.Model,
		format:  req.Format,
		timeout: time.Duration(req.TimeoutMs) * time.Millisecond,
		workers: effectiveWorkers(req.Spec.Workers),
		check: func(m *core.Model) error {
			return s.admitFlows(m.EstimateFlows(req.Spec))
		},
		run: func(ctx context.Context, m *core.Model, emit func([]core.SynthFlow) error) error {
			return m.GenerateChunks(ctx, req.Spec, s.cfg.ChunkFlows, emit)
		},
	})
}

// admitFlows is the pre-flight size check on a schedule-length estimate:
// a schedule over MaxFlows, or over core's schedule limit, is too large.
func (s *Server) admitFlows(n int64, err error) error {
	switch {
	case errors.Is(err, core.ErrScheduleTooLarge):
		return fmt.Errorf("%w: %v", errTooLarge, err)
	case err != nil:
		return err
	case n > s.cfg.MaxFlows:
		return fmt.Errorf("%w: ~%d flows exceeds the %d-flow cap", errTooLarge, n, s.cfg.MaxFlows)
	}
	return nil
}

// handleMix streams a multi-tenant Poisson job mix.
func (s *Server) handleMix(w http.ResponseWriter, r *http.Request) {
	s.tel.Serve.Requests.Inc()
	if r.Method != http.MethodPost {
		s.requestError(w, fmt.Errorf("%w: %s /v1/mix (POST only)", errMethod, r.Method))
		return
	}
	var req mixRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	if err := req.Spec.Validate(); err != nil {
		s.rejectSpec(w, err)
		return
	}
	s.runStream(w, r, streamParams{
		model:   req.Model,
		format:  req.Format,
		timeout: time.Duration(req.TimeoutMs) * time.Millisecond,
		workers: effectiveWorkers(req.Spec.Workers),
		check: func(m *core.Model) error {
			return s.admitFlows(m.EstimateMixFlows(req.Spec, s.cfg.MaxFlows))
		},
		run: func(ctx context.Context, m *core.Model, emit func([]core.SynthFlow) error) error {
			return m.GenerateMixChunks(ctx, req.Spec, s.cfg.ChunkFlows, emit)
		},
	})
}

// handleModels reports the model sources and cache states.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	configured := make([]string, 0, len(s.cfg.Models))
	for name := range s.cfg.Models {
		configured = append(configured, name)
	}
	sort.Strings(configured)
	resp := struct {
		Default    string       `json:"default,omitempty"`
		Configured []string     `json:"configured"`
		ModelDir   string       `json:"modelDir,omitempty"`
		Cache      []cacheState `json:"cache"`
	}{
		Default:    s.cfg.DefaultModel,
		Configured: configured,
		ModelDir:   s.cfg.ModelDir,
		Cache:      s.cache.states(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// streamParams is one stream's plan: which model, which encoder, what
// deadline, and the generation closure to drive.
type streamParams struct {
	model   string
	format  string
	timeout time.Duration
	workers int // ns3 node numbering
	check   func(*core.Model) error
	run     func(context.Context, *core.Model, func([]core.SynthFlow) error) error
}

// runStream is the shared request pipeline: drain gate → admission →
// deadline wiring → model cache → pre-flight check → chunked
// generate/encode/flush with panic recovery.
func (s *Server) runStream(w http.ResponseWriter, r *http.Request, p streamParams) {
	if s.Draining() {
		s.shed(w, "draining")
		return
	}
	format := p.format
	if format == "" {
		format = "jsonl"
	}
	switch format {
	case "jsonl", "csv", "ns3":
	default:
		s.badRequest(w, fmt.Errorf("serve: unknown format %q (jsonl | csv | ns3)", format))
		return
	}
	modelName := p.model
	if modelName == "" {
		modelName = s.cfg.DefaultModel
	}
	if modelName == "" {
		s.badRequest(w, errors.New("serve: request names no model and no default is configured"))
		return
	}

	release, err := s.adm.acquire(r.Context(), s.cfg.QueueWait)
	if err != nil {
		switch {
		case errors.Is(err, errSaturated):
			s.shed(w, "worker pool and wait queue full")
		case errors.Is(err, errQueueTimeout):
			s.tel.Serve.QueueTimeouts.Inc()
			s.shed(w, "timed out waiting for a worker slot")
		default: // client vanished while queued; nobody is listening
			s.tel.Serve.ClientAborts.Inc()
		}
		return
	}
	defer release()
	if s.Draining() { // drain may have begun while this request queued
		s.shed(w, "draining")
		return
	}

	timeout := s.cfg.RequestTimeout
	if p.timeout > 0 && p.timeout < timeout {
		timeout = p.timeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// A drain hard-stop aborts this stream exactly like a disconnect.
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	model, err := s.cache.get(ctx, modelName)
	if err != nil {
		s.modelError(w, err)
		return
	}
	if p.check != nil {
		if err := p.check(model); err != nil {
			s.rejectSpec(w, err)
			return
		}
	}

	if !s.registerStream() { // authoritative drain gate: atomic with BeginDrain
		s.shed(w, "draining")
		return
	}
	defer s.unregisterStream()
	s.tel.Serve.Active.Add(1)
	s.tel.Serve.ActiveMax.SetMax(s.tel.Serve.Active.Value())
	defer s.tel.Serve.Active.Add(-1)

	mw := &meteredWriter{w: w, bytes: s.tel.Serve.BytesStreamed}
	enc, err := core.NewStreamEncoder(format, mw, p.workers)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	rc := http.NewResponseController(w)

	started := false
	defer func() {
		if rec := recover(); rec != nil {
			s.tel.Serve.Panics.Inc()
			if !started {
				s.writeJSONError(w, http.StatusInternalServerError,
					fmt.Sprintf("generation panicked: %v", rec))
				return
			}
			// Mid-stream: kill the connection so the client observes
			// truncation instead of a clean EOF. net/http swallows
			// ErrAbortHandler; the daemon keeps serving.
			panic(http.ErrAbortHandler)
		}
	}()
	if s.hook != nil {
		s.hook("generate")
	}

	emit := func(chunk []core.SynthFlow) error {
		if s.hook != nil {
			s.hook("chunk")
		}
		if !started {
			w.Header().Set("Content-Type", enc.ContentType())
			w.Header().Set("X-Keddah-Model", modelName)
			started = true
			_ = rc.SetWriteDeadline(s.cfg.now().Add(s.cfg.WriteTimeout))
			if err := enc.Begin(); err != nil {
				return err
			}
		}
		// Each chunk gets a fresh write deadline: a reader draining at any
		// reasonable pace rolls it forward forever, a stalled one is cut
		// off within WriteTimeout no matter how large the schedule is.
		_ = rc.SetWriteDeadline(s.cfg.now().Add(s.cfg.WriteTimeout))
		if err := enc.Flows(chunk); err != nil {
			return err
		}
		s.tel.Serve.FlowsStreamed.Add(int64(len(chunk)))
		return rc.Flush()
	}

	err = p.run(ctx, model, emit)
	if err == nil && !started {
		err = emit(nil) // empty schedule: still a valid header-only body
	}
	if err == nil {
		err = enc.End()
	}
	if err != nil {
		if !started {
			s.streamError(w, err)
			return
		}
		s.countAbort(err)
		panic(http.ErrAbortHandler)
	}
	_ = rc.SetWriteDeadline(time.Time{}) // clean conn back to keep-alive
	s.tel.Serve.Streams.Inc()
}

// ------------------------------------------------------------- responses

func (s *Server) writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// shed rejects a request the daemon cannot take on right now: 503 with a
// Retry-After hint, never an unbounded queue.
func (s *Server) shed(w http.ResponseWriter, reason string) {
	s.tel.Serve.Shed.Inc()
	w.Header().Set("Retry-After", s.retryAfterSecs())
	s.writeJSONError(w, http.StatusServiceUnavailable, "overloaded: "+reason)
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.tel.Serve.BadRequests.Inc()
	s.writeJSONError(w, http.StatusBadRequest, err.Error())
}

// rejectSpec answers a spec refused before streaming: 413 when only its
// size is at fault, 400 when it is malformed.
func (s *Server) rejectSpec(w http.ResponseWriter, err error) {
	if errors.Is(err, errTooLarge) || errors.Is(err, core.ErrScheduleTooLarge) {
		s.tel.Serve.BadRequests.Inc()
		s.writeJSONError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	s.badRequest(w, err)
}

// requestError maps parse-stage failures to a status.
func (s *Server) requestError(w http.ResponseWriter, err error) {
	if errors.Is(err, errMethod) {
		s.writeJSONError(w, http.StatusMethodNotAllowed, err.Error())
		return
	}
	s.badRequest(w, err)
}

// modelError maps a model-cache failure to a status.
func (s *Server) modelError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownModel):
		s.writeJSONError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, context.Canceled):
		s.tel.Serve.ClientAborts.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		s.tel.Serve.Deadlines.Inc()
		s.writeJSONError(w, http.StatusGatewayTimeout, err.Error())
	default:
		s.writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// streamError reports a generation failure that happened before the
// first body byte, where a proper status line is still possible.
func (s *Server) streamError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrBadSpec):
		s.badRequest(w, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.tel.Serve.Deadlines.Inc()
		s.writeJSONError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		s.tel.Serve.ClientAborts.Inc() // client gone; nothing to write
	default:
		s.writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// countAbort classifies a mid-stream failure for telemetry.
func (s *Server) countAbort(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		// Request deadline or per-chunk write deadline (slow-loris).
		s.tel.Serve.Deadlines.Inc()
	default:
		s.tel.Serve.ClientAborts.Inc()
	}
}

// --------------------------------------------------------------- parsing

func parseGenerateRequest(w http.ResponseWriter, r *http.Request) (*generateRequest, error) {
	switch r.Method {
	case http.MethodGet:
		return genFromQuery(r)
	case http.MethodPost:
		var req generateRequest
		if err := decodeJSONBody(w, r, &req); err != nil {
			return nil, err
		}
		return &req, nil
	default:
		return nil, fmt.Errorf("%w: %s /v1/generate (GET or POST)", errMethod, r.Method)
	}
}

// decodeJSONBody decodes a bounded, strict JSON request body: unknown
// fields and trailing data are rejected, so a typo in a spec field is a
// 400 today instead of a silently defaulted parameter forever.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decode request body: %w", err)
	}
	if dec.More() {
		return errors.New("serve: trailing data after request body")
	}
	return nil
}

// genQueryKeys is the complete GET parameter vocabulary; anything else
// is rejected rather than silently ignored.
var genQueryKeys = map[string]bool{
	"model": true, "format": true, "timeoutMs": true,
	"workload": true, "inputBytes": true, "inputGb": true,
	"blockBytes": true, "reducers": true, "workers": true,
	"jobs": true, "stagger": true, "background": true, "seed": true,
}

func genFromQuery(r *http.Request) (*generateRequest, error) {
	q := r.URL.Query()
	for k := range q {
		if !genQueryKeys[k] {
			return nil, fmt.Errorf("serve: unknown query parameter %q", k)
		}
	}
	req := &generateRequest{
		Model:  q.Get("model"),
		Format: q.Get("format"),
		Spec:   core.GenSpec{Workload: q.Get("workload")},
	}
	var err error
	geti64 := func(key string, dst *int64) {
		if v := q.Get(key); v != "" && err == nil {
			if *dst, err = strconv.ParseInt(v, 10, 64); err != nil {
				err = fmt.Errorf("serve: query %s=%q: %w", key, v, err)
			}
		}
	}
	geti := func(key string, dst *int) {
		if v := q.Get(key); v != "" && err == nil {
			if *dst, err = strconv.Atoi(v); err != nil {
				err = fmt.Errorf("serve: query %s=%q: %w", key, v, err)
			}
		}
	}
	getf := func(key string, dst *float64) {
		if v := q.Get(key); v != "" && err == nil {
			if *dst, err = strconv.ParseFloat(v, 64); err != nil {
				err = fmt.Errorf("serve: query %s=%q: %w", key, v, err)
			}
		}
	}
	geti64("timeoutMs", &req.TimeoutMs)
	geti64("inputBytes", &req.Spec.InputBytes)
	geti64("blockBytes", &req.Spec.BlockSize)
	geti("reducers", &req.Spec.Reducers)
	geti("workers", &req.Spec.Workers)
	geti("jobs", &req.Spec.Jobs)
	getf("stagger", &req.Spec.Stagger)
	geti64("seed", &req.Spec.Seed)
	var inputGb float64
	getf("inputGb", &inputGb)
	if v := q.Get("background"); v != "" && err == nil {
		if req.Spec.IncludeBackground, err = strconv.ParseBool(v); err != nil {
			err = fmt.Errorf("serve: query background=%q: %w", v, err)
		}
	}
	if err != nil {
		return nil, err
	}
	if inputGb != 0 && req.Spec.InputBytes == 0 {
		req.Spec.InputBytes = int64(inputGb * float64(1<<30))
	}
	return req, nil
}

// effectiveWorkers applies the GenSpec/MixSpec default so ns3 node
// numbering matches what generation will actually use.
func effectiveWorkers(w int) int {
	if w <= 0 {
		return core.DefaultWorkers
	}
	return w
}

// meteredWriter counts encoded bytes as they hit the wire.
type meteredWriter struct {
	w     io.Writer
	bytes *telemetry.Counter
}

func (m *meteredWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.bytes.Add(int64(n))
	return n, err
}
