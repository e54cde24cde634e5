package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"keddah/internal/core"
	"keddah/internal/serve"
	"keddah/internal/telemetry"
)

// serveSpec sizes the serve-stream workload: an open loop of generate
// requests at a fixed rate over at most conns connections.
type serveSpec struct {
	corpus     corpusSpec
	gen        core.GenSpec // every request's spec; only the seed varies
	rate       float64      // requests per second
	conns      int
	warmup     int // untimed requests sent during set-up
	checkEvery int // every checkEvery-th body is compared byte for byte
}

// serveState is a running keddah-serve handler on a loopback listener
// with a client limited to spec.conns connections.
type serveState struct {
	tag       string
	spec      serveSpec
	seed      int64
	model     *core.Model
	modelPath string
	tel       *telemetry.Telemetry // the server's session
	srv       *http.Server
	served    chan error
	base      string
	client    *http.Client
	estimate  int64
}

func setupServe(tag string, spec serveSpec) setupFunc {
	return func(sc scope, e *env) (state, error) {
		m, err := fitCorpus(sc, spec.corpus)
		if err != nil {
			return nil, err
		}
		st := &serveState{tag: tag, spec: spec, seed: e.seed, model: m}
		if st.estimate, err = m.EstimateFlows(spec.gen); err != nil {
			return nil, fmt.Errorf("estimate request: %w", err)
		}
		if err := st.start(e.dir); err != nil {
			st.close()
			return nil, err
		}
		ws := sc.open("serve.warmup", "")
		for j := 0; j < spec.warmup; j++ {
			r := st.request(ws, st.seed*100_000+90_000+int64(j), time.Now(), "warmup", false)
			if r.err == nil && r.status != http.StatusOK {
				r.err = fmt.Errorf("status %d", r.status)
			}
			if r.err != nil {
				ws.close(nil)
				st.close()
				return nil, fmt.Errorf("warm-up request: %w", r.err)
			}
		}
		ws.close(nil)
		return st, nil
	}
}

// start writes the model where the server loads it from and serves
// serve.New(cfg).Handler() on a 127.0.0.1:0 listener.
func (s *serveState) start(dir string) error {
	f, err := os.CreateTemp(dir, "model-*.json")
	if err != nil {
		return err
	}
	s.modelPath = f.Name()
	if err := s.model.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write model: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write model: %w", err)
	}
	s.tel = telemetry.New()
	daemon, err := serve.New(serve.Config{Models: map[string]string{"bench": s.modelPath}, Telemetry: s.tel})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: daemon.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: s.spec.conns, MaxIdleConnsPerHost: s.spec.conns, DisableCompression: true,
	}}
	return nil
}

// close shuts the server down and waits for it to stop serving.
func (s *serveState) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.srv.Shutdown(ctx) // every request has finished, so only idle connections are left to close
		cancel()
		<-s.served
		s.client.CloseIdleConnections()
	}
	if s.modelPath != "" {
		os.Remove(s.modelPath)
	}
}

// reqResult is one request of the open loop. Times run from its due time.
type reqResult struct {
	status            int
	late, ttfb, total time.Duration
	crc               uint32
	flows             int64
	body              []byte // kept only when asked for
	err               error
}

func (s *serveState) url(seed int64) string {
	g := s.spec.gen
	return fmt.Sprintf("%s/v1/generate?workload=%s&workers=%d&inputBytes=%d&jobs=%d&format=jsonl&seed=%d",
		s.base, g.Workload, g.Workers, g.InputBytes, g.Jobs, seed)
}

// request sends one generate request that was due at due and reads the
// whole body, digesting it as it arrives.
func (s *serveState) request(sc scope, seed int64, due time.Time, label string, keep bool) reqResult {
	var r reqResult
	id := sc.tr.openAt(sc.parent, "serve.request", label, due)
	var firstByte time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { firstByte = time.Now() },
	})
	sent := time.Now()
	r.late = sent.Sub(due)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url(seed), nil)
	if err != nil {
		r.err = err
		sc.tr.closeAt(id, time.Now(), nil)
		return r
	}
	resp, err := s.client.Do(req)
	if err != nil {
		r.err = err
		r.total = time.Since(due)
		sc.tr.closeAt(id, time.Now(), nil)
		return r
	}
	r.status = resp.StatusCode
	crc := crc32.New(castagnoli)
	lines := &lineCounter{}
	w := io.MultiWriter(crc, lines)
	var body bytes.Buffer
	if keep {
		w = io.MultiWriter(crc, lines, &body)
	}
	_, r.err = io.Copy(w, resp.Body)
	resp.Body.Close()
	end := time.Now()
	r.ttfb, r.total = firstByte.Sub(due), end.Sub(due)
	r.crc, r.flows, r.body = crc.Sum32(), lines.n, body.Bytes()
	sc.tr.closeAt(id, end, map[string]float64{
		"ttfb_ms": ms(r.ttfb), "late_ms": ms(r.late), "flows": float64(r.flows),
	})
	return r
}

// measure runs the open loop: request i is due at i/rate seconds, and each
// of spec.conns senders takes the next due request as soon as it is free,
// so a slow response delays the requests behind it and the delay counts.
func (s *serveState) measure(sc scope, b budget, chk *checker) (measurement, error) {
	n := max(b.minOps, int(b.seconds*s.spec.rate))
	loop := sc.open("serve.loop", "")
	results := make([]reqResult, n)
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.spec.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / s.spec.rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				results[i] = s.request(loop, s.seed*100_000+int64(i), due, "loop", i%s.spec.checkEvery == 0)
			}
		}()
	}
	wg.Wait()
	// Requests overlap, so the loop's CPU time is shared out evenly.
	m := measurement{cpuMs: []float64{ms(cpuTime()-cpu0) / float64(n)}}
	if loop.traced() {
		loop.close(map[string]float64{
			"queue_depth_max":    s.tel.Serve.QueueDepthMax.Value(),
			"active_streams_max": s.tel.Serve.ActiveMax.Value(),
			"shed":               float64(s.tel.Serve.Shed.Value()),
		})
		if err := s.firstChunks(sc); err != nil {
			return m, err
		}
	}

	for i, r := range results {
		m.wallMs = append(m.wallMs, ms(r.total))
		ok := r.err == nil && r.status == http.StatusOK
		chk.check(ok, "%s: request %d: status %d, error %v", s.tag, i, r.status, r.err)
		if !ok {
			continue
		}
		chk.check(r.flows == s.estimate, "%s: request %d streamed %d flows, EstimateFlows says %d", s.tag, i, r.flows, s.estimate)
		chk.digest(fmt.Sprintf("%s/body#%d", s.tag, i), fmt.Sprintf("crc32c:%08x", r.crc))
		if r.body != nil {
			want, err := s.direct(s.seed*100_000 + int64(i))
			if err != nil {
				return m, err
			}
			chk.check(bytes.Equal(r.body, want), "%s: request %d body differs from a direct jsonl encoding", s.tag, i)
		}
	}
	return m, nil
}

// direct encodes the request's schedule without the server, the way
// keddah-gen would.
func (s *serveState) direct(seed int64) ([]byte, error) {
	spec := s.spec.gen
	spec.Seed = seed
	var b bytes.Buffer
	enc, err := core.NewStreamEncoder("jsonl", &b, spec.Workers)
	if err != nil {
		return nil, err
	}
	if err := enc.Begin(); err != nil {
		return nil, err
	}
	if err := s.model.GenerateChunks(context.Background(), spec, 0, enc.Flows); err != nil {
		return nil, fmt.Errorf("direct generate: %w", err)
	}
	if err := enc.End(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// firstChunks times, outside the server, a direct GenerateChunks call for
// the request spec up to its first emitted chunk.
func (s *serveState) firstChunks(sc scope) error {
	spec := s.spec.gen
	for j := int64(0); j < 5; j++ {
		spec.Seed = s.seed*100_000 + j
		fc := sc.open("serve.first_chunk", "")
		first := true
		err := s.model.GenerateChunks(context.Background(), spec, 0, func([]core.SynthFlow) error {
			if first {
				fc.close(nil)
				first = false
			}
			return nil
		})
		if first {
			fc.close(nil)
		}
		if err != nil {
			return fmt.Errorf("first-chunk probe: %w", err)
		}
	}
	return nil
}

// lineCounter counts newlines: one per JSONL flow record.
type lineCounter struct{ n int64 }

func (l *lineCounter) Write(p []byte) (int, error) {
	l.n += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}
