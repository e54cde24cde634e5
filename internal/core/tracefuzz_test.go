package core

import (
	"bytes"
	"testing"

	"keddah/internal/workload"
)

// FuzzReadTraceSet feeds arbitrary bytes to ReadTraceSet and fits every
// trace set it accepts. Reading and fitting must each return an error or
// a value, never panic. The seeds are a null run and the JSON of a
// 4-worker, 128 MiB terasort capture.
func FuzzReadTraceSet(f *testing.F) {
	f.Add([]byte(`{"runs":[null]}`))
	ts, _, err := CaptureWith(ClusterSpec{Workers: 4, Seed: 1},
		[]workload.RunSpec{{Profile: "terasort", InputBytes: 128 << 20, JobName: "terasort-0"}}, CaptureOpts{})
	if err != nil {
		f.Fatal(err)
	}
	var capture bytes.Buffer
	if err := ts.WriteJSON(&capture); err != nil {
		f.Fatal(err)
	}
	f.Add(capture.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ReadTraceSet(bytes.NewReader(data))
		if (ts == nil) == (err == nil) {
			t.Fatalf("ReadTraceSet returned trace set %v and error %v", ts != nil, err)
		}
		if err != nil {
			return
		}
		m, err := FitWith(ts, FitOptions{}, nil)
		if (m == nil) == (err == nil) {
			t.Fatalf("FitWith returned model %v and error %v", m != nil, err)
		}
	})
}
