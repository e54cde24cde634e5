package core

import (
	"bytes"
	"testing"

	"keddah/internal/workload"
)

// FuzzReadTraceSet feeds arbitrary bytes to ReadTraceSet, and writes and
// fits every trace set it accepts. Reading and fitting must each return
// an error or a value, never panic, and WriteJSON and WriteFlowCSV must
// write exactly the bytes of their encoding/json and encoding/csv
// references (refWriteJSON, refWriteFlowCSV). The seeds are a null run,
// the JSON of a 4-worker, 128 MiB terasort capture, null and empty
// background and record arrays, and labels that need escaping or
// quoting.
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
	f.Add([]byte(`{"background":null,"runs":null}`))
	f.Add([]byte(`{"background":[],"runs":[]}`))
	f.Add([]byte(`{"runs":[{"jobName":"a","records":null},{"jobName":"b","records":[]}]}`))
	f.Add([]byte(`{"background":[{"Label":"yarn/<hb>&\"q\" back\\slash \u0001\n\t\u2028\u2029 \ud800 é"}],` +
		`"runs":[{"workload":" lead","jobName":"\\.","records":[{"Label":"x,y\r\n"},{"Label":"\\."},{"Label":" leading"}]}]}`))
	f.Add([]byte("{\"background\":[{\"Label\":\"bad\xff\xfeutf8\"}]}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ReadTraceSet(bytes.NewReader(data))
		if (ts == nil) == (err == nil) {
			t.Fatalf("ReadTraceSet returned trace set %v and error %v", ts != nil, err)
		}
		if err != nil {
			return
		}
		checkWritersMatch(t, ts)
		m, err := FitWith(ts, FitOptions{}, nil)
		if (m == nil) == (err == nil) {
			t.Fatalf("FitWith returned model %v and error %v", m != nil, err)
		}
	})
}
