package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"keddah/internal/workload"
)

// Model JSON that decodes but cannot be generated from.
const (
	nullJobModel   = `{"jobs":{"x":null}}`
	nullPhaseModel = `{"jobs":{"x":{"refInputBytes":1048576,"refBlockSize":1048576,"phases":{"shuffle":null}}}}`
	zeroBlockModel = `{"jobs":{"x":{"refInputBytes":1048576,"refBlockSize":0,"phases":{}}}}`
)

// TestReadRejectsUnusableJSON: JSON that decodes but would panic the call
// that consumes it — a nil dereference or an integer divide by zero — is
// refused with a typed error instead: at read time, or, for a model
// without a reference block size, by a spec that leaves the block size
// to the model.
func TestReadRejectsUnusableJSON(t *testing.T) {
	estimate := func(in string) error {
		m, err := ReadModel(strings.NewReader(in))
		if err != nil {
			return err
		}
		_, err = m.EstimateFlows(GenSpec{Workload: "x"})
		return err
	}
	fit := func(in string) error {
		ts, err := ReadTraceSet(strings.NewReader(in))
		if err != nil {
			return err
		}
		_, err = FitWith(ts, FitOptions{}, nil)
		return err
	}
	cases := []struct {
		name, in string
		use      func(string) error // read in, then make the call it panicked
		want     error
	}{
		{"null job", nullJobModel, estimate, ErrBadModel},
		{"null phase", nullPhaseModel, estimate, ErrBadModel},
		{"zero block size", zeroBlockModel, estimate, ErrBadSpec},
		{"null run", `{"runs":[null]}`, fit, ErrBadTraceSet},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			if err := tc.use(tc.in); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want an error wrapping %v", err, tc.want)
			}
		})
	}
}

// TestBlocklessModelRoundTrips: FitWith writes a zero reference block
// size for runs captured without one. ReadModel accepts that model;
// Generate refuses a spec that leaves the block size to it with a
// SpecError on blockSize, and generates once the spec names one.
func TestBlocklessModelRoundTrips(t *testing.T) {
	ts, _, err := CaptureWith(ClusterSpec{Workers: 4, Seed: 5},
		[]workload.RunSpec{{Profile: "scan", InputBytes: 128 << 20}}, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ts.Runs {
		r.BlockSize = 0
	}
	fitted, err := FitWith(ts, FitOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fitted.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("ReadModel refused a model FitWith wrote: %v", err)
	}
	ctx := context.Background()
	_, err = m.Generate(ctx, GenSpec{Workload: "scan", Workers: 4, Seed: 1})
	var se *SpecError
	if !errors.Is(err, ErrBadSpec) || !errors.As(err, &se) || se.Field != "blockSize" {
		t.Fatalf("Generate without a block size = %v, want a SpecError on blockSize", err)
	}
	sched, err := m.Generate(ctx, GenSpec{Workload: "scan", BlockSize: 32 << 20, Workers: 4, Seed: 1})
	if err != nil || len(sched) == 0 {
		t.Fatalf("Generate with a block size = %d flows, err %v", len(sched), err)
	}
}

// twoPhaseModel is a usable model: one workload with an HDFS-read and a
// shuffle phase, plus a background heartbeat law.
const twoPhaseModel = `{"jobs":{"x":{"workload":"x","refInputBytes":67108864,"refMaps":2,"refReducers":2,` +
	`"refBlockSize":33554432,"refReplication":3,"refRuns":1,"durationSecs":10,"phases":{` +
	`"hdfs_read":{"size":{"family":"constant","params":[33554432]},"sizeMin":1,"sizeMax":33554432,` +
	`"interArrival":{"family":"exponential","params":[2]},"startOffset":{"family":"uniform","params":[0,1]},` +
	`"countPerUnit":1,"unit":"block"},` +
	`"shuffle":{"size":{"family":"lognormal","params":[14,1]},"sizeMin":1,"sizeMax":100000000,` +
	`"sizeNormalizer":"reducers","interArrival":{"family":"exponential","params":[10]},` +
	`"startOffset":{"family":"constant","params":[2]},"countPerUnit":1,"unit":"mapxreduce"}}}},` +
	`"background":{"size":{"family":"constant","params":[512]},"sizeMin":512,"sizeMax":512,` +
	`"interArrival":{"family":"constant","params":[0]},"startOffset":{"family":"constant","params":[0]},` +
	`"countPerUnit":1,"unit":"hostsecond"}}`

// FuzzReadModel: ReadModel is the trust boundary for model JSON. Any
// input it rejects fails with an error, never a panic. For a model it
// accepts, EstimateFlows on a small fixed spec (the model's first
// workload, 4 workers, with background) returns a typed error or a
// count n; when n is small enough to generate here, GenerateChunks
// either fails or emits exactly n flows in nondecreasing start order.
func FuzzReadModel(f *testing.F) {
	blockless := strings.Replace(twoPhaseModel, `"refBlockSize":33554432`, `"refBlockSize":0`, 1)
	for _, seed := range []string{nullJobModel, nullPhaseModel, zeroBlockModel, twoPhaseModel, blockless} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadModel(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		names := m.WorkloadNames()
		if len(names) == 0 {
			return
		}
		spec := GenSpec{Workload: names[0], Workers: 4, IncludeBackground: true, Seed: 1}
		n, err := m.EstimateFlows(spec)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) && !errors.Is(err, ErrBadModel) {
				t.Fatalf("EstimateFlows: untyped error %v", err)
			}
			return
		}
		if n > 1<<16 {
			return
		}
		var got int64
		last := int64(-1 << 63)
		err = m.GenerateChunks(context.Background(), spec, 0, func(chunk []SynthFlow) error {
			for _, fl := range chunk {
				if fl.StartNs < last {
					t.Fatalf("flow %d starts at %d, before its predecessor at %d", got, fl.StartNs, last)
				}
				last = fl.StartNs
				got++
			}
			return nil
		})
		if err == nil && got != n {
			t.Fatalf("GenerateChunks emitted %d flows, EstimateFlows predicted %d", got, n)
		}
	})
}
