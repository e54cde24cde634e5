package core

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// Model JSON that decodes but cannot be generated from.
const (
	nullJobModel   = `{"jobs":{"x":null}}`
	nullPhaseModel = `{"jobs":{"x":{"refInputBytes":1048576,"refBlockSize":1048576,"phases":{"shuffle":null}}}}`
	zeroBlockModel = `{"jobs":{"x":{"refInputBytes":1048576,"refBlockSize":0,"phases":{}}}}`
)

// TestReadRejectsUnusableJSON: JSON that decodes but would panic the call
// that consumes it — a nil dereference or an integer divide by zero — is
// refused at read time with a typed error instead.
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
		{"zero block size", zeroBlockModel, estimate, ErrBadModel},
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
	for _, seed := range []string{nullJobModel, nullPhaseModel, zeroBlockModel, twoPhaseModel} {
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
