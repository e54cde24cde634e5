package core

import (
	"bytes"
	"runtime"
	"testing"

	"keddah/internal/workload"
)

// lockstepCorpus captures a multi-workload, multi-run trace set (the
// shape of the replication-sweep experiment) so the fit stage has many
// independent (workload, phase) tasks to schedule.
func lockstepCorpus(t *testing.T) *TraceSet {
	t.Helper()
	ts, _, err := CaptureWith(ClusterSpec{Workers: 16, Seed: 21},
		[]workload.RunSpec{
			{Profile: "terasort", InputBytes: 256 << 20, JobName: "ts-a", InputPath: "/data/a"},
			{Profile: "terasort", InputBytes: 384 << 20, JobName: "ts-b", InputPath: "/data/b"},
			{Profile: "wordcount", InputBytes: 256 << 20, JobName: "wc-a", InputPath: "/data/c"},
			{Profile: "sort", InputBytes: 192 << 20, JobName: "so-a", InputPath: "/data/d"},
		}, CaptureOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// fitAt runs FitWith with the worker pool sized to procs (GOMAXPROCS),
// restoring the previous setting afterwards.
func fitAt(ts *TraceSet, opts FitOptions, procs int) (*Model, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	return FitWith(ts, opts, nil)
}

// TestFitParallelLockstep proves the worker pool cannot change the
// model: the serialised JSON of a serial fit (GOMAXPROCS=1) and wide
// parallel fits must be byte-identical. Under -race this also exercises
// the shared Sample caches from concurrent fit tasks.
func TestFitParallelLockstep(t *testing.T) {
	ts := lockstepCorpus(t)

	encode := func(workers int) []byte {
		t.Helper()
		m, err := fitAt(ts, FitOptions{}, workers)
		if err != nil {
			t.Fatalf("Fit(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON(workers=%d): %v", workers, err)
		}
		return buf.Bytes()
	}

	serial := encode(1)
	if len(serial) == 0 {
		t.Fatal("serial fit produced empty JSON")
	}
	for _, workers := range []int{2, 8} {
		par := encode(workers)
		if !bytes.Equal(serial, par) {
			t.Fatalf("Fit(workers=%d) JSON differs from serial fit (%d vs %d bytes)",
				workers, len(par), len(serial))
		}
	}
	// Repeat the widest run to catch schedule-dependent nondeterminism.
	if again := encode(8); !bytes.Equal(serial, again) {
		t.Fatal("second parallel fit differs from serial fit")
	}
}

// TestFitWorkersErrorDeterministic checks that a failing phase fit
// reports the same first error regardless of worker count. An
// exponential-only candidate set cannot represent offset samples that
// include zero, so the corpus below fails deterministically.
func TestFitWorkersErrorDeterministic(t *testing.T) {
	ts := lockstepCorpus(t)
	opts := FitOptions{MinSamples: 1}
	m1, err1 := fitAt(ts, opts, 1)
	m8, err8 := fitAt(ts, opts, 8)
	if (err1 == nil) != (err8 == nil) {
		t.Fatalf("serial err = %v, parallel err = %v", err1, err8)
	}
	if err1 != nil {
		if err1.Error() != err8.Error() {
			t.Fatalf("error text differs:\n  serial:   %v\n  parallel: %v", err1, err8)
		}
		return
	}
	var b1, b8 bytes.Buffer
	if err := m1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := m8.WriteJSON(&b8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatal("MinSamples=1 models differ between serial and parallel fit")
	}
}
