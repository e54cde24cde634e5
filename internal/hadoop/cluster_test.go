package hadoop

import (
	"errors"
	"testing"

	"keddah/internal/flows"
	"keddah/internal/hadoop/mapreduce"
	"keddah/internal/netsim"
	"keddah/internal/pcap"
	"keddah/internal/sim"
)

// newTestCluster builds a 1 master + 8 worker single-rack cluster with a
// capture attached.
func newTestCluster(t *testing.T, seed int64) (*Cluster, *pcap.FlowLog) {
	t.Helper()
	topo, err := netsim.Star(9, netsim.Gbps)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	c, err := New(topo, Config{Seed: seed})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	cap := pcap.NewFlowLog()
	c.Net.AddTap(cap)
	return c, cap
}

func TestClusterRunsSortJob(t *testing.T) {
	c, cap := newTestCluster(t, 1)

	var result mapreduce.Result
	err := c.Ingest("/data/in", 512<<20, func() {
		err := c.Submit(mapreduce.JobConfig{
			Name:              "sort1",
			InputPath:         "/data/in",
			OutputPath:        "/out/sort1",
			NumReducers:       4,
			MapSelectivity:    1.0,
			ReduceSelectivity: 1.0,
		}, func(r mapreduce.Result) { result = r })
		if err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := c.RunToIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}

	if result.Finished == 0 {
		t.Fatal("job never finished")
	}
	if result.Maps != 4 { // 512 MiB / 128 MiB blocks
		t.Errorf("maps = %d, want 4", result.Maps)
	}
	if result.InputBytes != 512<<20 {
		t.Errorf("input bytes = %d, want %d", result.InputBytes, 512<<20)
	}
	// Sort shuffles roughly its whole input (jitter allows slack).
	lo, hi := int64(float64(result.InputBytes)*0.7), int64(float64(result.InputBytes)*1.4)
	if result.ShuffleBytes < lo || result.ShuffleBytes > hi {
		t.Errorf("shuffle bytes = %d, want within [%d, %d]", result.ShuffleBytes, lo, hi)
	}
	if result.OutputBytes <= 0 {
		t.Error("no output written")
	}

	// The capture must have seen every phase.
	ds := flows.NewDataset(cap.Truth())
	for _, ph := range flows.AllPhases {
		if ds.Count(ph) == 0 {
			t.Errorf("capture saw no %s flows", ph)
		}
	}
	// Shuffle flows ≈ maps × reducers.
	if got, want := ds.Count(flows.PhaseShuffle), 4*4; got != want {
		t.Errorf("shuffle flow count = %d, want %d", got, want)
	}
}

func TestClusterDeterministicAcrossRuns(t *testing.T) {
	run := func() (int, int64, int64) {
		c, cap := newTestCluster(t, 42)
		err := c.Ingest("/data/in", 256<<20, func() {
			err := c.Submit(mapreduce.JobConfig{
				Name:              "tera",
				InputPath:         "/data/in",
				OutputPath:        "/out/tera",
				NumReducers:       3,
				MapSelectivity:    1,
				ReduceSelectivity: 1,
			}, nil)
			if err != nil {
				t.Errorf("submit: %v", err)
			}
		})
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		end, err := c.RunToIdle()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		ds := flows.NewDataset(cap.Truth())
		return ds.Len(), ds.Volume(""), int64(end)
	}
	n1, v1, e1 := run()
	n2, v2, e2 := run()
	if n1 != n2 || v1 != v2 || e1 != e2 {
		t.Errorf("runs diverged: (%d,%d,%d) vs (%d,%d,%d)", n1, v1, e1, n2, v2, e2)
	}
	if n1 == 0 {
		t.Fatal("no flows captured")
	}
}

func TestMapOnlyJob(t *testing.T) {
	c, cap := newTestCluster(t, 7)
	var result mapreduce.Result
	err := c.Ingest("/data/in", 256<<20, func() {
		err := c.Submit(mapreduce.JobConfig{
			Name:           "maponly",
			InputPath:      "/data/in",
			OutputPath:     "/out/mo",
			NumReducers:    0,
			MapSelectivity: 0.5,
		}, func(r mapreduce.Result) { result = r })
		if err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := c.RunToIdle(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if result.ShuffleBytes != 0 {
		t.Errorf("map-only job shuffled %d bytes", result.ShuffleBytes)
	}
	if result.OutputBytes <= 0 {
		t.Error("map-only job wrote no output")
	}
	ds := flows.NewDataset(cap.Truth())
	if ds.Count(flows.PhaseShuffle) != 0 {
		t.Errorf("capture saw %d shuffle flows in a map-only job", ds.Count(flows.PhaseShuffle))
	}
}

// TestRunToIdleReportsEventBudget: a run that spends the engine's
// MaxEvents budget with work still queued reports sim.ErrHorizon, not a
// drained queue.
func TestRunToIdleReportsEventBudget(t *testing.T) {
	c, _ := newTestCluster(t, 3)
	if err := c.Ingest("/data/in", 256<<20, nil); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	c.Eng.MaxEvents = 50
	_, err := c.RunToIdle()
	if !errors.Is(err, sim.ErrHorizon) {
		t.Fatalf("RunToIdle = %v, want an error wrapping sim.ErrHorizon", err)
	}
}
