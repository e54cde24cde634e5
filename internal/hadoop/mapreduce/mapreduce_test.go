package mapreduce

import (
	"errors"
	"testing"

	"keddah/internal/flows"
	"keddah/internal/hadoop/hdfs"
	"keddah/internal/hadoop/yarn"
	"keddah/internal/netsim"
	"keddah/internal/pcap"
	"keddah/internal/sim"
	"keddah/internal/stats"
)

// rig bundles the substrates a job needs.
type rig struct {
	eng *sim.Engine
	net *netsim.Network
	fs  *hdfs.FS
	rm  *yarn.RM
	cap *pcap.FlowLog
	rng *stats.RNG
}

// newRig builds an 8-worker star cluster with an ingested input file.
func newRig(t *testing.T, inputBytes int64, hdfsCfg hdfs.Config) *rig {
	t.Helper()
	topo, err := netsim.Star(9, netsim.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.NewNetwork(eng, topo, netsim.Config{})
	c := pcap.NewFlowLog()
	net.AddTap(c)
	hosts := topo.Hosts()
	rng := stats.NewRNG(17)
	fs, err := hdfs.New(net, hosts[0], hosts[1:], hdfsCfg, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	rm, err := yarn.New(net, hosts[0], hosts[1:], yarn.Config{SlotsPerNode: 4}, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	// Ingest before starting heartbeats so the queue can drain.
	if err := fs.WriteFile(hosts[0], "/in", inputBytes, 0, "ingest", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	rm.Start()
	return &rig{eng: eng, net: net, fs: fs, rm: rm, cap: c, rng: rng}
}

// runJob submits cfg and drives the simulation to completion.
func (r *rig) runJob(t *testing.T, cfg JobConfig) Result {
	t.Helper()
	job, err := NewJob(cfg, r.fs, r.rm, r.rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	done := false
	if err := job.Submit(r.net.Topology().Hosts()[0], func(rr Result) { res = rr; done = true }); err != nil {
		t.Fatal(err)
	}
	for !done {
		if !r.eng.Step() {
			t.Fatal("simulation drained before job finished")
		}
	}
	r.rm.Shutdown()
	if _, err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestJobByteAccounting(t *testing.T) {
	r := newRig(t, 512<<20, hdfs.Config{})
	res := r.runJob(t, JobConfig{
		Name: "j", InputPath: "/in", OutputPath: "/out",
		NumReducers: 4, MapSelectivity: 1, ReduceSelectivity: 1,
	})
	if res.Maps != 4 || res.Reducers != 4 {
		t.Fatalf("tasks = %d maps, %d reducers", res.Maps, res.Reducers)
	}
	in := float64(res.InputBytes)
	if m := float64(res.MapOutBytes); m < in*0.85 || m > in*1.2 {
		t.Errorf("map output = %v of input", m/in)
	}
	if s := float64(res.ShuffleBytes); s < in*0.7 || s > in*1.4 {
		t.Errorf("shuffle = %v of input", s/in)
	}
	if o := float64(res.OutputBytes); o < in*0.7 || o > in*1.4 {
		t.Errorf("output = %v of input", o/in)
	}
	if res.FirstMapStart <= res.Submitted {
		t.Error("maps started before submission")
	}
	if res.LastMapEnd < res.FirstMapStart || res.Finished < res.LastMapEnd {
		t.Error("phase timestamps out of order")
	}
}

func TestShuffleFlowStructure(t *testing.T) {
	r := newRig(t, 512<<20, hdfs.Config{})
	r.runJob(t, JobConfig{
		Name: "j", InputPath: "/in", OutputPath: "/out",
		NumReducers: 3, MapSelectivity: 1, ReduceSelectivity: 1,
	})
	ds := flows.NewDataset(r.cap.Truth())
	shuffle := ds.ByPhase(flows.PhaseShuffle)
	if shuffle.Len() != 4*3 {
		t.Errorf("shuffle flows = %d, want 12 (4 maps × 3 reducers)", shuffle.Len())
	}
	// Every shuffle flow must use the ShuffleHandler source port.
	for _, rec := range shuffle.Records {
		if rec.Key.SrcPort != flows.PortShuffle {
			t.Errorf("shuffle flow src port = %d", rec.Key.SrcPort)
		}
	}
}

func TestLowMapSelectivityShrinksShuffle(t *testing.T) {
	r := newRig(t, 512<<20, hdfs.Config{})
	res := r.runJob(t, JobConfig{
		Name: "grep", InputPath: "/in", OutputPath: "/out",
		NumReducers: 2, MapSelectivity: 0.002, ReduceSelectivity: 1,
	})
	if res.ShuffleBytes > res.InputBytes/100 {
		t.Errorf("grep-like shuffle = %d bytes, want < 1%% of %d", res.ShuffleBytes, res.InputBytes)
	}
}

func TestOutputReplicationControlsWriteTraffic(t *testing.T) {
	vol := map[int]int64{}
	for _, repl := range []int{1, 3} {
		r := newRig(t, 256<<20, hdfs.Config{})
		r.runJob(t, JobConfig{
			Name: "j", InputPath: "/in", OutputPath: "/out",
			NumReducers: 2, MapSelectivity: 1, ReduceSelectivity: 1,
			OutputReplication: repl,
		})
		// Isolate job output writes from the ingest.
		for _, rec := range flows.NewDataset(r.cap.Truth()).ByPhase(flows.PhaseHDFSWrite).Records {
			if rec.Label == "j/hdfsWrite" {
				vol[repl] += rec.Bytes
			}
		}
	}
	ratio := float64(vol[3]) / float64(vol[1])
	if ratio < 2.4 || ratio > 3.6 {
		t.Errorf("write volume ratio repl3/repl1 = %.2f, want ≈3 (vols %v)", ratio, vol)
	}
}

func TestDataLocalityMostMapsLocal(t *testing.T) {
	r := newRig(t, 1<<30, hdfs.Config{})
	res := r.runJob(t, JobConfig{
		Name: "j", InputPath: "/in", OutputPath: "/out",
		NumReducers: 2, MapSelectivity: 0.1, ReduceSelectivity: 1,
	})
	if res.LocalMaps < res.Maps/2 {
		t.Errorf("local maps = %d of %d; locality scheduling ineffective", res.LocalMaps, res.Maps)
	}
}

func TestUmbilicalControlTraffic(t *testing.T) {
	r := newRig(t, 512<<20, hdfs.Config{})
	r.runJob(t, JobConfig{
		Name: "j", InputPath: "/in", OutputPath: "/out",
		NumReducers: 2, MapSelectivity: 1, ReduceSelectivity: 1,
		MapCostSecPerMB: 0.1, // slow maps → several umbilical beats
	})
	um := 0
	for _, rec := range r.cap.Truth() {
		if rec.Key.DstPort == flows.PortAMUmbilical {
			um++
		}
	}
	if um == 0 {
		t.Error("no umbilical control flows captured")
	}
}

func TestJobValidation(t *testing.T) {
	r := newRig(t, 128<<20, hdfs.Config{})
	if _, err := NewJob(JobConfig{Name: "x", OutputPath: "/o"}, r.fs, r.rm, r.rng); err == nil {
		t.Error("missing input path accepted")
	}
	if _, err := NewJob(JobConfig{Name: "x", InputPath: "/nope", OutputPath: "/o"}, r.fs, r.rm, r.rng); !errors.Is(err, hdfs.ErrNotFound) {
		t.Errorf("missing input: err = %v", err)
	}
	if _, err := NewJob(JobConfig{Name: "x", InputPath: "/in", OutputPath: "/o", MapSelectivity: -1}, r.fs, r.rm, r.rng); err == nil {
		t.Error("negative selectivity accepted")
	}
}

func TestManyReducersManySmallShuffleFlows(t *testing.T) {
	r := newRig(t, 512<<20, hdfs.Config{})
	r.runJob(t, JobConfig{
		Name: "j", InputPath: "/in", OutputPath: "/out",
		NumReducers: 16, MapSelectivity: 1, ReduceSelectivity: 1,
	})
	ds := flows.NewDataset(r.cap.Truth())
	shuffle := ds.ByPhase(flows.PhaseShuffle)
	if shuffle.Len() != 4*16 {
		t.Errorf("shuffle flows = %d, want 64", shuffle.Len())
	}
	mean := float64(shuffle.Volume("")) / float64(shuffle.Len())
	// 512 MiB / 64 flows ≈ 8 MiB per flow.
	if mean < 4<<20 || mean > 16<<20 {
		t.Errorf("mean shuffle flow = %.1f MiB, want ≈8", mean/(1<<20))
	}
}

func TestStragglersSpreadMapEndTimes(t *testing.T) {
	r := newRig(t, 2<<30, hdfs.Config{})
	res := r.runJob(t, JobConfig{
		Name: "j", InputPath: "/in", OutputPath: "/out",
		NumReducers: 2, MapSelectivity: 0.1, ReduceSelectivity: 1,
	})
	mapSpan := res.LastMapEnd - res.FirstMapStart
	if mapSpan <= 0 {
		t.Error("map phase has zero duration")
	}
}
