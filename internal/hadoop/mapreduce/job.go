// Package mapreduce simulates MapReduce v2 job execution on top of the
// HDFS and YARN substrates: input splits, locality-aware map scheduling,
// the all-to-all shuffle over the ShuffleHandler port with bounded
// parallel fetches, reducer merge + commit to HDFS with pipeline
// replication, slow-started reducers, and task↔AM umbilical control
// traffic. The network-visible behaviour — which host pairs exchange how
// many bytes and when — is what Keddah captures and models.
package mapreduce

import (
	"errors"
	"fmt"
	"math"

	"keddah/internal/hadoop/hdfs"
	"keddah/internal/hadoop/yarn"
	"keddah/internal/netsim"
	"keddah/internal/sim"
	"keddah/internal/stats"
	"keddah/internal/telemetry"
)

// JobConfig describes one MapReduce job. Byte selectivities come from the
// workload profile (internal/workload) and are what differentiate e.g. a
// shuffle-heavy sort from a shuffle-light grep.
type JobConfig struct {
	// Name labels the job in flow ground truth ("job3").
	Name string
	// InputPath is the HDFS file to read (must exist).
	InputPath string
	// OutputPath is the HDFS directory to write ("<out>/part-r-00000"…).
	OutputPath string
	// NumReducers is the reduce-task count; 0 makes the job map-only.
	NumReducers int
	// MapSelectivity is map-output bytes per input byte (e.g. ~1 for
	// sort, ≪1 for grep).
	MapSelectivity float64
	// ReduceSelectivity is job-output bytes per shuffled byte.
	ReduceSelectivity float64
	// OutputReplication overrides dfs.replication for job output
	// (0 = filesystem default; TeraSort conventionally uses 1).
	OutputReplication int
	// MapCostSecPerMB and ReduceCostSecPerMB model task compute time.
	MapCostSecPerMB    float64
	ReduceCostSecPerMB float64
}

func (c *JobConfig) applyDefaults() {
	if c.MapCostSecPerMB <= 0 {
		c.MapCostSecPerMB = 0.02
	}
	if c.ReduceCostSecPerMB <= 0 {
		c.ReduceCostSecPerMB = 0.02
	}
}

// Fixed task and shuffle parameters. The paper varies none of them.
const (
	// slowstartMaps is the completed-map fraction that triggers reducer
	// launch (mapreduce.job.reduce.slowstart.completedmaps).
	slowstartMaps = 0.05
	// MaxParallelFetches bounds concurrent shuffle fetches per reducer
	// (mapreduce.reduce.shuffle.parallelcopies).
	MaxParallelFetches = 5
	// stragglerSigma is the log-normal sigma applied to task compute
	// times: the straggler effect that spreads flow arrivals out in time.
	stragglerSigma = 0.25
	// partitionSkewSigma jitters per-(map,reducer) partition sizes.
	partitionSkewSigma = 0.15
	// umbilicalInterval is the task→AM progress-report period
	// (mapreduce.task.progress-report.interval).
	umbilicalInterval sim.Time = 3_000_000_000
	// fetchRetryBase is the first shuffle-fetch retry backoff; it doubles
	// per failed attempt against the same host, capped at 30 s (a
	// scaled-down mapreduce.reduce.shuffle.retry-delay.max.ms).
	fetchRetryBase sim.Time = 1_000_000_000
	// maxFetchFailures is how many failed fetches from one host a reducer
	// tolerates before reporting the map output lost to the AM, which
	// blacklists the host for this shuffle and re-executes the map
	// (mapreduce.reduce.shuffle.maxfetchfailures).
	maxFetchFailures = 3
	// maxAMAttempts bounds ApplicationMaster attempts: a lost AM is
	// restarted, recovering completed-task state, until the budget runs
	// out and the job fails (yarn.resourcemanager.am.max-attempts).
	maxAMAttempts = 2
)

// Result summarises a finished job.
type Result struct {
	Name          string
	Submitted     sim.Time
	FirstMapStart sim.Time
	LastMapEnd    sim.Time
	Finished      sim.Time
	Maps          int
	Reducers      int
	InputBytes    int64
	MapOutBytes   int64
	ShuffleBytes  int64
	OutputBytes   int64
	LocalMaps     int
	// Failed marks a job aborted by an ApplicationMaster host failure.
	Failed bool
	// ReexecutedMaps / ReexecutedReducers count task attempts restarted
	// after NodeManager failures.
	ReexecutedMaps     int
	ReexecutedReducers int
	// ShuffleRetries counts shuffle fetches torn down by faults and
	// retried (or escalated to the AM after repeated failures).
	ShuffleRetries int
	// AMRestarts counts ApplicationMaster attempts restarted after the
	// AM's host was lost.
	AMRestarts int
}

// Duration returns end-to-end job time.
func (r Result) Duration() sim.Time { return r.Finished - r.Submitted }

// Job drives one MapReduce execution. Create with NewJob, start with
// Submit; the completion callback receives the Result.
type Job struct {
	cfg  JobConfig
	fs   *hdfs.FS
	rm   *yarn.RM
	net  *netsim.Network
	eng  *sim.Engine
	rng  *stats.RNG
	app  *yarn.App
	done func(Result)
	// client is the submitting host, kept for AM restart resubmission.
	client     netsim.NodeID
	amAttempts int

	splits     []hdfs.Block
	mapOut     []int64         // per-map output bytes (set at map end)
	mapHost    []netsim.NodeID // per-map executor
	mapEpoch   []int           // per-map attempt number (bumped on re-execution)
	attemptSeq int             // unique attempt counter for output paths
	mapsDone   int
	reducers   []*reducer
	redsDone   int
	redsQueued int
	result     Result
	finished   bool
	// epochCheck snapshots mapEpoch between invariant checks to assert
	// per-map attempt epochs never move backwards (lazily allocated).
	epochCheck []int

	metrics telemetry.MRMetrics
	tracer  *telemetry.Tracer
}

// SetTelemetry attaches job instrumentation (zero-value metrics and a
// nil tracer detach it). Call before Submit.
func (j *Job) SetTelemetry(m telemetry.MRMetrics, tr *telemetry.Tracer) {
	j.metrics = m
	j.tracer = tr
}

// NewJob validates the configuration and binds the job to its substrates.
func NewJob(cfg JobConfig, fs *hdfs.FS, rm *yarn.RM, rng *stats.RNG) (*Job, error) {
	cfg.applyDefaults()
	if cfg.InputPath == "" || cfg.OutputPath == "" {
		return nil, errors.New("mapreduce: input and output paths required")
	}
	if cfg.MapSelectivity < 0 || cfg.ReduceSelectivity < 0 {
		return nil, fmt.Errorf("mapreduce: negative selectivity in %q", cfg.Name)
	}
	if !fs.Exists(cfg.InputPath) {
		return nil, fmt.Errorf("mapreduce: %w: input %s", hdfs.ErrNotFound, cfg.InputPath)
	}
	net := fs.Network()
	return &Job{cfg: cfg, fs: fs, rm: rm, net: net, eng: net.Engine(), rng: rng}, nil
}

// Submit launches the job from client. done runs once with the Result
// when the job commits.
func (j *Job) Submit(client netsim.NodeID, done func(Result)) error {
	splits, err := j.fs.File(j.cfg.InputPath)
	if err != nil {
		return err
	}
	if len(splits) == 0 {
		return fmt.Errorf("mapreduce: input %s has no blocks", j.cfg.InputPath)
	}
	j.splits = splits
	j.mapOut = make([]int64, len(splits))
	j.mapHost = make([]netsim.NodeID, len(splits))
	j.mapEpoch = make([]int, len(splits))
	j.done = done
	j.result = Result{
		Name:      j.cfg.Name,
		Submitted: j.eng.Now(),
		Maps:      len(splits),
		Reducers:  j.cfg.NumReducers,
	}
	for _, b := range splits {
		j.result.InputBytes += b.Size
	}
	j.client = client
	j.metrics.JobsSubmitted.Inc()
	j.rm.WatchNodeFailures(j.onNodeFailed)
	j.app = j.rm.Submit(client, func(*yarn.App) { j.onAMStarted() })
	return nil
}

// onAMStarted requests a container per map split, preferring replica
// hosts, and arms the AM failure handler (a lost AM restarts until
// maxAMAttempts is exhausted, then the job fails).
func (j *Job) onAMStarted() {
	j.app.OnAMLost(j.onAMLost)
	for i := range j.splits {
		j.requestMap(i)
	}
}

// onAMLost handles the AM's host dying: resubmit the application for a
// fresh AM attempt — completed-task state lives in the Job, mirroring
// MRAM job-history recovery — or fail the job once the attempt budget
// is spent. Tasks running on surviving hosts keep running; their
// reports flow to the new AM once it is placed.
func (j *Job) onAMLost() {
	if j.finished {
		return
	}
	j.amAttempts++
	if j.amAttempts >= maxAMAttempts {
		j.abort()
		return
	}
	j.result.AMRestarts++
	j.metrics.AMRestarts.Inc()
	j.app = j.rm.Submit(j.client, func(*yarn.App) {
		j.app.OnAMLost(j.onAMLost)
	})
}

// requestMap asks YARN for a container to run (or re-run) map i.
func (j *Job) requestMap(i int) {
	j.metrics.MapAttempts.Inc()
	j.app.RequestContainer(yarn.PriorityMap, j.splits[i].Replicas, func(c *yarn.Container) {
		j.runMapTask(i, c)
	})
}

// abort fails the job after an unrecoverable loss (the AM's host died).
func (j *Job) abort() {
	if j.finished {
		return
	}
	j.finished = true
	j.result.Failed = true
	j.result.Finished = j.eng.Now()
	j.metrics.JobsFailed.Inc()
	j.traceJob()
	j.app.Finish()
	if j.done != nil {
		j.done(j.result)
	}
}

// traceJob records the job-level span once the result is final.
func (j *Job) traceJob() {
	j.tracer.Add(telemetry.Span{
		Cat: "mr", Name: "job", Attr: j.cfg.Name,
		StartNs: int64(j.result.Submitted), EndNs: int64(j.result.Finished),
	})
}

// lognormalJitter returns exp(N(0, sigma²)) — a multiplicative straggler
// factor with median 1.
func (j *Job) lognormalJitter(sigma float64) float64 {
	return math.Exp(sigma * j.rng.NormFloat64())
}

// computeDelay converts bytes at secPerMB into jittered simulated time.
func (j *Job) computeDelay(bytes int64, secPerMB float64) sim.Time {
	secs := float64(bytes) / (1 << 20) * secPerMB * j.lognormalJitter(stragglerSigma)
	return sim.Time(secs * 1e9)
}

// maybeFinish commits the job when every task has completed.
func (j *Job) maybeFinish() {
	if j.finished {
		return
	}
	mapOnly := j.cfg.NumReducers == 0
	if j.mapsDone < len(j.splits) {
		return
	}
	if !mapOnly && j.redsDone < j.cfg.NumReducers {
		return
	}
	j.finished = true
	j.result.Finished = j.eng.Now()
	j.metrics.JobsCompleted.Inc()
	j.traceJob()
	j.app.Finish()
	if j.done != nil {
		j.done(j.result)
	}
}
