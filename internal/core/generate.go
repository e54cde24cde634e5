package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"keddah/internal/flows"
	"keddah/internal/netsim"
	"keddah/internal/pcap"
	"keddah/internal/sim"
	"keddah/internal/stats"
	"keddah/internal/telemetry"
)

// SynthFlow is one synthetic transfer in a generated schedule. Host
// indexes are worker ordinals (0-based); -1 addresses the master. A
// schedule is simulator-agnostic: ReplayWith runs it on the built-in
// netsim, and the JSON form can feed an external simulator.
type SynthFlow struct {
	StartNs int64       `json:"startNs"`
	SrcHost int         `json:"srcHost"`
	DstHost int         `json:"dstHost"`
	SrcPort int         `json:"srcPort"`
	DstPort int         `json:"dstPort"`
	Bytes   int64       `json:"bytes"`
	Phase   flows.Phase `json:"phase"`
	Job     string      `json:"job"`
}

// GenSpec parameterises traffic generation from a fitted model.
type GenSpec struct {
	// Workload selects the JobModel.
	Workload string `json:"workload"`
	// InputBytes scales the job (0 = the model's reference size).
	InputBytes int64 `json:"inputBytes"`
	// BlockSize (0 = model reference) sets the HDFS block size the
	// synthetic job is assumed to run with.
	BlockSize int64 `json:"blockSize"`
	// Reducers (0 = scaled from the model reference) sets the reduce
	// fan-in.
	Reducers int `json:"reducers"`
	// Workers is the worker host count traffic is spread over (default
	// DefaultWorkers).
	Workers int `json:"workers"`
	// Jobs is how many job instances to generate (default 1).
	Jobs int `json:"jobs"`
	// Stagger spaces successive job starts as a fraction of the scaled
	// job duration: 1 (default) is back-to-back, 0.25 overlaps four
	// jobs — the multi-tenant scenario replays exist to study. Negative
	// values are treated as 0 (all jobs start together). A stagger that
	// starts the last job at or past sim.MaxTime is refused.
	Stagger float64 `json:"stagger"`
	// IncludeBackground adds cluster heartbeat traffic from the
	// background model.
	IncludeBackground bool `json:"includeBackground"`
	// Seed fixes generation randomness.
	Seed int64 `json:"seed"`
}

func (g GenSpec) withDefaults(jm *JobModel) GenSpec {
	if g.InputBytes <= 0 {
		g.InputBytes = jm.RefInputBytes
	}
	if g.BlockSize <= 0 {
		g.BlockSize = jm.RefBlockSize
	}
	if g.Workers <= 0 {
		g.Workers = DefaultWorkers
	}
	if g.Reducers <= 0 {
		scale := float64(g.InputBytes) / float64(jm.RefInputBytes)
		g.Reducers = int(math.Max(1, math.Round(float64(jm.RefReducers)*scale)))
	}
	if g.Jobs <= 0 {
		g.Jobs = 1
	}
	if g.Stagger == 0 {
		g.Stagger = 1
	} else if g.Stagger < 0 {
		g.Stagger = 1e-9
	}
	return g
}

// genCtxStride is how many flows are generated between context polls in
// the inner sampling loops: coarse enough to stay off the hot path, fine
// enough that a cancelled request stops within microseconds of work.
const genCtxStride = 4096

// Generate builds a synthetic flow schedule for spec from the fitted
// model — the toolchain's reproduction stage. Structural counts scale
// with the requested input size and reducer fan-in; sizes, phase offsets
// and arrival spacing are drawn from the fitted laws.
//
// The spec is checked up front (errors wrap ErrBadSpec), and ctx is
// polled between phases and every genCtxStride flows, so a caller whose
// client vanished — or whose deadline passed — aborts the schedule
// mid-build instead of completing work nobody will read.
func (m *Model) Generate(ctx context.Context, spec GenSpec) ([]SynthFlow, error) {
	b, err := m.schedule(ctx, spec)
	if err != nil {
		return nil, err
	}
	return b.collect()
}

// GenerateChunks streams the schedule Generate would return —
// identical flows in identical time order — through emit in slices of at
// most chunk flows (chunk <= 0 selects genCtxStride). ctx is honoured
// both during generation and between emits, so a disconnected or
// deadline-expired client aborts the stream mid-schedule.
//
// Each job is sampled only when the merge reaches its start. A run's
// flows are staged chunkLen at a time and packed into slabs that store
// every field at the bit width its slab's largest value needs, about
// 10 bytes a flow (24 at most), and merged into one reused SynthFlow
// buffer; each slab is recycled as soon as the merge has emitted its
// last flow. A stream therefore holds about 10 bytes per flow it has
// sampled but not yet emitted, plus the emitted part of each live slab,
// one SynthFlow buffer, and about 90 bytes per slab not yet emitted
// (its 24-byte head and padding, its 48-byte run-table slot and its
// run's merge entry); with IncludeBackground, whose heartbeats may
// start at time 0, every flow is sampled before the first is emitted,
// so it holds the whole schedule that way, a run shorter than a chunk
// taking one slab of its own. What is never materialised is the
// SynthFlow schedule or the encoded output, since each emitted slice can
// be encoded and flushed to the client before the next is merged. A
// chunk slice is only valid during its emit call.
func (m *Model) GenerateChunks(ctx context.Context, spec GenSpec, chunk int, emit func([]SynthFlow) error) error {
	b, err := m.schedule(ctx, spec)
	if err != nil {
		return err
	}
	return b.stream(ctx, chunk, emit)
}

// schedule lists spec's sources in the order the RNG draws them: each
// job, then the background. Every law is built before it returns, so a
// bad one fails before any flow is sampled.
func (m *Model) schedule(ctx context.Context, spec GenSpec) (*scheduleBuilder, error) {
	sh, err := m.shape(spec)
	if err != nil {
		return nil, err
	}
	if err := sh.buildLaws(); err != nil {
		return nil, err
	}
	spec = sh.spec
	step := sh.durSecs * spec.Stagger
	bounds := make([]int64, spec.Jobs, spec.Jobs+1)
	for job, at := 0, 0.0; job < spec.Jobs; job, at = job+1, at+step {
		bounds[job] = startNs(at, 0)
	}
	if spec.IncludeBackground && m.Background != nil {
		bounds = append(bounds, 0)
	}
	return newScheduleBuilder(bounds, sh.total, &jobSources{ctx: ctx, m: m, sh: sh, rng: stats.NewRNG(spec.Seed)}), nil
}

// jobSources samples a GenSpec's jobs in order from one RNG, then its
// background.
type jobSources struct {
	ctx context.Context
	m   *Model
	sh  genShape
	rng *stats.RNG
	// at is the next job's start; after the last job, the span the
	// background covers.
	at float64
}

func (s *jobSources) sample(b *scheduleBuilder, i int) error {
	spec := s.sh.spec
	if i == spec.Jobs {
		return s.m.appendBackground(s.ctx, b, spec.Workers, s.at, s.rng)
	}
	err := s.sh.appendJob(s.ctx, b, s.rng, s.at, 0, fmt.Sprintf("%s-gen%d", spec.Workload, i))
	s.at += s.sh.durSecs * spec.Stagger
	return err
}

// genShape is a validated, defaulted GenSpec with the structural counts
// it implies. EstimateFlows reports them and the schedule builder takes
// its length from them, so the estimate and the schedule cannot drift
// apart.
type genShape struct {
	spec     GenSpec
	jm       *JobModel
	jobShape // one map per block
	// perJob is the flow count of one job instance, total the exact
	// schedule length.
	perJob, total int64
	// laws holds each flows.AllPhases entry's built laws (buildLaws).
	laws []phaseLaws
}

// phaseLaws is one phase of a job, ready to sample: its model, its flow
// count per job and its built laws. pm is nil for a phase the job does
// not generate.
type phaseLaws struct {
	pm               *PhaseModel
	count            int
	size, inter, off stats.Distribution
}

func (m *Model) shape(spec GenSpec) (genShape, error) {
	if err := spec.Validate(); err != nil {
		return genShape{}, err
	}
	jm, ok := m.Jobs[spec.Workload]
	if !ok {
		return genShape{}, genErr("workload", fmt.Sprintf("%q is not in the model", spec.Workload))
	}
	spec = spec.withDefaults(jm)
	if err := spec.validateScaled(); err != nil {
		return genShape{}, err
	}
	sh := genShape{spec: spec, jm: jm}
	sh.maps = max(1, int((spec.InputBytes+spec.BlockSize-1)/spec.BlockSize))
	sh.blocks = int64(sh.maps)
	sh.reducers = spec.Reducers
	sh.durSecs = jm.DurationAt(spec.InputBytes)
	if sh.durSecs <= 0 {
		sh.durSecs = jm.DurationSecs
	}
	if last := float64(spec.Jobs-1) * sh.durSecs * spec.Stagger; !(last*1e9 < float64(sim.MaxTime)) {
		return genShape{}, pastClock("GenSpec", "stagger", fmt.Sprintf("starts job %d at %.4g s", spec.Jobs-1, last))
	}
	for _, ph := range flows.AllPhases {
		if pm, ok := jm.Phases[ph]; ok {
			sh.perJob += int64(sh.count(pm))
		}
	}
	// A schedule length no machine could hold is refused here, in
	// floating point where it cannot overflow.
	background := spec.IncludeBackground && m.Background != nil
	spanSecs := sh.durSecs * spec.Stagger * float64(spec.Jobs)
	total := float64(sh.perJob) * float64(spec.Jobs)
	if background {
		total += m.Background.CountPerUnit * spanSecs * float64(spec.Workers)
	}
	if !(total <= maxSpecFlows) {
		return genShape{}, tooManyFlows("GenSpec", "inputBytes", total)
	}
	sh.total = sh.perJob * int64(spec.Jobs)
	if background {
		sh.total += int64(m.backgroundCount(spanSecs, spec.Workers))
	}
	// shape bounds the unrounded count; the schedule takes the exact one.
	if sh.total > maxSpecFlows {
		return genShape{}, tooManyFlows("GenSpec", "inputBytes", float64(sh.total))
	}
	return sh, nil
}

// buildLaws builds the laws of every phase the job generates.
func (sh *genShape) buildLaws() error {
	sh.laws = make([]phaseLaws, len(flows.AllPhases))
	for k, ph := range flows.AllPhases {
		pm, ok := sh.jm.Phases[ph]
		if !ok {
			continue
		}
		l := phaseLaws{pm: pm, count: sh.count(pm)}
		if l.count == 0 {
			continue
		}
		var err error
		if l.size, err = pm.Size.Build(); err != nil {
			return fmt.Errorf("size law %s/%s: %w", sh.spec.Workload, ph, err)
		}
		if l.inter, err = pm.InterArrival.Build(); err != nil {
			return fmt.Errorf("inter-arrival law %s/%s: %w", sh.spec.Workload, ph, err)
		}
		if l.off, err = pm.StartOffset.Build(); err != nil {
			return fmt.Errorf("offset law %s/%s: %w", sh.spec.Workload, ph, err)
		}
		sh.laws[k] = l
	}
	return nil
}

// appendJob samples one job instance into b as one run per phase. Start
// times are offset by jobStart seconds and then by shiftNs, and every
// flow is labelled name. sh.laws must be built.
func (sh genShape) appendJob(ctx context.Context, b *scheduleBuilder, rng *stats.RNG, jobStart float64, shiftNs int64, name string) error {
	spec := sh.spec
	hosts := jobHosts{rot: rng.Intn(spec.Workers), workers: spec.Workers,
		maps: sh.maps, reducers: max(1, sh.reducers)}
	for k, ph := range flows.AllPhases {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: generate: %w", err)
		}
		l := sh.laws[k]
		if l.pm == nil {
			continue
		}
		pm, rule := l.pm, phaseRules[ph]

		// The size law lives in normalized space (shuffle sizes are
		// fitted ×reducers); divide the normalizer back out for the
		// target configuration.
		denom := sh.sizeScale(pm.SizeNormalizer)
		sampleSize := func() float64 {
			r := rng.Float64()
			acc := 0.0
			for _, a := range pm.SizeAtoms {
				acc += a.Weight
				if r < acc {
					return a.Value / denom
				}
			}
			return winsorize(l.size.Sample(rng), pm.SizeMin, pm.SizeMax) / denom
		}

		// Inter-arrival samples are clamped at zero, so t never
		// decreases and the phase is one time-ordered run that starts
		// no earlier than jobStart.
		t := jobStart + atLeast(0, l.off.Sample(rng))
		for i := range l.count {
			if i%genCtxStride == 0 && ctx.Err() != nil {
				return fmt.Errorf("core: generate: %w", ctx.Err())
			}
			if i > 0 {
				t += atLeast(0, l.inter.Sample(rng))
			}
			size := int64(atLeast(1, sampleSize()))
			src, dst := rule.place(hosts, i, rng)
			b.add(packFlow(startNs(t, shiftNs), size, src, dst, flows.EphemeralPort(rng)))
		}
		b.endRun(name, k)
	}
	return nil
}

// atLeast is math.Max(lo, x) for a finite lo, NaN and infinities
// included, but for the sign of a zero, without the call: the sampling
// loops clamp every draw with it.
func atLeast(lo, x float64) float64 {
	if x < lo {
		return lo
	}
	return x
}

// startNs converts a start time secs seconds after shiftNs into
// nanoseconds, saturating at sim.MaxTime. Every generated start time
// goes through it, so none can wrap, and because it never decreases in
// secs, a flow drawn at or after a source's start secs starts at or
// after startNs(secs, shiftNs): each source's bound holds by
// construction.
func startNs(secs float64, shiftNs int64) int64 {
	ns := secs * 1e9
	if !(ns < float64(sim.MaxTime)) {
		return int64(sim.MaxTime)
	}
	if n := int64(ns); n <= int64(sim.MaxTime)-shiftNs {
		return n + shiftNs
	}
	return int64(sim.MaxTime)
}

// EstimateFlows predicts the exact schedule length Generate would
// produce for spec without sampling a single law: phase counts are
// structural (deterministic in maps, reducers and duration), and the
// background count is a deterministic function of the job span. Callers
// admitting untrusted specs (keddah-serve) use it to reject requests
// whose schedules would not fit in memory before doing any work. A spec
// whose schedule exceeds the schedule limit, or whose last job would
// start at or past sim.MaxTime, fails with an error matching both
// ErrBadSpec and ErrScheduleTooLarge.
func (m *Model) EstimateFlows(spec GenSpec) (int64, error) {
	sh, err := m.shape(spec)
	if err != nil {
		return 0, err
	}
	return sh.total, nil
}

// winsorize clamps a sampled size to the model's empirical support so
// heavy-tailed fits cannot generate flows far larger than anything
// measured. No-op when the support was not recorded.
func winsorize(v, lo, hi float64) float64 {
	if hi <= 0 {
		return v
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// backgroundCount is the heartbeat flow count over spanSecs of cluster
// time on workers hosts.
func (m *Model) backgroundCount(spanSecs float64, workers int) int {
	return int(math.Round(m.Background.CountPerUnit * spanSecs * float64(workers)))
}

// appendBackground samples heartbeat traffic over the job span into b as
// one run. Its start times are drawn independently, so it is the one run
// the builder cuts into chunks and sorts.
func (m *Model) appendBackground(ctx context.Context, b *scheduleBuilder, workers int, spanSecs float64, rng *stats.RNG) error {
	pm := m.Background
	ctl := phaseRules[flows.PhaseControl]
	hosts := jobHosts{workers: workers, maps: 1, reducers: 1}
	sizeLaw, err := pm.Size.Build()
	if err != nil {
		return fmt.Errorf("background size law: %w", err)
	}
	n := m.backgroundCount(spanSecs, workers)
	for i := range n {
		if i%genCtxStride == 0 && ctx.Err() != nil {
			return fmt.Errorf("core: generate background: %w", ctx.Err())
		}
		t := rng.Float64() * spanSecs
		eph := flows.EphemeralPort(rng)
		size := sizeLaw.Sample(rng)
		if len(pm.SizeAtoms) > 0 && rng.Float64() < pm.SizeAtoms[0].Weight {
			size = pm.SizeAtoms[0].Value
		}
		// The hosts are drawn after the size and atom draws; the draw
		// order fixes the schedule's bytes.
		src, dst := ctl.place(hosts, i, rng)
		b.add(packFlow(startNs(t, 0), int64(atLeast(1, winsorize(size, pm.SizeMin, pm.SizeMax))), src, dst, eph))
	}
	b.endRun("background", phaseIndex(flows.PhaseControl))
	return nil
}

// ScheduleFromRecords converts measured flow records into a replayable
// schedule that preserves start times, endpoints, ports and sizes —
// trace-driven simulation, the model-free alternative to Generate.
// Record addresses must have been produced by the capture taps
// (pcap.HostAddr over node ids); the first host maps to the master.
func ScheduleFromRecords(records []pcap.FlowRecord) []SynthFlow {
	if len(records) == 0 {
		return nil
	}
	base := records[0].FirstNs
	for _, r := range records {
		if r.FirstNs < base {
			base = r.FirstNs
		}
	}
	out := make([]SynthFlow, 0, len(records))
	for _, r := range records {
		job := r.Label
		if i := strings.IndexByte(job, '/'); i >= 0 {
			job = job[:i]
		}
		out = append(out, SynthFlow{
			StartNs: r.FirstNs - base,
			// Node id 0 is conventionally the master host in the
			// capture clusters; shift worker ids down by one and send
			// master traffic to -1.
			SrcHost: r.Key.Src.HostIndex() - 1,
			DstHost: r.Key.Dst.HostIndex() - 1,
			SrcPort: int(r.Key.SrcPort),
			DstPort: int(r.Key.DstPort),
			Bytes:   r.Bytes,
			Phase:   flows.Classify(r),
			Job:     job,
		})
	}
	slices.SortStableFunc(out, byStart)
	return out
}

// ReplayWith runs a synthetic schedule on a topology built from cluster
// and returns the captured flow records plus the makespan, the finish
// time of the last flow — the "for use with network simulators" half of
// the toolchain. A flow with a negative size is rejected before anything
// runs, and a schedule whose flows cannot all finish within the simulated
// horizon is an error, not a silently short record set. A non-nil tel
// attaches engine and network metrics to the replay substrate, counts,
// times and spans the stage, and — when it has a link timeline enabled —
// samples every link into it; the replay's records and makespan are
// unchanged by attaching it. A nil tel records nothing.
func ReplayWith(schedule []SynthFlow, cluster ClusterSpec, tel *telemetry.Telemetry) ([]pcap.FlowRecord, sim.Time, error) {
	wallStart := time.Now()
	topo, err := cluster.BuildTopology()
	if err != nil {
		return nil, 0, err
	}
	netCfg, err := cluster.netConfig()
	if err != nil {
		return nil, 0, err
	}
	eng := sim.New()
	net := netsim.NewNetwork(eng, topo, netCfg)
	if tel != nil {
		eng.SetMetrics(tel.Sim)
		net.SetMetrics(tel.Net)
	}
	truth := attachTruth(net)

	hosts := topo.Hosts()
	if len(hosts) < 2 {
		return nil, 0, fmt.Errorf("core: replay topology has %d hosts", len(hosts))
	}
	master, workers := hosts[0], hosts[1:]
	resolve := func(h int) netsim.NodeID {
		if h < 0 {
			return master
		}
		return workers[h%len(workers)]
	}

	for i, sf := range schedule {
		if sf.Bytes < 0 {
			return nil, 0, fmt.Errorf("core: replay flow %d: negative size %d", i, sf.Bytes)
		}
		if _, err := eng.At(sim.Time(sf.StartNs), func() {
			// Same-host pairs ride the loopback path, exactly as local
			// shuffle fetches and node-local HDFS reads do on a real
			// cluster (and in the measured captures).
			src, dst := resolve(sf.SrcHost), resolve(sf.DstHost)
			if _, err := net.StartFlow(netsim.FlowSpec{
				Src:       src,
				Dst:       dst,
				SrcPort:   sf.SrcPort,
				DstPort:   sf.DstPort,
				SizeBytes: sf.Bytes,
				Label:     sf.Job + "/" + string(sf.Phase),
			}); err != nil {
				panic(fmt.Sprintf("core: replay flow: %v", err))
			}
		}); err != nil {
			return nil, 0, fmt.Errorf("schedule flow: %w", err)
		}
	}
	startProbe(net, tel)
	if _, err := eng.RunAll(); err != nil {
		return nil, 0, fmt.Errorf("replay: %w", err)
	}
	if n := net.ActiveFlows(); n > 0 {
		return nil, 0, fmt.Errorf("core: replay: %d flows never finished", n)
	}
	// The makespan is read from the flows, not the engine clock, which
	// may stop later on an idle transport timer or a probe tick.
	records := truth.Truth()
	var end sim.Time
	for _, r := range records {
		end = max(end, sim.Time(r.LastNs))
	}
	if tel != nil {
		tel.Core.Replays.Inc()
		tel.Core.ReplayWallMs.Add(float64(time.Since(wallStart).Milliseconds()))
		tel.Trace.Add(telemetry.Span{Cat: "core", Name: "replay", Attr: cluster.Topology, EndNs: int64(end)})
	}
	return records, end, nil
}
