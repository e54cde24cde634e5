package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"strings"
	"syscall"
	"time"

	"keddah/internal/core"
	"keddah/internal/pcap"
	"keddah/internal/workload"
)

// castagnoli is the CRC-32C table every encoded stream is digested with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxStretch bounds a capture's longest simulated job against the fluid
// capture of the same spec. A TCP capture that stalls in repeated
// retransmission timeouts exceeds it by orders of magnitude.
const maxStretch = 20

// runPlan is one captured job; the pass regenerates and replays it.
type runPlan struct {
	profile    string
	inputBytes int64
}

// pipelineSpec sizes one capture → classify → fit → generate → export →
// replay → validate pass.
type pipelineSpec struct {
	workers   int
	transport string
	runs      []runPlan
	genJobs   int // jobs generated, exported and replayed per captured job
}

func (p pipelineSpec) cluster(seed int64, transport string) core.ClusterSpec {
	return core.ClusterSpec{Workers: p.workers, Transport: transport, Seed: seed}
}

func (p pipelineSpec) jobName(i int) string { return fmt.Sprintf("%s-%d", p.runs[i].profile, i) }

func (p pipelineSpec) runSpecs() []workload.RunSpec {
	specs := make([]workload.RunSpec, len(p.runs))
	for i, r := range p.runs {
		specs[i] = workload.RunSpec{Profile: r.profile, InputBytes: r.inputBytes, JobName: p.jobName(i)}
	}
	return specs
}

func (p pipelineSpec) genSpec(i int, seed int64) core.GenSpec {
	r := p.runs[i]
	return core.GenSpec{Workload: r.profile, InputBytes: r.inputBytes, Workers: p.workers, Jobs: p.genJobs, Seed: seed}
}

// pipelineState is a toolchain workload after set-up: the fluid reference
// capture of the pass's spec has given the stretch check its baseline.
type pipelineState struct {
	tag        string
	spec       pipelineSpec
	seed       int64
	fluidJobS  float64
	fluidTrace string // TraceSet digest of the fluid reference capture
}

func setupPipeline(tag string, spec pipelineSpec) setupFunc {
	return func(sc scope, e *env) (state, error) {
		ts, results, err := sc.capture(spec.cluster(e.seed, ""), spec.runSpecs())
		if err != nil {
			return nil, fmt.Errorf("fluid reference capture: %w", err)
		}
		st := &pipelineState{tag: tag, spec: spec, seed: e.seed, fluidJobS: jobSimSeconds(results)}
		if spec.transport == "" {
			if st.fluidTrace, err = traceDigest(ts); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
}

func (p *pipelineState) close() {}

func (p *pipelineState) measure(sc scope, b budget, chk *checker) (measurement, error) {
	return repeatPasses(b, func() (opSample, error) { return p.pass(sc, chk) })
}

// pass runs the toolchain once. Only the stages are timed; the digests
// and checks that follow are not.
func (p *pipelineState) pass(sc scope, chk *checker) (opSample, error) {
	spec := p.spec
	cluster := spec.cluster(p.seed, spec.transport)
	cpu0 := cpuTime()
	start := time.Now()

	ts, results, err := sc.capture(cluster, spec.runSpecs())
	if err != nil {
		return opSample{}, fmt.Errorf("capture: %w", err)
	}
	sc.classify(ts)
	model, err := sc.fit(ts)
	if err != nil {
		return opSample{}, fmt.Errorf("fit: %w", err)
	}
	scheduled := make([]int, len(spec.runs))
	replayed := make([]int, len(spec.runs))
	streamed := make([]int64, len(spec.runs))
	exports := make([]uint32, len(spec.runs))
	for i, r := range spec.runs {
		gs := spec.genSpec(i, p.seed)
		var sched []core.SynthFlow
		crc := crc32.New(castagnoli)
		flows, err := sc.stream("core.generate", r.profile, func(emit emitFn) error {
			return model.GenerateChunks(context.Background(), gs, 0, emit)
		}, "csv", spec.workers, crc, func(chunk []core.SynthFlow) { sched = append(sched, chunk...) })
		if err != nil {
			return opSample{}, fmt.Errorf("generate %s: %w", r.profile, err)
		}
		recs, err := sc.replay(sched, cluster)
		if err != nil {
			return opSample{}, fmt.Errorf("replay %s: %w", r.profile, err)
		}
		measured, rounds := jobRecords(ts, spec.jobName(i))
		sc.validate(r.profile, measured, recs, rounds, spec.genJobs)
		scheduled[i], replayed[i], streamed[i], exports[i] = len(sched), len(recs), flows, crc.Sum32()
	}
	sample := opSample{cpuMs: ms(cpuTime() - cpu0), wallMs: msSince(start)}

	jobS := jobSimSeconds(results)
	chk.check(jobS <= maxStretch*p.fluidJobS, "%s: longest simulated job %.1fs exceeds %d× the fluid capture's %.1fs",
		p.tag, jobS, maxStretch, p.fluidJobS)
	for i, r := range spec.runs {
		want, err := model.EstimateFlows(spec.genSpec(i, p.seed))
		if err != nil {
			return opSample{}, fmt.Errorf("estimate %s: %w", r.profile, err)
		}
		chk.check(streamed[i] == want, "%s: %s streamed %d flows, EstimateFlows says %d", p.tag, r.profile, streamed[i], want)
		chk.check(replayed[i] == scheduled[i], "%s: %s replay returned %d records for %d scheduled flows",
			p.tag, r.profile, replayed[i], scheduled[i])
		chk.digest(fmt.Sprintf("%s/export.%s.csv", p.tag, spec.jobName(i)), fmt.Sprintf("crc32c:%08x", exports[i]))
	}
	tsDigest, err := traceDigest(ts)
	if err != nil {
		return opSample{}, err
	}
	chk.digest(p.tag+"/capture.tracejson", tsDigest)
	if p.fluidTrace != "" {
		chk.check(tsDigest == p.fluidTrace, "%s: capture differs from the set-up capture of the same spec", p.tag)
	}
	var csv bytes.Buffer
	if err := core.WriteFlowCSV(&csv, ts); err != nil {
		return opSample{}, err
	}
	chk.digest(p.tag+"/capture.flowcsv", sha(csv.Bytes()))
	return sample, nil
}

// jobRecords returns the measured records of one captured job — every
// round of it — and its round count.
func jobRecords(ts *core.TraceSet, job string) ([]pcap.FlowRecord, int) {
	var recs []pcap.FlowRecord
	rounds := 0
	for _, r := range ts.Runs {
		if strings.HasPrefix(r.JobName, job+"-r") {
			recs = append(recs, r.Records...)
			rounds++
		}
	}
	return recs, max(rounds, 1)
}

func traceDigest(ts *core.TraceSet) (string, error) {
	var b bytes.Buffer
	if err := ts.WriteJSON(&b); err != nil {
		return "", fmt.Errorf("encode trace set: %w", err)
	}
	return sha(b.Bytes()), nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(h[:])
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }
