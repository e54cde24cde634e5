// Package keddah is a toolchain for capturing, modelling and reproducing
// Hadoop network traffic, after "Keddah: Capturing Hadoop Network
// Behaviour" (Deng, Tyson, Cuadrado, Uhlig — ICDCS 2017).
//
// The pipeline has four stages:
//
//  1. Capture — run MapReduce workloads on a simulated Hadoop 2.x cluster
//     (HDFS + YARN + MapReduce over a flow-level network simulator) and
//     record every flow, exactly as tcpdump-based capture does on a
//     physical testbed.
//  2. Fit — classify flows into Hadoop traffic components (HDFS read,
//     HDFS write, shuffle, control) by the well-known port map and fit
//     empirical distributions to per-phase flow sizes, counts and
//     arrival processes.
//  3. Generate — produce synthetic flow schedules from a fitted model at
//     any input size, reducer fan-in or job mix.
//  4. Replay / Validate — run schedules on arbitrary fabrics and compare
//     generated traffic against measured traffic (KS distances, volume
//     errors).
//
// A minimal end-to-end use:
//
//	ts, _, err := keddah.Capture(keddah.ClusterSpec{Workers: 16, Seed: 1},
//	    []keddah.RunSpec{{Profile: "terasort", InputBytes: 8 << 30}},
//	    keddah.CaptureOpts{})
//	model, err := keddah.Fit(ts, keddah.FitOptions{}, nil)
//	sched, err := model.Generate(context.Background(),
//	    keddah.GenSpec{Workload: "terasort", Workers: 64})
//	records, makespan, err := keddah.Replay(sched, keddah.ClusterSpec{
//	    Topology: "fattree", FatTreeK: 8}, nil)
//
// Fit, Replay and Validate take the toolchain's internal telemetry sink
// as their last argument; callers outside this module pass nil.
//
// See the examples directory for complete programs.
package keddah

import (
	"keddah/internal/coflow"
	"keddah/internal/core"
	"keddah/internal/flows"
	"keddah/internal/pcap"
	"keddah/internal/workload"
)

// Re-exported pipeline types. The implementation lives in internal/core;
// these aliases are the supported public API.
type (
	// ClusterSpec describes the testbed fabric and Hadoop configuration.
	ClusterSpec = core.ClusterSpec
	// RunSpec requests one workload execution during capture.
	RunSpec = workload.RunSpec
	// TraceSet is a measurement corpus: per-job flow records plus
	// cluster background traffic.
	TraceSet = core.TraceSet
	// Run is the captured traffic of one job execution.
	Run = core.Run
	// Model is a fitted Keddah model library.
	Model = core.Model
	// JobModel is one workload's fitted traffic model.
	JobModel = core.JobModel
	// PhaseModel is one traffic component's fitted laws.
	PhaseModel = core.PhaseModel
	// FitOptions tunes the modelling stage.
	FitOptions = core.FitOptions
	// GenSpec parameterises synthetic traffic generation.
	GenSpec = core.GenSpec
	// SynthFlow is one generated transfer.
	SynthFlow = core.SynthFlow
	// MixSpec parameterises multi-tenant Poisson job-mix generation.
	MixSpec = core.MixSpec
	// MixSummary reports a mix schedule's composition.
	MixSummary = core.MixSummary
	// Validation reports measured-vs-generated fidelity.
	Validation = core.Validation
	// PhaseComparison is one phase's row in a Validation.
	PhaseComparison = core.PhaseComparison
	// FlowRecord is a reassembled flow.
	FlowRecord = pcap.FlowRecord
	// Phase is a Hadoop traffic component.
	Phase = flows.Phase
)

// Traffic component identifiers.
const (
	PhaseHDFSRead  = flows.PhaseHDFSRead
	PhaseHDFSWrite = flows.PhaseHDFSWrite
	PhaseShuffle   = flows.PhaseShuffle
	PhaseControl   = flows.PhaseControl
)

// Failure-injection types for degraded-cluster capture sessions.
type (
	// CaptureOpts holds Capture's optional session behaviour.
	CaptureOpts = core.CaptureOpts
	// FailureSpec kills one worker (DataNode + NodeManager) mid-session.
	FailureSpec = core.FailureSpec
)

// Capture runs workloads on a simulated cluster and returns the captured
// corpus (stage 1 of the toolchain). A zero CaptureOpts runs a plain
// session.
var Capture = core.CaptureWith

// Fit builds the empirical traffic model from a corpus (stage 2).
var Fit = core.FitWith

// Replay runs a synthetic schedule on a fabric and returns the captured
// flow records plus the simulated makespan (stage 4).
var Replay = core.ReplayWith

// Validate compares measured and generated flow records phase by phase.
var Validate = core.ValidateWith

// ReadTraceSet / ReadModel deserialise toolchain artefacts.
var (
	ReadTraceSet = core.ReadTraceSet
	ReadModel    = core.ReadModel
)

// Schedule exports for external simulators (the ns-3 integration path).
var (
	// ExportCSV / ImportCSV round-trip a schedule through CSV.
	ExportCSV = core.ExportCSV
	ImportCSV = core.ImportCSV
	// ExportNS3 writes the keddah-ns3 replay-driver format.
	ExportNS3 = core.ExportNS3
)

// SummarizeMix aggregates a mix schedule by workload.
var SummarizeMix = core.SummarizeMix

// ScheduleFromRecords converts measured flow records into a replayable
// schedule — trace-driven simulation, the model-free alternative to
// Generate.
var ScheduleFromRecords = core.ScheduleFromRecords

// Coflow analysis: each job's shuffle stage viewed as a coflow, the
// structure coflow-scheduling research consumes.
type (
	// Coflow summarises one job's shuffle stage.
	Coflow = coflow.Coflow
	// CoflowPopulation holds width/size/skew/CCT distributions.
	CoflowPopulation = coflow.Population
)

// Coflows extracts one coflow per job from labelled flow records.
var Coflows = coflow.FromRecords

// DescribeCoflows computes population statistics over coflows.
var DescribeCoflows = coflow.Describe

// Workloads lists the built-in benchmark profiles.
func Workloads() []string { return workload.Names() }
