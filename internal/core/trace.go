// Package core implements the Keddah toolchain itself: capturing traffic
// from (simulated) Hadoop cluster runs, reducing it to per-job per-phase
// flow datasets, fitting empirical distribution models, serialising those
// models, regenerating synthetic traffic from them inside a network
// simulator, and validating generated against measured traffic.
//
// The pipeline mirrors the paper:
//
//	capture → classify → model → generate → validate
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"keddah/internal/flows"
	"keddah/internal/pcap"
)

// Run is the captured traffic of one job execution plus the job metadata
// the model is parameterised on.
type Run struct {
	// Workload names the profile ("terasort").
	Workload string `json:"workload"`
	// JobName is the per-run unique job label ("terasort0-r0").
	JobName string `json:"jobName"`
	// InputBytes, Maps, Reducers are the job parameters.
	InputBytes int64 `json:"inputBytes"`
	Maps       int   `json:"maps"`
	Reducers   int   `json:"reducers"`
	// BlockSize and Replication are the cluster parameters in force.
	BlockSize   int64 `json:"blockSize"`
	Replication int   `json:"replication"`
	// Hosts is the worker count.
	Hosts int `json:"hosts"`
	// StartNs/EndNs bound the job in simulated time.
	StartNs int64 `json:"startNs"`
	EndNs   int64 `json:"endNs"`
	// Records are the job's flow records (ground-truth-labelled,
	// phase-classified by ports).
	Records []pcap.FlowRecord `json:"records"`

	dsOnce sync.Once
	ds     *flows.Dataset
}

// DurationSeconds returns the job duration.
func (r *Run) DurationSeconds() float64 { return float64(r.EndNs-r.StartNs) / 1e9 }

// Dataset returns the run's classified flow dataset. The dataset is
// built on first use and cached: Records are fixed once the capture
// session ends and classification is pure, so every caller — including
// repeated Fit invocations — shares one phase-indexed view. Callers must
// treat the returned dataset as read-only.
func (r *Run) Dataset() *flows.Dataset {
	r.dsOnce.Do(func() { r.ds = flows.NewDataset(r.Records) })
	return r.ds
}

// CaptureStats summarises cluster-level events of a capture session.
type CaptureStats struct {
	// ReReplicatedBytes / ReReplicatedBlocks count HDFS failure-recovery
	// copies; LostContainers counts YARN containers killed by node
	// failures; LostBlocks counts data irrecoverably lost.
	ReReplicatedBytes  int64 `json:"reReplicatedBytes"`
	ReReplicatedBlocks int64 `json:"reReplicatedBlocks"`
	LostContainers     int64 `json:"lostContainers"`
	LostBlocks         int64 `json:"lostBlocks"`
	// PipelineRecoveries / ReadRetries count HDFS client-side recovery
	// actions; AbortedFlows counts flows torn down by fault injection.
	PipelineRecoveries int64 `json:"pipelineRecoveries,omitempty"`
	ReadRetries        int64 `json:"readRetries,omitempty"`
	AbortedFlows       int64 `json:"abortedFlows,omitempty"`
	// InterPod* describe the fabric traffic of a multi-pod capture:
	// transfers completed and aborted, and the application bytes that
	// crossed pod boundaries.
	InterPodTransfers int64 `json:"interPodTransfers,omitempty"`
	InterPodAborted   int64 `json:"interPodAborted,omitempty"`
	InterPodBytes     int64 `json:"interPodBytes,omitempty"`
}

// TraceSet is a collection of captured runs — the measurement corpus the
// model is fitted from.
type TraceSet struct {
	// Background holds cluster-wide control flows not attributable to a
	// single job (NodeManager/DataNode heartbeats, failure recovery).
	Background []pcap.FlowRecord `json:"background"`
	// BackgroundHosts and BackgroundSpanNs scale the background model.
	BackgroundHosts  int          `json:"backgroundHosts"`
	BackgroundSpanNs int64        `json:"backgroundSpanNs"`
	Stats            CaptureStats `json:"stats"`
	Runs             []*Run       `json:"runs"`

	bgOnce sync.Once
	bgDS   *flows.Dataset
}

// BackgroundDataset returns the classified background-flow dataset,
// built on first use and cached under the same contract as Run.Dataset:
// Background is fixed once the capture session ends, and callers must
// treat the returned dataset as read-only.
func (ts *TraceSet) BackgroundDataset() *flows.Dataset {
	ts.bgOnce.Do(func() { ts.bgDS = flows.NewDataset(ts.Background) })
	return ts.bgDS
}

// ByWorkload groups runs by workload name, sorted for determinism.
func (ts *TraceSet) ByWorkload() map[string][]*Run {
	out := make(map[string][]*Run)
	for _, r := range ts.Runs {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out
}

// Workloads lists the distinct workload names in sorted order.
func (ts *TraceSet) Workloads() []string {
	seen := make(map[string]bool)
	var names []string
	for _, r := range ts.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	return names
}

// WriteJSON serialises the trace set.
func (ts *TraceSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(ts); err != nil {
		return fmt.Errorf("encode trace set: %w", err)
	}
	return nil
}

// ErrBadTraceSet marks trace-set JSON that decodes but cannot be fitted:
// a null run.
var ErrBadTraceSet = errors.New("core: invalid trace set")

// ReadTraceSet deserialises a trace set. JSON that decodes into a trace
// set no fit could use fails with an error wrapping ErrBadTraceSet.
func ReadTraceSet(r io.Reader) (*TraceSet, error) {
	var ts TraceSet
	if err := json.NewDecoder(r).Decode(&ts); err != nil {
		return nil, fmt.Errorf("decode trace set: %w", err)
	}
	for i, run := range ts.Runs {
		if run == nil {
			return nil, fmt.Errorf("%w: run %d is null", ErrBadTraceSet, i)
		}
	}
	return &ts, nil
}
