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
// repeated Fit invocations — shares one phase-indexed view. The dataset
// owns Records itself rather than a copy, so neither Records nor the
// returned dataset may be modified.
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
// Background is fixed once the capture session ends, the dataset owns
// Background itself, and neither may be modified.
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

// WriteJSON serialises the trace set: the bytes json.NewEncoder(w).Encode
// writes for it, field order, null slices, omitted zero stats and string
// escaping included (TestTraceSetWritersMatchReferences). The document is
// not built in memory first: records are appended to one reused buffer
// that reaches w in writes of about encFlushBytes.
func (ts *TraceSet) WriteJSON(w io.Writer) error {
	rw := newRowWriter(w, "encode trace set")
	rw.buf = append(rw.buf, `{"background":`...)
	err := appendRecordsJSON(&rw, ts.Background)
	if err == nil {
		b := appendInt(append(rw.buf, `,"backgroundHosts":`...), int64(ts.BackgroundHosts))
		b = appendInt(append(b, `,"backgroundSpanNs":`...), ts.BackgroundSpanNs)
		b = appendStatsJSON(append(b, `,"stats":`...), &ts.Stats)
		rw.buf = append(b, `,"runs":`...)
		err = appendRunsJSON(&rw, ts.Runs)
	}
	if err == nil {
		rw.buf = append(rw.buf, "}\n"...)
	}
	return endRows(&rw, "encode trace set", err)
}

// appendStatsJSON appends the capture stats object, omitting the zero
// omitempty counters.
func appendStatsJSON(b []byte, st *CaptureStats) []byte {
	b = appendInt(append(b, `{"reReplicatedBytes":`...), st.ReReplicatedBytes)
	b = appendInt(append(b, `,"reReplicatedBlocks":`...), st.ReReplicatedBlocks)
	b = appendInt(append(b, `,"lostContainers":`...), st.LostContainers)
	b = appendInt(append(b, `,"lostBlocks":`...), st.LostBlocks)
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{`,"pipelineRecoveries":`, st.PipelineRecoveries},
		{`,"readRetries":`, st.ReadRetries},
		{`,"abortedFlows":`, st.AbortedFlows},
		{`,"interPodTransfers":`, st.InterPodTransfers},
		{`,"interPodAborted":`, st.InterPodAborted},
		{`,"interPodBytes":`, st.InterPodBytes},
	} {
		if f.v != 0 {
			b = appendInt(append(b, f.key...), f.v)
		}
	}
	return append(b, '}')
}

// appendRunsJSON appends the runs array, null when runs is nil.
func appendRunsJSON(rw *rowWriter, runs []*Run) error {
	if runs == nil {
		rw.buf = append(rw.buf, "null"...)
		return nil
	}
	rw.buf = append(rw.buf, '[')
	for i, r := range runs {
		if i > 0 {
			rw.buf = append(rw.buf, ',')
		}
		if r == nil {
			rw.buf = append(rw.buf, "null"...)
			continue
		}
		mark := len(rw.buf)
		b := appendJSONString(append(rw.buf, `{"workload":`...), r.Workload)
		b = appendJSONString(append(b, `,"jobName":`...), r.JobName)
		b = appendInt(append(b, `,"inputBytes":`...), r.InputBytes)
		b = appendInt(append(b, `,"maps":`...), int64(r.Maps))
		b = appendInt(append(b, `,"reducers":`...), int64(r.Reducers))
		b = appendInt(append(b, `,"blockSize":`...), r.BlockSize)
		b = appendInt(append(b, `,"replication":`...), int64(r.Replication))
		b = appendInt(append(b, `,"hosts":`...), int64(r.Hosts))
		b = appendInt(append(b, `,"startNs":`...), r.StartNs)
		b = appendInt(append(b, `,"endNs":`...), r.EndNs)
		rw.buf = append(b, `,"records":`...)
		if err := rw.rowDone(mark); err != nil {
			return err
		}
		if err := appendRecordsJSON(rw, r.Records); err != nil {
			return err
		}
		rw.buf = append(rw.buf, '}')
	}
	rw.buf = append(rw.buf, ']')
	return nil
}

// appendRecordsJSON appends a record array, null when records is nil.
// pcap.FlowRecord has no JSON tags, so its keys are its field names.
func appendRecordsJSON(rw *rowWriter, records []pcap.FlowRecord) error {
	if records == nil {
		rw.buf = append(rw.buf, "null"...)
		return nil
	}
	rw.buf = append(rw.buf, '[')
	for i := range records {
		r := &records[i]
		mark := len(rw.buf)
		b := rw.buf
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(append(b, `{"Key":{"Src":`...), int64(r.Key.Src))
		b = appendInt(append(b, `,"Dst":`...), int64(r.Key.Dst))
		b = appendInt(append(b, `,"SrcPort":`...), int64(r.Key.SrcPort))
		b = appendInt(append(b, `,"DstPort":`...), int64(r.Key.DstPort))
		b = appendInt(append(b, `,"Proto":`...), int64(r.Key.Proto))
		b = appendInt(append(b, `},"FirstNs":`...), r.FirstNs)
		b = appendInt(append(b, `,"LastNs":`...), r.LastNs)
		b = appendInt(append(b, `,"Bytes":`...), r.Bytes)
		b = appendInt(append(b, `,"Packets":`...), r.Packets)
		b = appendJSONString(append(b, `,"Label":`...), r.Label)
		rw.buf = append(b, '}')
		if err := rw.rowDone(mark); err != nil {
			return err
		}
	}
	rw.buf = append(rw.buf, ']')
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
