package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"time"

	"keddah/internal/core"
	"keddah/internal/workload"
)

// corpusSpec is the fixed measurement corpus the generation workloads fit
// their model from.
type corpusSpec struct {
	workers    int
	profiles   []string
	inputBytes int64
}

// corpusSeed fixes the corpus capture, so every run fits the same model
// and only the generation seeds vary.
const corpusSeed = 1

// fitCorpus captures the corpus and fits the model from it.
func fitCorpus(sc scope, c corpusSpec) (*core.Model, error) {
	runs := make([]workload.RunSpec, len(c.profiles))
	for i, p := range c.profiles {
		runs[i] = workload.RunSpec{Profile: p, InputBytes: c.inputBytes}
	}
	ts, _, err := sc.capture(core.ClusterSpec{Workers: c.workers, Seed: corpusSeed}, runs)
	if err != nil {
		return nil, fmt.Errorf("corpus capture: %w", err)
	}
	m, err := sc.fit(ts)
	if err != nil {
		return nil, fmt.Errorf("corpus fit: %w", err)
	}
	return m, nil
}

// streamPlan is one schedule of a generation pass: a single-workload spec
// (gen) or a multi-tenant mix (mix), and the format it is encoded in.
type streamPlan struct {
	label  string
	format string
	gen    *core.GenSpec
	mix    *core.MixSpec
}

// generator returns the plan's span name, its generator for one seed, and
// the worker count the ns3 encoder numbers nodes with.
func (p streamPlan) generator(m *core.Model, seed int64) (string, func(emitFn) error, int) {
	if p.mix != nil {
		spec := *p.mix
		spec.Seed = seed
		return "core.mix", func(emit emitFn) error {
			return m.GenerateMixChunks(context.Background(), spec, 0, emit)
		}, spec.Workers
	}
	spec := *p.gen
	spec.Seed = seed
	return "core.generate", func(emit emitFn) error {
		return m.GenerateChunks(context.Background(), spec, 0, emit)
	}, spec.Workers
}

// bulkState is the bulk-generate workload after set-up: a fitted model and
// the exact flow count EstimateFlows predicts for each single-workload
// schedule (-1 for a mix, which has no estimate).
type bulkState struct {
	tag       string
	model     *core.Model
	plans     []streamPlan
	seed      int64
	estimates []int64
}

func setupBulk(tag string, corpus corpusSpec, plans []streamPlan) setupFunc {
	return func(sc scope, e *env) (state, error) {
		m, err := fitCorpus(sc, corpus)
		if err != nil {
			return nil, err
		}
		st := &bulkState{tag: tag, model: m, plans: plans, seed: e.seed}
		for i, p := range plans {
			n := int64(-1)
			if p.gen != nil {
				spec := *p.gen
				spec.Seed = st.planSeed(i)
				if n, err = m.EstimateFlows(spec); err != nil {
					return nil, fmt.Errorf("estimate %s: %w", p.label, err)
				}
			}
			st.estimates = append(st.estimates, n)
		}
		return st, nil
	}
}

func (b *bulkState) planSeed(i int) int64 { return b.seed*10 + int64(i) }

func (b *bulkState) close() {}

func (b *bulkState) measure(sc scope, bg budget, chk *checker) (measurement, error) {
	return repeatPasses(bg, func() (opSample, error) { return b.pass(sc, chk) })
}

// pass streams every planned schedule through its encoder into a CRC-32C
// writer that discards the bytes.
func (b *bulkState) pass(sc scope, chk *checker) (opSample, error) {
	cpu0 := cpuTime()
	start := time.Now()
	streamed := make([]int64, len(b.plans))
	crcs := make([]uint32, len(b.plans))
	for i, p := range b.plans {
		name, gen, workers := p.generator(b.model, b.planSeed(i))
		crc := crc32.New(castagnoli)
		flows, err := sc.stream(name, p.label, gen, p.format, workers, crc, nil)
		if err != nil {
			return opSample{}, fmt.Errorf("stream %s: %w", p.label, err)
		}
		streamed[i], crcs[i] = flows, crc.Sum32()
	}
	sample := opSample{cpuMs: ms(cpuTime() - cpu0), wallMs: msSince(start)}

	for i, p := range b.plans {
		if b.estimates[i] >= 0 {
			chk.check(streamed[i] == b.estimates[i], "%s: %s streamed %d flows, EstimateFlows says %d",
				b.tag, p.label, streamed[i], b.estimates[i])
		}
		chk.digest(fmt.Sprintf("%s/stream.%s.%s", b.tag, p.label, p.format), fmt.Sprintf("crc32c:%08x flows:%d", crcs[i], streamed[i]))
	}
	return sample, nil
}
