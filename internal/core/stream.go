package core

// This file is the streaming trial path: the counterpart of the coupled
// Place → Synthesize → Bind → Time stages for workloads too large to
// materialize. One streaming trial places qubits, then pushes the
// workload's gates straight through the backend's frontier kernel
// (perf.SourceTimer), pricing every requested timing model in one pass.
// Peak memory is O(qubits·lanes), independent of the gate count.
//
// Equivalence contract (pinned by stream_test.go): for every workload
// form — explicit circuit, circuit.Program, or spec+placer — a streaming
// trial produces the same perf.Result as the materialized trial for the
// same seed, bit for bit, except that CriticalPath is empty (recovering
// the argmax path needs Θ(gates) memory, exactly what streaming exists
// to avoid). The RNG discipline is the one stages.go documents: one
// stream per trial, placement first, then the gate placer over whatever
// stream state placement left behind. schedule.StreamPlacer guarantees
// EmitPlace draws the stream identically to Place.

import (
	"context"
	"fmt"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/pool"
	"velociti/internal/schedule"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// streamArtifact is the cached product of one streaming trial: the
// per-lane results plus the stream statistics (gate counts and the
// rolling content fingerprint). Cached artifacts are shared read-only.
type streamArtifact struct {
	rs []perf.Result
	st perf.StreamStats
}

// StreamEval runs one streaming trial: place the trial's qubits, stream
// the workload's gates through the backend's frontier kernel, and price
// every timing model in lats (lane j equals the materialized
// Time(b, lats[j]) minus CriticalPath). Results are memoized in the
// pipeline's stream cache when the configuration can describe itself
// canonically; in Program mode the content identity is the rolling
// fingerprint learned from the first evaluation, so the first trial per
// (seed, lats) computes and later ones hit.
func (s *Stages) StreamEval(seed int64, lats []perf.Latencies) ([]perf.Result, perf.StreamStats, error) {
	timer, ok := s.cfg.Backend.(perf.SourceTimer)
	if !ok {
		// Validate rejects this up front; kept as a typed failure for
		// callers that skip Validate.
		return nil, perf.StreamStats{}, verr.Inputf(
			"core: timing backend %q cannot stream (no StreamTimeAll); disable Stream or pick a streaming backend",
			s.cfg.Backend.CacheKey())
	}
	if key := s.streamEvalKey(seed, lats); key != "" {
		if v, ok := s.pl.stream.Get(key); ok {
			a := v.(streamArtifact)
			return a.rs, a.st, nil
		}
	}
	src, layout, err := s.streamSource(seed)
	if err != nil {
		return nil, perf.StreamStats{}, err
	}
	rs, sst, err := timer.StreamTimeAll(src, layout, lats)
	if err != nil {
		return nil, perf.StreamStats{}, err
	}
	if s.progFP != nil {
		// Program emission is deterministic and placement-independent, so
		// every trial streams the same content: the fingerprint learned
		// here is the program's content identity for all later cache keys.
		s.progFP.Store(sst.Fingerprint)
	}
	if key := s.streamEvalKey(seed, lats); key != "" {
		s.pl.stream.Put(key, streamArtifact{rs: rs, st: sst})
	}
	return rs, sst, nil
}

// streamEvalKey builds the full stream-cache key for one (seed, lats)
// evaluation, or "" when the stage is uncacheable. In Program mode the
// key additionally needs the learned content fingerprint; before the
// first evaluation completes (fingerprint still zero) the stage computes
// uncached.
func (s *Stages) streamEvalKey(seed int64, lats []perf.Latencies) string {
	if s.pl == nil || s.streamKey == "" {
		return ""
	}
	prefix := s.streamKey
	if s.progFP != nil {
		fp := s.progFP.Load()
		if fp == 0 {
			return ""
		}
		prefix = fmt.Sprintf("%s|prog=%016x", prefix, fp)
	}
	return fmt.Sprintf("%s|seed=%d|lats=%v", prefix, seed, lats)
}

// streamSource resolves the trial's gate stream and layout. Placement
// draws from the head of the trial's RNG stream exactly as the
// materialized path does; in spec mode the returned Source is
// SINGLE-USE — its Emit consumes the same RNG stream where placement
// left it, and the frontier kernels call Emit exactly once.
func (s *Stages) streamSource(seed int64) (circuit.Source, *ti.Layout, error) {
	r := stats.NewRand(seed)
	layout, err := s.cfg.Placement.Place(s.device, s.spec.Qubits, r)
	if err != nil {
		return circuit.Source{}, nil, err
	}
	if s.pl != nil && s.placeKey != "" {
		s.pl.place.Put(seedKey(s.placeKey, seed), layout)
	}
	if s.cfg.Circuit != nil {
		return s.cfg.Circuit.Source(), layout, nil
	}
	if s.cfg.Program != nil {
		return s.cfg.Program.Source(), layout, nil
	}
	sp, ok := s.cfg.Placer.(schedule.StreamPlacer)
	if !ok {
		// Validate rejects this up front; kept as a typed failure for
		// callers that skip Validate.
		return circuit.Source{}, nil, verr.Inputf(
			"core: placer %T cannot stream (no EmitPlace); disable Stream or pick a streaming placer", s.cfg.Placer)
	}
	spec, l := s.spec, layout
	return circuit.Source{
		Name:   spec.Name,
		Qubits: spec.Qubits,
		Emit: func(yield func(*circuit.Gate) error) error {
			e := circuit.NewEmitter(spec.Name, spec.Qubits, yield)
			if err := sp.EmitPlace(spec, l, r, e); err != nil {
				return err
			}
			return e.Err()
		},
	}, layout, nil
}

// streamSweep executes every trial through the streaming path, pricing
// all lats lanes per trial. It returns the per-trial lane results in
// trial order, the derived seeds, and trial 0's stream statistics (every
// trial of a deterministic workload streams the same gate counts; spec
// mode synthesizes per seed, where trial 0 is the conventional
// representative for report metadata).
func streamSweep(ctx context.Context, cfg Config, st *Stages, lats []perf.Latencies) ([][]perf.Result, []int64, perf.StreamStats, error) {
	perTrial := make([][]perf.Result, cfg.Runs)
	seeds := make([]int64, cfg.Runs)
	perStats := make([]perf.StreamStats, cfg.Runs)
	err := pool.Run(ctx, cfg.Workers, cfg.Runs, func(i int) error {
		seed := stats.SplitSeed(cfg.Seed, i)
		rs, sst, err := st.StreamEval(seed, lats)
		if err != nil {
			return fmt.Errorf("core: trial %d: %w", i, err)
		}
		seeds[i] = seed
		perTrial[i] = rs
		perStats[i] = sst
		return nil
	})
	if err != nil {
		return nil, nil, perf.StreamStats{}, err
	}
	return perTrial, seeds, perStats[0], nil
}

// runStreamTrials is the streaming counterpart of runTrials: one lane
// (cfg.Latencies) per trial.
func runStreamTrials(ctx context.Context, cfg Config, st *Stages) ([]TrialResult, perf.StreamStats, error) {
	perTrial, seeds, sst, err := streamSweep(ctx, cfg, st, []perf.Latencies{cfg.Latencies})
	if err != nil {
		return nil, perf.StreamStats{}, err
	}
	trials := make([]TrialResult, cfg.Runs)
	for i := range trials {
		trials[i] = TrialResult{Seed: seeds[i], Perf: perTrial[i][0]}
	}
	return trials, sst, nil
}

// fillStreamedSpec backfills report gate counts that a streamed Program
// cannot know up front: the spec carries the counts observed by the
// frontier kernel (identical across trials — Program emission is
// deterministic).
func fillStreamedSpec(cfg Config, spec circuit.Spec, sst perf.StreamStats) circuit.Spec {
	if cfg.Program != nil {
		spec.OneQubitGates = sst.OneQubitGates
		spec.TwoQubitGates = sst.TwoQubitGates
	}
	return spec
}
