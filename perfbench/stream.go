package main

// The stream workload: the memory-bounded evaluation path on both timing
// backends. Here the Time layer runs as a per-qubit frontier over a few
// huge circuits instead of many small bound ones, and peak memory must not
// grow with the gate count.
//
// One unit streams one trial of each of four configurations through
// core.RunContext: the QFT generator program at 633 qubits (just past 10^6
// gates) and a spec-mode random circuit synthesized while it streams (256
// qubits, 10^6 two-qubit and 5·10^5 one-qubit gates), each priced by the
// weak-link and the shuttle backend. The oracle runs reduced-size
// instances of the same generators both streamed and materialized; gate
// counts and every time must agree.

import (
	"context"
	"fmt"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// streamChain is the chain length every stream configuration runs on.
const streamChain = 16

// streamCase is one workload form priced by one backend.
type streamCase struct {
	name    string
	backend perf.TimingBackend
	prog    *circuit.Program
	spec    circuit.Spec
}

// config is the case's single-trial streaming core.Config at seed.
func (c streamCase) config(seed int64, stream bool) core.Config {
	cfg := core.Config{ChainLength: streamChain, Backend: c.backend, Runs: 1, Seed: seed, Stream: stream}
	if c.prog != nil {
		cfg.Program = c.prog
	} else {
		cfg.Spec = c.spec
		cfg.Placer = schedule.Random{}
	}
	return cfg
}

// streamCases builds the four configurations at full size (qftQubits 633,
// randGates 10^6) or a reduced size for the oracle.
func streamCases(qftQubits, randGates int) ([]streamCase, error) {
	qft, err := apps.QFTProgram(qftQubits)
	if err != nil {
		return nil, err
	}
	spec := circuit.Spec{Name: fmt.Sprintf("random256-%d", randGates), Qubits: 256, OneQubitGates: randGates / 2, TwoQubitGates: randGates}
	var cases []streamCase
	for _, be := range []perf.TimingBackend{perf.WeakLink{}, shuttle.Backend{Params: shuttle.Default()}} {
		cases = append(cases,
			streamCase{name: "qft/" + be.Name(), backend: be, prog: &qft},
			streamCase{name: "random/" + be.Name(), backend: be, spec: spec})
	}
	return cases, nil
}

// sameResults reports whether two reports agree on gate counts and on
// every trial's times and counts. Critical paths are not compared: the
// streaming path does not recover them.
func sameResults(a, b *core.Report) bool {
	if a.Spec != b.Spec || len(a.Trials) != len(b.Trials) {
		return false
	}
	for i := range a.Trials {
		if a.Trials[i].Seed != b.Trials[i].Seed || !samePerf(a.Trials[i].Perf, b.Trials[i].Perf) {
			return false
		}
	}
	return true
}

// samePerf compares two trial results, critical paths aside.
func samePerf(x, y perf.Result) bool {
	return x.SerialMicros == y.SerialMicros && x.SerialPerGateMicros == y.SerialPerGateMicros &&
		x.ParallelMicros == y.ParallelMicros && x.WeakGates == y.WeakGates && x.LinksUsed == y.LinksUsed
}

// streamOracle runs each reduced case streamed and materialized at seed
// and counts the disagreements.
func streamOracle(ctx context.Context, cases []streamCase, seed int64) (int, error) {
	failed := 0
	for _, c := range cases {
		cfg := c.config(seed, true)
		cfg.Runs = 3
		streamed, err := core.RunContext(ctx, cfg)
		if err != nil {
			return 0, err
		}
		cfg.Stream = false
		materialized, err := core.RunContext(ctx, cfg)
		if err != nil {
			return 0, err
		}
		if !sameResults(streamed, materialized) {
			failed++
		}
	}
	return failed, nil
}

func runStream(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	// Set-up builds the full-size cases. The oracle then proves the
	// streaming path on reduced instances, untimed, before the first
	// timed operation.
	full, setups, err := repeatSetup(func() ([]streamCase, error) { return streamCases(633, 1_000_000) }, nil)
	if err != nil {
		return nil, err
	}
	reduced, err := streamCases(24, 2_000)
	if err != nil {
		return nil, err
	}
	oracleFailed, err := streamOracle(ctx, reduced, cfg.seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{setups: setups, attempted: len(reduced), failed: oracleFailed}
	// gates records each case's streamed gate count from the first unit;
	// every later unit must stream the same count.
	gates := map[string]int{}
	var reports []*core.Report
	unit := func(i int) error {
		reports = reports[:0]
		for _, c := range full {
			rep, err := core.RunContext(ctx, c.config(stats.SplitSeed(cfg.seed, i), true))
			if err != nil {
				return err
			}
			reports = append(reports, rep)
		}
		return nil
	}
	checkUnit := func() {
		for k, c := range full {
			n := reports[k].Spec.TotalGates()
			o.attempted++
			if want, ok := gates[c.name]; (ok && n != want) || n < 1_000_000 {
				o.failed++
			}
			gates[c.name] = n
		}
	}
	if !cfg.traced {
		o.units, err = measure(cfg, 3, o, func(i int) error {
			if err := unit(i); err != nil {
				return err
			}
			checkUnit()
			return nil
		})
		if err != nil {
			return nil, err
		}
		total := 0
		for _, c := range full {
			total += gates[c.name]
		}
		fmt.Fprintf(cfg.log, "stream: %d units of %d gates each\n", len(o.units), total)
		return o, nil
	}

	// Traced: one untraced unit is the reference; the traced pass drives
	// the same trials through the frontier kernels directly and must
	// reproduce them bit for bit.
	if err := unit(0); err != nil {
		return nil, err
	}
	checkUnit()
	tr := newTracer()
	// ns and perGates accumulate per span kind: "emit" and each backend.
	ns, perGates := map[string]float64{}, map[string]float64{}
	for k, c := range full {
		trialSeed := stats.SplitSeed(stats.SplitSeed(cfg.seed, 0), 0)
		group := k + 1
		src, layout, err := streamSource(c, trialSeed)
		if err != nil {
			return nil, err
		}
		// Emission alone: drain the generator without pricing.
		n := 0
		id := tr.begin("stream.emit", 0, group)
		err = src.Emit(func(*circuit.Gate) error { n++; return nil })
		tr.end(id)
		if err != nil {
			return nil, err
		}
		ns["emit"] += float64(tr.dur(id).Nanoseconds())
		perGates["emit"] += float64(n)
		// The emission above consumed a spec-mode source's stream; rebuild.
		if src, layout, err = streamSource(c, trialSeed); err != nil {
			return nil, err
		}
		timer := c.backend.(perf.SourceTimer)
		var rs []perf.Result
		id = tr.begin("stream.time."+c.backend.Name(), 0, group)
		rs, _, err = timer.StreamTimeAll(src, layout, []perf.Latencies{perf.DefaultLatencies()})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		ns[c.backend.Name()] += float64(tr.dur(id).Nanoseconds())
		perGates[c.backend.Name()] += float64(n)
		ref := reports[k].Trials[0]
		o.attempted++
		if ref.Seed != trialSeed || !samePerf(rs[0], ref.Perf) {
			o.failed++
		}
	}
	matNs, matGates, err := materializedTime(tr, cfg.seed)
	if err != nil {
		return nil, err
	}
	o.spans = tr.spans
	o.layers = map[string]metric{
		"stream.emit_ns_per_gate":         {Value: ns["emit"] / perGates["emit"], Unit: "ns"},
		"stream.ns_per_gate.weaklink":     {Value: ns["weaklink"] / perGates["weaklink"], Unit: "ns"},
		"stream.ns_per_gate.shuttle":      {Value: ns["shuttle"] / perGates["shuttle"], Unit: "ns"},
		"stream.materialized_ns_per_gate": {Value: matNs / matGates, Unit: "ns"},
	}
	return o, nil
}

// streamSource rebuilds the gate stream and layout one streaming trial
// prices, on the trial's single RNG stream: placement first, then — in
// spec mode — the placer's emission over what placement left behind.
// A spec-mode source is single-use.
func streamSource(c streamCase, trialSeed int64) (circuit.Source, *ti.Layout, error) {
	q := c.spec.Qubits
	if c.prog != nil {
		q = c.prog.Qubits
	}
	d, err := ti.DeviceFor(q, streamChain, ti.Ring)
	if err != nil {
		return circuit.Source{}, nil, err
	}
	r := stats.NewRand(trialSeed)
	layout, err := placement.Random{}.Place(d, q, r)
	if err != nil {
		return circuit.Source{}, nil, err
	}
	if c.prog != nil {
		return c.prog.Source(), layout, nil
	}
	spec := c.spec
	return circuit.Source{Name: spec.Name, Qubits: spec.Qubits, Emit: func(yield func(*circuit.Gate) error) error {
		e := circuit.NewEmitter(spec.Name, spec.Qubits, yield)
		if err := (schedule.Random{}).EmitPlace(spec, layout, r, e); err != nil {
			return err
		}
		return e.Err()
	}}, layout, nil
}

// materializedTime times Binding.TimeAll on a materialized 10^5-gate
// instance of the spec-mode generator: the per-gate reference the
// streaming kernel is measured against.
func materializedTime(tr *tracer, seed int64) (ns, gates float64, err error) {
	spec := circuit.Spec{Name: "random256-100000", Qubits: 256, OneQubitGates: 100_000 / 3, TwoQubitGates: 100_000 - 100_000/3}
	d, err := ti.DeviceFor(spec.Qubits, streamChain, ti.Ring)
	if err != nil {
		return 0, 0, err
	}
	r := stats.NewRand(stats.SplitSeed(seed, 0))
	layout, err := placement.Random{}.Place(d, spec.Qubits, r)
	if err != nil {
		return 0, 0, err
	}
	c, err := schedule.Random{}.Place(spec, layout, r)
	if err != nil {
		return 0, 0, err
	}
	b, err := perf.NewEvaluator(c).Bind(layout)
	if err != nil {
		return 0, 0, err
	}
	lats := []perf.Latencies{perf.DefaultLatencies()}
	// The first TimeAll on a fresh binding also builds its labels; time a
	// second call, as a repeated sweep pays it.
	if _, err := b.TimeAll(lats); err != nil {
		return 0, 0, err
	}
	id := tr.begin("stream.materialized_time", 0, 0)
	_, err = b.TimeAll(lats)
	tr.end(id)
	return float64(tr.dur(id).Nanoseconds()), float64(c.NumGates()), err
}
