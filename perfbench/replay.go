package main

// The traced replay of one repro pass. core.Stages.Bind re-runs placement
// and synthesis inside the pipeline, so a span around it could not tell the
// layers apart. The replay instead walks every trial of every driver in the
// drivers' order through the lower-level public entry points, on the one
// RNG stream core.Stages.trial uses (placement first, then the gate placer
// over what placement left of the stream), and it reuses a bound trial
// exactly where the pipeline's bind cache would. The replayed numbers are
// rendered through the expt result types and must equal the untraced pass
// byte for byte.

import (
	"fmt"
	"math/rand"
	"time"

	"velociti/internal/apps"
	"velociti/internal/cache"
	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/expt"
	"velociti/internal/fidelity"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/workload"
)

// replayResult is one traced replay.
type replayResult struct {
	tr  *tracer
	csv map[string]string
	// table1LinksMean is Table I's one computed trial statistic.
	table1LinksMean float64
}

// replayer holds the replay's state: the tracer, the emulated bind cache,
// and the next trial group id.
type replayer struct {
	tr    *tracer
	seed  int64
	runs  int
	lat   perf.Latencies
	binds map[string]*perf.Binding
	group int
}

// cellStats summarizes one data point's trials like core's report does.
type cellStats struct {
	serial, parallel, weak, links stats.Summary
}

func (c cellStats) speedup() float64 {
	if c.parallel.Mean == 0 {
		return 0
	}
	return c.serial.Mean / c.parallel.Mean
}

func summarize(rs []perf.Result) cellStats {
	var serial, parallel, weak, links []float64
	for _, r := range rs {
		serial = append(serial, r.SerialMicros)
		parallel = append(parallel, r.ParallelMicros)
		weak = append(weak, float64(r.WeakGates))
		links = append(links, float64(r.LinksUsed))
	}
	return cellStats{serial: stats.Summarize(serial), parallel: stats.Summarize(parallel),
		weak: stats.Summarize(weak), links: stats.Summarize(links)}
}

// trialSpan opens the root span of one trial.
func (rp *replayer) trialSpan(cell int) int {
	rp.group++
	return rp.tr.begin("core.trial", cell, rp.group)
}

// bindSpec binds one spec-mode trial: placement and synthesis on one RNG
// stream, then evaluator build, bind, and the backend's Prepare — unless
// the pipeline's bind cache would already hold the artifact.
func (rp *replayer) bindSpec(spec circuit.Spec, d *ti.Device, placer schedule.Placer, seed int64, parent int) (*perf.Binding, error) {
	key := fmt.Sprintf("spec=%q/q%d/1q%d/2q%d|%s/L%d/c%d|placer=%s|seed=%d",
		spec.Name, spec.Qubits, spec.OneQubitGates, spec.TwoQubitGates,
		d.Topology(), d.ChainLength(), d.NumChains(), placer.(cache.Keyer).CacheKey(), seed)
	if b, ok := rp.binds[key]; ok {
		return b, nil
	}
	tr, g := rp.tr, rp.group
	r := stats.NewRand(seed)
	var layout *ti.Layout
	var c *circuit.Circuit
	var ev *perf.Evaluator
	var b *perf.Binding
	err := tr.do("placement.place", parent, g, func() (err error) {
		layout, err = placement.Random{}.Place(d, spec.Qubits, r)
		return err
	})
	if err == nil {
		err = tr.do("schedule.synth", parent, g, func() (err error) {
			c, err = placer.Place(spec, layout, r)
			return err
		})
	}
	if err == nil {
		tr.do("perf.build", parent, g, func() error { ev = perf.NewEvaluator(c); return nil })
		err = tr.do("perf.bind", parent, g, func() (err error) {
			if b, err = ev.Bind(layout); err != nil {
				return err
			}
			return perf.WeakLink{}.Prepare(b, layout)
		})
	}
	if err != nil {
		return nil, err
	}
	tr.counts["placement.calls"]++
	tr.counts["schedule.gates"] += float64(c.NumGates())
	tr.counts["perf.bind.calls"]++
	rp.binds[key] = b
	return b, nil
}

// timeAll prices one binding under lats, as core's Time stage does.
func (rp *replayer) timeAll(b *perf.Binding, lats []perf.Latencies, parent int) ([]perf.Result, error) {
	var rs []perf.Result
	err := rp.tr.do("perf.time", parent, rp.group, func() (err error) {
		if len(lats) == 1 {
			var r perf.Result
			r, err = perf.WeakLink{}.Time(b, lats[0])
			rs = []perf.Result{r}
			return err
		}
		rs, err = perf.WeakLink{}.TimeAll(b, lats)
		return err
	})
	rp.tr.counts["perf.time.gate_lanes"] += float64(b.NumGates() * len(lats))
	return rs, err
}

// specCell replays one core.Run (one lat) or core.RunSweep (several lats)
// data point in spec mode; out[j] holds lane j's trials.
func (rp *replayer) specCell(spec circuit.Spec, L int, topo ti.Topology, placer schedule.Placer, lats []perf.Latencies) ([][]perf.Result, error) {
	cell := rp.tr.begin("core.cell", 0, 0)
	defer rp.tr.end(cell)
	d, err := ti.DeviceFor(spec.Qubits, L, topo)
	if err != nil {
		return nil, err
	}
	out := make([][]perf.Result, len(lats))
	for i := 0; i < rp.runs; i++ {
		t := rp.trialSpan(cell)
		b, err := rp.bindSpec(spec, d, placer, stats.SplitSeed(rp.seed, i), t)
		if err != nil {
			return nil, err
		}
		rs, err := rp.timeAll(b, lats, t)
		if err != nil {
			return nil, err
		}
		rp.tr.end(t)
		for j := range lats {
			out[j] = append(out[j], rs[j])
		}
	}
	return out, nil
}

// run1 replays a single-lat spec-mode data point at the default timing.
func (rp *replayer) run1(spec circuit.Spec, L int, topo ti.Topology, placer schedule.Placer) (cellStats, error) {
	rs, err := rp.specCell(spec, L, topo, placer, []perf.Latencies{rp.lat})
	if err != nil {
		return cellStats{}, err
	}
	return summarize(rs[0]), nil
}

// explicitCell replays one explicit-circuit data point under a placement
// policy: the circuit's evaluator is built once per run, as core.Stages
// does, and each trial places and binds against it.
func (rp *replayer) explicitCell(c *circuit.Circuit, L int, pol placement.Policy) (cellStats, error) {
	cell := rp.tr.begin("core.cell", 0, 0)
	defer rp.tr.end(cell)
	d, err := ti.DeviceFor(c.NumQubits(), L, ti.Ring)
	if err != nil {
		return cellStats{}, err
	}
	var ev *perf.Evaluator
	rp.tr.do("perf.build", cell, 0, func() error { ev = perf.NewEvaluator(c); return nil })
	var rs []perf.Result
	for i := 0; i < rp.runs; i++ {
		t := rp.trialSpan(cell)
		seed := stats.SplitSeed(rp.seed, i)
		var layout *ti.Layout
		var b *perf.Binding
		err := rp.tr.do("placement.place", t, rp.group, func() (err error) {
			layout, err = pol.Place(d, c.NumQubits(), stats.NewRand(seed))
			return err
		})
		if err == nil {
			err = rp.tr.do("perf.bind", t, rp.group, func() (err error) {
				if b, err = ev.Bind(layout); err != nil {
					return err
				}
				return perf.WeakLink{}.Prepare(b, layout)
			})
		}
		if err != nil {
			return cellStats{}, err
		}
		rp.tr.counts["placement.calls"]++
		rp.tr.counts["perf.bind.calls"]++
		r, err := rp.timeAll(b, []perf.Latencies{rp.lat}, t)
		if err != nil {
			return cellStats{}, err
		}
		rp.tr.end(t)
		rs = append(rs, r[0])
	}
	return summarize(rs), nil
}

// synthTrial runs the coupled place+synth path of the drivers that keep
// their own trial loop (control capacity, communication) on stream r.
func (rp *replayer) synthTrial(spec circuit.Spec, d *ti.Device, r *rand.Rand, parent int) (*ti.Layout, *circuit.Circuit, error) {
	var layout *ti.Layout
	var c *circuit.Circuit
	err := rp.tr.do("placement.place", parent, rp.group, func() (err error) {
		layout, err = placement.Random{}.Place(d, spec.Qubits, r)
		return err
	})
	if err == nil {
		err = rp.tr.do("schedule.synth", parent, rp.group, func() (err error) {
			c, err = schedule.Random{}.Place(spec, layout, r)
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	rp.tr.counts["placement.calls"]++
	rp.tr.counts["schedule.gates"] += float64(c.NumGates())
	return layout, c, nil
}

// replayRepro replays one repro pass at seed under the tracer.
func replayRepro(seed int64) (*replayResult, error) {
	rp := &replayer{tr: newTracer(), seed: seed, runs: core.DefaultRuns, lat: perf.DefaultLatencies(), binds: map[string]*perf.Binding{}}
	res := &replayResult{tr: rp.tr, csv: map[string]string{}}
	specs := apps.PaperSpecs()
	random := schedule.Random{}

	t1, err := rp.run1(specs[3], 16, ti.Ring, random)
	if err != nil {
		return nil, err
	}
	res.table1LinksMean = t1.links.Mean

	fig6 := &expt.Fig6Result{}
	for _, spec := range specs {
		s, err := rp.run1(spec, 16, ti.Ring, random)
		if err != nil {
			return nil, err
		}
		fig6.Rows = append(fig6.Rows, expt.Fig6Row{App: spec.Name, Serial: s.serial, Parallel: s.parallel, Speedup: s.speedup()})
	}
	res.csv["fig6"] = fig6.CSV()

	fig7 := &expt.Fig7Result{ChainLengths: expt.Fig7ChainLengths}
	for _, spec := range specs {
		row := expt.Fig7Row{App: spec.Name}
		for _, L := range expt.Fig7ChainLengths {
			s, err := rp.run1(spec, L, ti.Ring, random)
			if err != nil {
				return nil, err
			}
			row.Parallel = append(row.Parallel, s.parallel)
		}
		if last := row.Parallel[len(row.Parallel)-1].Mean; last > 0 {
			row.Speedup8to32 = row.Parallel[0].Mean/last - 1
		}
		fig7.Rows = append(fig7.Rows, row)
	}
	res.csv["fig7"] = fig7.CSV()

	qv, err := workload.QVSweep(8, 128, 20)
	if err != nil {
		return nil, err
	}
	ratio, err := workload.RatioSweep(8, 128, 20, 2)
	if err != nil {
		return nil, err
	}
	alphaLats := make([]perf.Latencies, len(expt.ScalingAlphas))
	for j, a := range expt.ScalingAlphas {
		alphaLats[j] = rp.lat
		alphaLats[j].WeakPenalty = a
	}
	for _, fig := range []struct {
		name  string
		specs []circuit.Spec
	}{{"fig8", qv}, {"fig9", ratio}} {
		sr := &expt.ScalingResult{}
		for _, spec := range fig.specs {
			var chain, alpha []stats.Summary
			for _, L := range expt.ScalingChainLengths {
				s, err := rp.run1(spec, L, ti.Ring, random)
				if err != nil {
					return nil, err
				}
				chain = append(chain, s.parallel)
			}
			lanes, err := rp.specCell(spec, 32, ti.Ring, random, alphaLats)
			if err != nil {
				return nil, err
			}
			for _, lane := range lanes {
				alpha = append(alpha, summarize(lane).parallel)
			}
			sr.Qubits = append(sr.Qubits, spec.Qubits)
			sr.ByChain = append(sr.ByChain, chain)
			sr.ByAlpha = append(sr.ByAlpha, alpha)
		}
		res.csv[fig.name] = sr.CSV()
	}

	if res.csv["ext-fidelity"], err = rp.fidelity(specs); err != nil {
		return nil, err
	}
	if res.csv["ext-capacity"], err = rp.capacity(specs); err != nil {
		return nil, err
	}
	if res.csv["ablation-comm"], err = rp.comm(specs[1]); err != nil {
		return nil, err
	}

	sched := &expt.AblationResult{}
	for _, placer := range schedule.All(rp.lat) {
		s, err := rp.run1(specs[1], 16, ti.Ring, placer)
		if err != nil {
			return nil, err
		}
		sched.Rows = append(sched.Rows, ablationRow(placer.Name(), s))
	}
	res.csv["ablation-schedulers"] = sched.CSV()

	sup, err := apps.Supremacy(8, 8, 20, seed+1)
	if err != nil {
		return nil, err
	}
	ig := sup.InteractionGraph()
	pl := &expt.AblationResult{}
	for _, v := range []struct {
		name string
		pol  placement.Policy
	}{
		{"random", placement.Random{}},
		{"sequential", placement.Sequential{}},
		{"interaction-aware", placement.InteractionAware{Interactions: ig}},
		{"refined(random)", placement.Refined{Interactions: ig}},
		{"refined(greedy)", placement.Refined{Base: placement.InteractionAware{Interactions: ig}, Interactions: ig}},
	} {
		s, err := rp.explicitCell(sup, 16, v.pol)
		if err != nil {
			return nil, err
		}
		pl.Rows = append(pl.Rows, ablationRow(v.name, s))
	}
	res.csv["ablation-placement"] = pl.CSV()

	topo := &expt.AblationResult{}
	spec64 := circuit.Spec{Name: "ratio2-64q", Qubits: 64, OneQubitGates: 64, TwoQubitGates: 128}
	for _, t := range []ti.Topology{ti.Ring, ti.Line} {
		s, err := rp.run1(spec64, 16, t, schedule.EdgeConstrained{})
		if err != nil {
			return nil, err
		}
		topo.Rows = append(topo.Rows, ablationRow(t.String(), s))
	}
	res.csv["ablation-topology"] = topo.CSV()
	return res, nil
}

func ablationRow(variant string, s cellStats) expt.AblationRow {
	return expt.AblationRow{Variant: variant, Parallel: s.parallel, WeakGates: s.weak, Speedup: s.speedup()}
}

// fidelity replays the fidelity extension: Figure 7's grid, bound through
// the (by now warm) bind cache and priced by the batched estimator.
func (rp *replayer) fidelity(specs []circuit.Spec) (string, error) {
	model, err := fidelity.NewEstimator(fidelity.Default())
	if err != nil {
		return "", err
	}
	fr := &expt.FidelityResult{ChainLengths: expt.Fig7ChainLengths}
	for _, spec := range specs {
		row := expt.FidelityRow{App: spec.Name}
		for _, L := range expt.Fig7ChainLengths {
			cell := rp.tr.begin("core.cell", 0, 0)
			d, err := ti.DeviceFor(spec.Qubits, L, ti.Ring)
			if err != nil {
				return "", err
			}
			var parSum, logSum, errSum float64
			for i := 0; i < rp.runs; i++ {
				t := rp.trialSpan(cell)
				b, err := rp.bindSpec(spec, d, schedule.Random{}, stats.SplitSeed(rp.seed, i), t)
				if err != nil {
					return "", err
				}
				var est fidelity.Estimate
				err = rp.tr.do("fidelity.estimate", t, rp.group, func() (err error) {
					est, err = model.EstimateOne(b, rp.lat)
					return err
				})
				if err != nil {
					return "", err
				}
				rp.tr.end(t)
				parSum += est.MakespanMicros
				logSum += est.LogTotal
				errSum += est.ExpectedErrors
			}
			rp.tr.end(cell)
			n := float64(rp.runs)
			row.ParallelMs = append(row.ParallelMs, parSum/n/1000)
			row.LogFidelity = append(row.LogFidelity, logSum/n)
			row.ExpectedErrors = append(row.ExpectedErrors, errSum/n)
		}
		fr.Rows = append(fr.Rows, row)
	}
	return fr.CSV(), nil
}

// capacity replays the control-capacity extension's own trial loop.
func (rp *replayer) capacity(specs []circuit.Spec) (string, error) {
	cr := &expt.CapacityResult{Levels: expt.CapacityLevels}
	for _, spec := range specs {
		cell := rp.tr.begin("core.cell", 0, 0)
		d, err := ti.DeviceFor(spec.Qubits, 16, ti.Ring)
		if err != nil {
			return "", err
		}
		sums := make([]float64, len(expt.CapacityLevels))
		for i := 0; i < rp.runs; i++ {
			t := rp.trialSpan(cell)
			// The driver draws from a pooled generator; its stream equals
			// a fresh one's.
			r := stats.PooledRand(stats.SplitSeed(rp.seed, i))
			layout, c, err := rp.synthTrial(spec, d, r, t)
			stats.RecycleRand(r)
			if err != nil {
				return "", err
			}
			var ts []float64
			err = rp.tr.do("perf.constrained", t, rp.group, func() (err error) {
				ts, err = perf.ParallelTimeConstrainedAll(c, layout, rp.lat, expt.CapacityLevels)
				return err
			})
			if err != nil {
				return "", err
			}
			rp.tr.end(t)
			for k, v := range ts {
				sums[k] += v
			}
		}
		rp.tr.end(cell)
		row := expt.CapacityRow{App: spec.Name}
		for _, s := range sums {
			row.ParallelMs = append(row.ParallelMs, s/float64(rp.runs)/1000)
		}
		cr.Rows = append(cr.Rows, row)
	}
	return cr.CSV(), nil
}

// comm replays the communication ablation: each trial synthesized once,
// then compared under every α of the extended sweep.
func (rp *replayer) comm(spec circuit.Spec) (string, error) {
	cell := rp.tr.begin("core.cell", 0, 0)
	defer rp.tr.end(cell)
	params := shuttle.Default()
	d, err := ti.DeviceFor(spec.Qubits, 16, ti.Ring)
	if err != nil {
		return "", err
	}
	type trial struct {
		c      *circuit.Circuit
		layout *ti.Layout
		group  int
	}
	trials := make([]trial, rp.runs)
	for i := range trials {
		t := rp.trialSpan(cell)
		layout, c, err := rp.synthTrial(spec, d, stats.NewRand(stats.SplitSeed(rp.seed, i)), t)
		if err != nil {
			return "", err
		}
		rp.tr.end(t)
		trials[i] = trial{c: c, layout: layout, group: rp.group}
	}
	cr := &expt.CommResult{}
	for _, alpha := range append(append([]float64{}, expt.ScalingAlphas...), 3.0, 4.0, 5.0) {
		lat := rp.lat
		lat.WeakPenalty = alpha
		var weakSum, shuttleSum float64
		for _, tr := range trials {
			var cmp shuttle.Result
			err := rp.tr.do("shuttle.compare", cell, tr.group, func() (err error) {
				cmp, err = shuttle.Compare(tr.c, tr.layout, lat, params)
				return err
			})
			if err != nil {
				return "", err
			}
			weakSum += cmp.WeakLinkMicros
			shuttleSum += cmp.ShuttleMicros
		}
		row := expt.CommRow{Alpha: alpha, WeakMs: weakSum / float64(rp.runs) / 1000, ShuttleMs: shuttleSum / float64(rp.runs) / 1000}
		if row.WeakMs <= row.ShuttleMs {
			row.Winner = "weak link"
		} else {
			row.Winner = "shuttling"
		}
		cr.Rows = append(cr.Rows, row)
	}
	return cr.CSV(), nil
}

// reproLayers turns a replay's spans and counters plus the untraced pass's
// cache counters into the per-layer metrics.
func reproLayers(rp *replayResult, st core.StageStats, untracedS, tracedS float64) map[string]metric {
	self := selfTimes(rp.tr.spans)
	sec := func(name string) float64 { return self[name].Seconds() }
	layers := map[string]metric{}
	var layerSum time.Duration
	for _, name := range []string{"placement.place", "schedule.synth", "perf.build", "perf.bind",
		"perf.time", "perf.constrained", "shuttle.compare", "fidelity.estimate"} {
		layers[name+"_s"] = metric{Value: sec(name), Unit: "s"}
		layerSum += self[name]
	}
	for _, key := range []string{"placement.calls", "schedule.gates", "perf.bind.calls"} {
		layers[key] = metric{Value: rp.tr.counts[key], Unit: "count"}
	}
	if lanes := rp.tr.counts["perf.time.gate_lanes"]; lanes > 0 {
		layers["perf.time.ns_per_gate_lane"] = metric{Value: float64(self["perf.time"].Nanoseconds()) / lanes, Unit: "ns"}
	}
	layers["core.other_s"] = metric{Value: untracedS - layerSum.Seconds(), Unit: "s"}
	layers["trace.overhead_s"] = metric{Value: tracedS - untracedS, Unit: "s"}
	addCacheLayers(layers, st)
	return layers
}

// addCacheLayers reports the pipeline's per-stage hit ratios and evictions.
func addCacheLayers(layers map[string]metric, st core.StageStats) {
	for _, c := range []struct {
		name string
		s    cache.Stats
	}{{"place", st.Place}, {"synth", st.Synthesize}, {"search", st.Search}, {"bind", st.Bind}, {"stream", st.Stream}} {
		ratio := 0.0
		if n := c.s.Hits + c.s.Misses; n > 0 {
			ratio = float64(c.s.Hits) / float64(n)
		}
		layers["cache."+c.name+".hit_ratio"] = metric{Value: ratio, Unit: "ratio"}
		layers["cache."+c.name+".evictions"] = metric{Value: float64(c.s.Evictions), Unit: "count"}
	}
}
