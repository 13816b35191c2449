package main

// The anneal workloads: placement.AnnealLayout — the search behind
// placement.Annealed — over explicit circuits, on two instance groups kept
// in separate workloads so that a gain on one cannot hide a loss on the
// other. In the traced swap walk the delta evaluator costs more than a full
// re-evaluation on qft32 and less on sup64 and, by far, on sup576; an
// evaluator change has to show on both groups.
//
// One unit anneals every instance of the group once from a fresh random
// layout, the way placement.Annealed.Place does (base placement, evaluator
// build, search on one stream). Each returned cost must equal the full
// model's parallel time on the returned layout.

import (
	"fmt"
	"time"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// annealMoves is the swap budget per search, the annealed ablation's own.
const annealMoves = 20000

// walkSwaps is the length of the traced delta-evaluator swap walk.
const walkSwaps = 2000

// annealInstance is one circuit to place and the machine it is placed on.
type annealInstance struct {
	name string
	c    *circuit.Circuit
	d    *ti.Device
}

// ablationInstances are the annealed ablation's circuits on 16-ion chains.
func ablationInstances(seed int64) ([]annealInstance, error) {
	qft, err := apps.QFT(32)
	if err != nil {
		return nil, err
	}
	sup, err := apps.Supremacy(8, 8, 20, seed+1)
	if err != nil {
		return nil, err
	}
	return withDevices(16, annealInstance{name: "qft32", c: qft}, annealInstance{name: "sup64", c: sup})
}

// largeInstances is the 576-qubit Supremacy circuit on 8-ion chains.
func largeInstances(seed int64) ([]annealInstance, error) {
	sup, err := apps.Supremacy(24, 24, 40, seed+1)
	if err != nil {
		return nil, err
	}
	return withDevices(8, annealInstance{name: "sup576", c: sup})
}

func withDevices(chainLength int, insts ...annealInstance) ([]annealInstance, error) {
	for i := range insts {
		d, err := ti.DeviceFor(insts[i].c.NumQubits(), chainLength, ti.Ring)
		if err != nil {
			return nil, err
		}
		insts[i].d = d
	}
	return insts, nil
}

func runAnnealAblation(cfg runConfig) (*outcome, error) {
	return runAnneal(cfg, func() ([]annealInstance, error) { return ablationInstances(cfg.seed) })
}

func runAnnealLarge(cfg runConfig) (*outcome, error) {
	return runAnneal(cfg, func() ([]annealInstance, error) { return largeInstances(cfg.seed) })
}

// annealed is one search's output, kept for the oracle check.
type annealed struct {
	inst   annealInstance
	layout *ti.Layout
	cost   float64
}

// annealOnce runs one search of inst from the random layout of seed.
func annealOnce(inst annealInstance, seed int64) (annealed, error) {
	r := stats.NewRand(seed)
	start, err := placement.Random{}.Place(inst.d, inst.c.NumQubits(), r)
	if err != nil {
		return annealed{}, err
	}
	ev := perf.NewEvaluator(inst.c)
	l, cost, err := placement.AnnealLayout(ev, start, perf.WeakLink{}, perf.DefaultLatencies(), r, placement.AnnealOptions{Moves: annealMoves})
	if err != nil {
		return annealed{}, err
	}
	return annealed{inst: inst, layout: l, cost: cost}, nil
}

// checkAnnealed counts the searches whose reported cost differs from the
// full model's parallel time on the returned layout.
func checkAnnealed(results []annealed) (failed int, err error) {
	for _, a := range results {
		res, err := perf.Evaluate(a.inst.c, a.layout, perf.DefaultLatencies())
		if err != nil {
			return 0, err
		}
		if res.ParallelMicros != a.cost {
			failed++
		}
	}
	return failed, nil
}

func runAnneal(cfg runConfig, build func() ([]annealInstance, error)) (*outcome, error) {
	insts, setups, err := repeatSetup(build, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{setups: setups}
	var results []annealed
	unit := func(i int) error {
		for _, inst := range insts {
			a, err := annealOnce(inst, stats.SplitSeed(cfg.seed, i))
			if err != nil {
				return err
			}
			results = append(results, a)
		}
		return nil
	}
	if !cfg.traced {
		if o.units, err = measure(cfg, 3, o, unit); err != nil {
			return nil, err
		}
		o.attempted = len(results)
		if o.failed, err = checkAnnealed(results); err != nil {
			return nil, err
		}
		moves := float64(len(o.units) * len(insts) * annealMoves)
		total := 0.0
		for _, u := range o.units {
			total += u.Seconds()
		}
		fmt.Fprintf(cfg.log, "anneal: %d units over %d instances, %.0f moves/s\n", len(o.units), len(insts), moves/total)
		return o, nil
	}

	tr := newTracer()
	o.layers = map[string]metric{}
	for _, inst := range insts {
		// Half the window anneals; the swap walk is short.
		var searches []time.Duration
		slice := cfg
		slice.seconds = cfg.seconds / 2 / float64(len(insts))
		searches, err = measure(slice, 1, nil, func(i int) error {
			var a annealed
			err := tr.do("search.anneal", 0, len(results)+1, func() (err error) {
				a, err = annealOnce(inst, stats.SplitSeed(cfg.seed, i))
				return err
			})
			results = append(results, a)
			return err
		})
		if err != nil {
			return nil, err
		}
		o.layers["search.move_us."+inst.name] = metric{Value: median(seconds64(searches)) / annealMoves * 1e6, Unit: "us"}
		w, err := swapWalk(tr, inst, cfg.seed)
		if err != nil {
			return nil, err
		}
		o.attempted += walkSwaps
		o.failed += w.mismatches
		o.layers["search.delta_swap_us."+inst.name] = metric{Value: w.delta.Seconds() / walkSwaps * 1e6, Unit: "us"}
		o.layers["search.full_cost_us."+inst.name] = metric{Value: w.full.Seconds() / walkSwaps * 1e6, Unit: "us"}
		o.layers["search.cone_fallback_frac."+inst.name] = metric{Value: float64(w.fallbacks) / walkSwaps, Unit: "ratio"}
	}
	o.attempted += len(results)
	failed, err := checkAnnealed(results)
	if err != nil {
		return nil, err
	}
	o.failed += failed
	o.spans = tr.spans
	return o, nil
}

// walk is the outcome of one seeded swap walk.
type walk struct {
	delta, full time.Duration
	fallbacks   int
	mismatches  int
}

// swapWalk applies walkSwaps random cross-chain swaps to a delta
// evaluator, timing each incremental Swap+Cost against a from-scratch
// FullCost of the same assignment; the two costs must agree bit for bit.
// The walk keeps every swap, while the annealer reverts most of its moves,
// so its per-swap costs are not the annealer's per-move cost.
func swapWalk(tr *tracer, inst annealInstance, seed int64) (walk, error) {
	r := stats.NewRand(stats.SplitSeed(seed, -1))
	start, err := placement.Random{}.Place(inst.d, inst.c.NumQubits(), r)
	if err != nil {
		return walk{}, err
	}
	de, err := perf.NewDeltaEval(perf.NewEvaluator(inst.c), start, perf.WeakLink{}, perf.DefaultLatencies())
	if err != nil {
		return walk{}, err
	}
	var w walk
	n := de.NumQubits()
	root := tr.begin("search.walk", 0, 0)
	for i := 0; i < walkSwaps; i++ {
		a, b := r.Intn(n), r.Intn(n)
		for de.SameChain(a, b) {
			a, b = r.Intn(n), r.Intn(n)
		}
		var inc, full float64
		id := tr.begin("search.delta_swap", root, i+1)
		_, err := de.Swap(a, b)
		if err == nil {
			inc = de.Cost()
		}
		tr.end(id)
		w.delta += tr.dur(id)
		if err != nil {
			return walk{}, err
		}
		id = tr.begin("search.full_cost", root, i+1)
		full, err = de.FullCost()
		tr.end(id)
		w.full += tr.dur(id)
		if err != nil {
			return walk{}, err
		}
		if inc != full {
			w.mismatches++
		}
	}
	tr.end(root)
	w.fallbacks = de.FullRecomputes()
	return w, nil
}
