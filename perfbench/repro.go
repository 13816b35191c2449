package main

// The repro workload: the paper's evaluation as velociti-repro runs it —
// Tables I–III, Figures 6–9, the fidelity and control-capacity extensions,
// and the communication, scheduler, placement and topology ablations — at
// the paper's 35 trials per point over one shared core.Pipeline per pass.
// Figure 5 is left out because its column is a wall clock, and the annealed
// ablation because search has its own workloads.
//
// Untraced, one unit is one full pass through the expt drivers. Traced,
// the pass is replayed trial by trial through the layers' public entry
// points (see replay.go), and the replay must render the same bytes.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/expt"
	"velociti/internal/perf"
	"velociti/internal/ti"
)

// committedSeed is the master seed the committed results/*.csv were
// generated with (velociti-repro's default).
const committedSeed = 1

// reproCSVs names the committed CSVs a pass regenerates, in run order.
var reproCSVs = []string{
	"fig6", "fig7", "fig8", "fig9", "ext-fidelity", "ext-capacity",
	"ablation-comm", "ablation-schedulers", "ablation-placement", "ablation-topology",
}

// reproOutput is what one pass renders.
type reproOutput struct {
	// text holds the text-only tables (Tables I–III).
	text []string
	// csv maps each reproCSVs name to its rendering.
	csv   map[string]string
	stats core.StageStats
}

// reproPass runs the evaluation once through the expt drivers, in
// velociti-repro's order, over the shared pipeline pl.
func reproPass(ctx context.Context, seed int64, pl *core.Pipeline) (*reproOutput, error) {
	opt := expt.Options{Runs: core.DefaultRuns, Seed: seed, Workers: 1, Pipeline: pl, Backend: perf.WeakLink{}}
	out := &reproOutput{csv: map[string]string{}}
	t1, err := expt.TableIContext(ctx, opt, apps.PaperSpecs()[3], 16)
	if err != nil {
		return nil, err
	}
	out.text = append(out.text, t1, expt.TableII(), expt.TableIII(perf.DefaultLatencies()))
	type csver interface{ CSV() string }
	steps := []struct {
		name string
		run  func() (csver, error)
	}{
		{"fig6", func() (csver, error) { return expt.Fig6Context(ctx, opt) }},
		{"fig7", func() (csver, error) { return expt.Fig7Context(ctx, opt) }},
		{"fig8", func() (csver, error) { return expt.Fig8Context(ctx, opt) }},
		{"fig9", func() (csver, error) { return expt.Fig9Context(ctx, opt) }},
		{"ext-fidelity", func() (csver, error) { return expt.ExtFidelityContext(ctx, opt) }},
		{"ext-capacity", func() (csver, error) { return expt.ExtControlCapacityContext(ctx, opt) }},
		{"ablation-comm", func() (csver, error) { return expt.AblationCommContext(ctx, opt) }},
		{"ablation-schedulers", func() (csver, error) { return expt.AblationSchedulersContext(ctx, opt) }},
		{"ablation-placement", func() (csver, error) { return expt.AblationPlacementContext(ctx, opt) }},
		{"ablation-topology", func() (csver, error) { return expt.AblationTopologyContext(ctx, opt) }},
	}
	for _, s := range steps {
		r, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out.csv[s.name] = r.CSV()
	}
	out.stats = pl.Stats()
	return out, nil
}

// reproSetup is what a pass stands on before its first trial. The pass
// itself works from the Table II specs, so its set-up is the shared
// pipeline plus what a first evaluation of the paper's applications
// builds: each application's circuit from its gate-level generator, and
// the ring device it runs on at every Fig. 7 chain length.
type reproSetup struct {
	pl       *core.Pipeline
	circuits []*circuit.Circuit
	devices  []*ti.Device
}

func buildRepro() (reproSetup, error) {
	st := reproSetup{pl: core.NewPipeline()}
	for _, a := range apps.Catalog() {
		c, err := a.Build()
		if err != nil {
			return st, err
		}
		st.circuits = append(st.circuits, c)
		for _, l := range expt.Fig7ChainLengths {
			d, err := ti.DeviceFor(c.NumQubits(), l, ti.Ring)
			if err != nil {
				return st, err
			}
			st.devices = append(st.devices, d)
		}
	}
	return st, nil
}

// loadCommitted reads the committed CSV oracles from root/results.
func loadCommitted(root string) (map[string]string, error) {
	want := map[string]string{}
	for _, name := range reproCSVs {
		b, err := os.ReadFile(filepath.Join(root, "results", name+".csv"))
		if err != nil {
			return nil, fmt.Errorf("committed oracle: %w", err)
		}
		want[name] = string(b)
	}
	return want, nil
}

// csvMismatches counts the reproCSVs whose rendering in got differs from
// want by any byte (a missing rendering counts too).
func csvMismatches(got, want map[string]string) int {
	n := 0
	for _, name := range reproCSVs {
		if g, ok := got[name]; !ok || g != want[name] {
			n++
		}
	}
	return n
}

func runRepro(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	committed, err := loadCommitted(cfg.root)
	if err != nil {
		return nil, err
	}
	st, setups, err := repeatSetup(buildRepro, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{setups: setups}
	// The first pass runs on the set-up's pipeline, later ones on a
	// fresh one each, so every pass does the same work and no pass's
	// artifacts outlive it.
	pipeline := func(int) *core.Pipeline {
		pl := st.pl
		st.pl = nil
		if pl == nil {
			pl = core.NewPipeline()
		}
		return pl
	}
	// Every pass must render the bytes of the first; at the committed
	// seed the first must also equal the committed CSVs.
	var first *reproOutput
	check := func(out *reproOutput) {
		o.attempted += len(reproCSVs) + len(out.text)
		if first == nil {
			first = out
			if cfg.seed == committedSeed {
				o.failed += csvMismatches(out.csv, committed)
			}
			return
		}
		o.failed += csvMismatches(out.csv, first.csv)
		for i := range out.text {
			if out.text[i] != first.text[i] {
				o.failed++
			}
		}
	}
	if !cfg.traced {
		o.units, err = measure(cfg, 3, o, func(i int) error {
			out, err := reproPass(ctx, cfg.seed, pipeline(i))
			if err != nil {
				return err
			}
			check(out)
			return nil
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "repro: %d passes of %d trials per point, committed oracle checked: %v\n",
			len(o.units), core.DefaultRuns, cfg.seed == committedSeed)
		return o, nil
	}

	// Traced: untraced passes for half the window give the reference
	// bytes, cache counters and untraced time; replays fill the rest.
	half := cfg
	half.seconds = cfg.seconds / 2
	untraced, err := measure(half, 1, nil, func(i int) error {
		out, err := reproPass(ctx, cfg.seed, pipeline(i))
		if err != nil {
			return err
		}
		check(out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var replays []time.Duration
	var last *replayResult
	replays, err = measure(half, 1, nil, func(int) error {
		rp, err := replayRepro(cfg.seed)
		if err != nil {
			return err
		}
		o.attempted += len(reproCSVs) + 1
		o.failed += csvMismatches(rp.csv, first.csv)
		if !strings.Contains(first.text[0], fmt.Sprintf(" %.1f ", rp.table1LinksMean)) {
			o.failed++
		}
		last = rp
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.spans = last.tr.spans
	o.layers = reproLayers(last, first.stats, median(seconds64(untraced)), median(seconds64(replays)))
	fmt.Fprintf(cfg.log, "repro traced: %d untraced passes, %d replays, %d spans per replay\n",
		len(untraced), len(replays), len(last.tr.spans))
	return o, nil
}
