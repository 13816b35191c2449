package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"velociti/internal/core"
	"velociti/internal/expt"
	"velociti/internal/perf"
)

// TestReproCSVsMatchCommitted regenerates every committed results/*.csv at
// the paper settings (35 runs, seed 1) and byte-compares each file. Two
// outputs are left out: fig5.csv records host wall-clock time, and the
// annealed-placement ablation takes minutes and has no committed CSV.
func TestReproCSVsMatchCommitted(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-seed", "1", "-csv", dir,
		"-only", "table1,table2,table3,fig6,fig7,fig8,fig9,ext-fidelity,ext-capacity"}
	if err := run(context.Background(), args, io.Discard); err != nil {
		t.Fatal(err)
	}
	opt := expt.Options{Runs: core.DefaultRuns, Seed: 1, Workers: 1, Pipeline: core.NewPipeline(), Backend: perf.WeakLink{}}
	comm, err := expt.AblationCommContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	csvs := map[string]string{"ablation-comm": comm.CSV()}
	for _, ab := range []struct {
		name string
		f    func(context.Context, expt.Options) (*expt.AblationResult, error)
	}{
		{"ablation-schedulers", expt.AblationSchedulersContext},
		{"ablation-placement", expt.AblationPlacementContext},
		{"ablation-topology", expt.AblationTopologyContext},
	} {
		res, err := ab.f(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		csvs[ab.name] = res.CSV()
	}
	for name, body := range csvs {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	committed, err := filepath.Glob(filepath.Join("..", "..", "results", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, want := range committed {
		name := filepath.Base(want)
		if name == "fig5.csv" || name == "ablation-annealed.csv" {
			continue
		}
		wantBytes, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: not regenerated: %v", name, err)
			continue
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("%s differs from the committed file:\ngot:\n%s\nwant:\n%s", name, got, wantBytes)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("compared only %d committed CSVs, want at least 10", checked)
	}
}
