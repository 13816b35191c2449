package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInspectionOutputsMatchGolden pins the per-trial inspection outputs
// byte for byte at a fixed seed: the report and critical path (-verbose),
// the Gantt chart, the fidelity and shuttle lines, the DOT dependency
// graph, and the timeline JSON. The second case takes its critical path
// from the shuttle backend.
func TestInspectionOutputsMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"weaklink", []string{"-qubits", "12", "-one-qubit-gates", "8", "-two-qubit-gates", "30",
			"-chain-length", "4", "-runs", "3", "-seed", "7",
			"-verbose", "-gantt", "-fidelity", "-shuttle"}},
		{"shuttle", []string{"-qubits", "16", "-one-qubit-gates", "20", "-two-qubit-gates", "60",
			"-chain-length", "4", "-topology", "line", "-runs", "2", "-seed", "3",
			"-backend", "shuttle", "-verbose", "-gantt"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			dot := filepath.Join(dir, "graph.dot")
			timeline := filepath.Join(dir, "timeline.json")
			args := append(append([]string(nil), tc.args...), "-dot", dot, "-timeline-json", timeline)
			var buf bytes.Buffer
			if err := run(args, &buf); err != nil {
				t.Fatal(err)
			}
			stdout := strings.ReplaceAll(buf.String(), dir, "$DIR")
			dotBytes, err := os.ReadFile(dot)
			if err != nil {
				t.Fatal(err)
			}
			tlBytes, err := os.ReadFile(timeline)
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range []struct {
				file string
				got  []byte
			}{
				{tc.name + ".stdout", []byte(stdout)},
				{tc.name + ".dot", dotBytes},
				{tc.name + ".timeline.json", tlBytes},
			} {
				path := filepath.Join("testdata", "golden", out.file)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.got, want) {
					t.Errorf("%s differs from the golden file (%d bytes, want %d)", out.file, len(out.got), len(want))
				}
			}
		})
	}
}
