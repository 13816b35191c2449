package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json untraced and
// traced as a smoke run and checks that each prints exactly the metrics
// BENCHMARK.json names, with their units, and no failures.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				res, err := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.1", "--trace", trace,
					"--root", "..", "--out", t.TempDir()}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := bj.EndToEnd
				if trace == "1" {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func TestFlippedCSVByteIsFailure(t *testing.T) {
	want, err := loadCommitted("..")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for k, v := range want {
		got[k] = v
	}
	if n := csvMismatches(got, want); n != 0 {
		t.Fatalf("identical CSVs: %d mismatches", n)
	}
	b := []byte(got["fig6"])
	b[len(b)/2] ^= 1
	got["fig6"] = string(b)
	if n := csvMismatches(got, want); n != 1 {
		t.Fatalf("one flipped byte: %d mismatches, want 1", n)
	}
}

func TestAlteredResponseBodyIsFailure(t *testing.T) {
	ctx := context.Background()
	var done []served
	// One cycle: every shape once and one repeat.
	for _, req := range serveSchedule(7, len(serveShapes)+1) {
		body, err := directBody(ctx, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, served{req: req, status: http.StatusOK, body: body})
	}
	if n, err := bodyMismatches(ctx, done); err != nil || n != 0 {
		t.Fatalf("direct bodies: %d mismatches, err %v", n, err)
	}
	altered := append([]byte(nil), done[1].body...)
	altered[len(altered)-2] ^= 1
	done[1].body = altered
	if n, err := bodyMismatches(ctx, done); err != nil || n != 1 {
		t.Fatalf("one altered body: %d mismatches, err %v; want 1", n, err)
	}
	done[2].status = http.StatusTooManyRequests
	if n, err := bodyMismatches(ctx, done); err != nil || n != 2 {
		t.Fatalf("altered body and a 429: %d mismatches, err %v; want 2", n, err)
	}
}
