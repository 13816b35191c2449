package perf_test

import (
	"reflect"
	"sync"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/workload"
)

// evaluatorAlphas is the weak-link penalty sweep the equivalence property
// is checked under.
var evaluatorAlphas = []float64{1.0, 1.5, 2.0}

// checkEquivalence pins the Evaluator's binding against every other entry
// point and the oracle gate graph for one placed circuit.
func checkEquivalence(t *testing.T, tag string, c *circuit.Circuit, l *ti.Layout, lat perf.Latencies) {
	t.Helper()
	e := perf.NewEvaluator(c)
	b, err := e.Bind(l)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}

	if got, want := b.ParallelTime(lat), perf.ParallelTime(c, l, lat); got != want {
		t.Fatalf("%s: Binding.ParallelTime = %v, ParallelTime = %v", tag, got, want)
	}

	g := perf.NewOracleGraph(c, l, lat)
	if got, want := e.NumEdges(), g.NumEdges(); got != want {
		t.Fatalf("%s: Evaluator has %d edges, oracle graph %d", tag, got, want)
	}
	lp, err := g.LongestPath()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if got := e.LongestPath(l, lat); got != lp.Length {
		t.Fatalf("%s: Evaluator.LongestPath = %v, oracle longest path = %v", tag, got, lp.Length)
	}

	want, err := perf.Evaluate(c, l, lat)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	got, err := b.Time(lat)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Binding.Time =\n%+v\nEvaluate =\n%+v", tag, got, want)
	}
}

// evaluate binds and prices one layout through e.
func evaluate(e *perf.Evaluator, l *ti.Layout, lat perf.Latencies) (perf.Result, error) {
	b, err := e.Bind(l)
	if err != nil {
		return perf.Result{}, err
	}
	return b.Time(lat)
}

// TestEvaluatorMatchesLegacyOnRandomCircuits drives the equivalence
// property over explicit random circuits from internal/workload with
// random placement, across the α sweep.
func TestEvaluatorMatchesLegacyOnRandomCircuits(t *testing.T) {
	r := stats.NewRand(42)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(40)
		gates := r.Intn(300)
		frac := r.Float64()
		c := genc(t)(workload.RandomCircuit(n, gates, frac, int64(trial)))
		d, err := ti.DeviceFor(n, 4+r.Intn(13), ti.Ring)
		if err != nil {
			t.Fatal(err)
		}
		l, err := placement.Random{}.Place(d, n, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range evaluatorAlphas {
			lat := perf.DefaultLatencies()
			lat.WeakPenalty = alpha
			checkEquivalence(t, c.Name, c, l, lat)
		}
	}
}

// TestEvaluatorMatchesLegacyAcrossPlacers drives the property through
// every gate placer over spec workloads, across the α sweep.
func TestEvaluatorMatchesLegacyAcrossPlacers(t *testing.T) {
	qv, err := workload.QuantumVolume(24)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := workload.RatioCircuit(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs := []circuit.Spec{workload.Random(16, 60), qv, rc}
	for _, alpha := range evaluatorAlphas {
		lat := perf.DefaultLatencies()
		lat.WeakPenalty = alpha
		for _, placer := range schedule.All(lat) {
			for si, spec := range specs {
				r := stats.NewRand(int64(100 + si))
				d, err := ti.DeviceFor(spec.Qubits, 8, ti.Ring)
				if err != nil {
					t.Fatal(err)
				}
				l, err := placement.Random{}.Place(d, spec.Qubits, r)
				if err != nil {
					t.Fatal(err)
				}
				c, err := placer.Place(spec, l, r)
				if err != nil {
					t.Fatal(err)
				}
				tag := spec.Name + "/" + placer.Name()
				checkEquivalence(t, tag, c, l, lat)
			}
		}
	}
}

// TestEvaluatorReuseAcrossLayouts checks the intended usage pattern: one
// evaluator, many randomized placements, results identical to fresh legacy
// evaluations every time.
func TestEvaluatorReuseAcrossLayouts(t *testing.T) {
	c := genc(t)(workload.RandomCircuit(24, 200, 0.3, 7))
	d, err := ti.DeviceFor(24, 6, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	e := perf.NewEvaluator(c)
	lat := perf.DefaultLatencies()
	r := stats.NewRand(9)
	for trial := 0; trial < 25; trial++ {
		l, err := placement.Random{}.Place(d, 24, r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := perf.Evaluate(c, l, lat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := evaluate(e, l, lat)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: results diverged", trial)
		}
	}
}

// TestEvaluatorConcurrentUse exercises one shared evaluator from many
// goroutines — the worker-pool runner's access pattern — under the race
// detector.
func TestEvaluatorConcurrentUse(t *testing.T) {
	c := genc(t)(workload.RandomCircuit(16, 120, 0.2, 3))
	d, err := ti.DeviceFor(16, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	e := perf.NewEvaluator(c)
	lat := perf.DefaultLatencies()
	layouts := make([]*ti.Layout, 8)
	want := make([]perf.Result, len(layouts))
	r := stats.NewRand(5)
	for i := range layouts {
		l, err := placement.Random{}.Place(d, 16, r)
		if err != nil {
			t.Fatal(err)
		}
		layouts[i] = l
		want[i], err = perf.Evaluate(c, l, lat)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(layouts))
	for i := range layouts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got, err := evaluate(e, layouts[i], lat)
				if err != nil {
					errs[i] = err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs[i] = errMismatch
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

var errMismatch = errFixed("evaluator result diverged under concurrency")

type errFixed string

func (e errFixed) Error() string { return string(e) }

// TestEvaluatorEmptyAndTinyCircuits covers the degenerate sizes the DP
// special-cases.
func TestEvaluatorEmptyAndTinyCircuits(t *testing.T) {
	d, err := ti.DeviceFor(4, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Sequential{}.Place(d, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := perf.DefaultLatencies()

	empty := circuit.New("empty", 4)
	checkEquivalence(t, "empty", empty, l, lat)

	single := circuit.New("single", 4)
	single.H(0)
	checkEquivalence(t, "single", single, l, lat)

	pair := circuit.New("pair", 4)
	pair.CX(0, 3)
	pair.CX(0, 3)
	checkEquivalence(t, "pair", pair, l, lat)
}

// TestEvaluatorValidation mirrors Evaluate's error contract.
func TestEvaluatorValidation(t *testing.T) {
	c := genc(t)(workload.RandomCircuit(8, 20, 0.5, 1))
	d, err := ti.DeviceFor(4, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Sequential{}.Place(d, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := perf.NewEvaluator(c)
	if _, err := evaluate(e, l, perf.DefaultLatencies()); err == nil {
		t.Fatal("expected error for circuit wider than layout")
	}
	bad := perf.DefaultLatencies()
	bad.WeakPenalty = 0.5
	d8, err := ti.DeviceFor(8, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l8, err := placement.Sequential{}.Place(d8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evaluate(e, l8, bad); err == nil {
		t.Fatal("expected latency validation error")
	}
}

// genc unwraps a circuit-generator result, failing the test on error.
func genc(t testing.TB) func(*circuit.Circuit, error) *circuit.Circuit {
	return func(c *circuit.Circuit, err error) *circuit.Circuit {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return c
	}
}
