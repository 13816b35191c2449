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

// sweepLats builds the α-sweep timing models the kernel is checked under,
// matching how expt's scaling panels vary only WeakPenalty.
func sweepLats(alphas []float64) []perf.Latencies {
	lats := make([]perf.Latencies, len(alphas))
	for i, a := range alphas {
		lats[i] = perf.DefaultLatencies()
		lats[i].WeakPenalty = a
	}
	return lats
}

// checkKernel pins the stage-split API against the classic path for one
// placed circuit: Bind+Time ≡ Evaluate field for field, and TimeAll lanes ≡
// the corresponding Time calls.
func checkKernel(t *testing.T, tag string, c *circuit.Circuit, l *ti.Layout, lats []perf.Latencies) {
	t.Helper()
	e := perf.NewEvaluator(c)
	b, err := e.Bind(l)
	if err != nil {
		t.Fatalf("%s: Bind: %v", tag, err)
	}
	want := make([]perf.Result, len(lats))
	for i, lat := range lats {
		want[i], err = perf.Evaluate(c, l, lat)
		if err != nil {
			t.Fatalf("%s: Evaluate: %v", tag, err)
		}
		got, err := b.Time(lat)
		if err != nil {
			t.Fatalf("%s: Time: %v", tag, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s α=%v: Bind+Time =\n%+v\nEvaluate =\n%+v", tag, lat.WeakPenalty, got, want[i])
		}
	}
	if b.WeakGates() != want[0].WeakGates || b.LinksUsed() != want[0].LinksUsed {
		t.Fatalf("%s: binding counts (%d, %d) disagree with Evaluate (%d, %d)",
			tag, b.WeakGates(), b.LinksUsed(), want[0].WeakGates, want[0].LinksUsed)
	}
	all, err := b.TimeAll(lats)
	if err != nil {
		t.Fatalf("%s: TimeAll: %v", tag, err)
	}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("%s: TimeAll lanes diverge from repeated Evaluate\n got %+v\nwant %+v", tag, all, want)
	}
	viaEval, err := evaluateAll(e, l, lats)
	if err != nil {
		t.Fatalf("%s: Bind+TimeAll: %v", tag, err)
	}
	if !reflect.DeepEqual(viaEval, want) {
		t.Fatalf("%s: Bind+TimeAll diverges from repeated Evaluate", tag)
	}
}

// evaluateAll binds one layout through e and prices every model in lats.
func evaluateAll(e *perf.Evaluator, l *ti.Layout, lats []perf.Latencies) ([]perf.Result, error) {
	b, err := e.Bind(l)
	if err != nil {
		return nil, err
	}
	return b.TimeAll(lats)
}

// TestEvaluateAllMatchesRepeatedEvaluate is the kernel's headline property:
// over random circuits, placements, and α sweeps of varying width, every
// lane of the one-pass kernel equals the independent single-model DP bit
// for bit, critical path included.
func TestEvaluateAllMatchesRepeatedEvaluate(t *testing.T) {
	r := stats.NewRand(1234)
	alphaPool := []float64{2.0, 1.8, 1.6, 1.4, 1.2, 1.0}
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(40)
		gates := r.Intn(300)
		frac := r.Float64()
		c := genc(t)(workload.RandomCircuit(n, gates, frac, int64(1000+trial)))
		d, err := ti.DeviceFor(n, 4+r.Intn(13), ti.Ring)
		if err != nil {
			t.Fatal(err)
		}
		l, err := placement.Random{}.Place(d, n, r)
		if err != nil {
			t.Fatal(err)
		}
		nl := 1 + r.Intn(len(alphaPool))
		checkKernel(t, c.Name, c, l, sweepLats(alphaPool[:nl]))
	}
}

// TestKernelAcrossPlacers drives the property through every gate placer
// over spec workloads, the same coverage the evaluator equivalence tests
// use.
func TestKernelAcrossPlacers(t *testing.T) {
	qv, err := workload.QuantumVolume(24)
	if err != nil {
		t.Fatal(err)
	}
	specs := []circuit.Spec{workload.Random(16, 60), qv}
	lats := sweepLats([]float64{2.0, 1.5, 1.0})
	lat := perf.DefaultLatencies()
	for _, placer := range schedule.All(lat) {
		for si, spec := range specs {
			r := stats.NewRand(int64(300 + si))
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
			checkKernel(t, spec.Name+"/"+placer.Name(), c, l, lats)
		}
	}
}

// TestKernelDegenerateCircuits covers the sizes the DP special-cases: no
// gates, one gate, 1-qubit-only circuits, and repeated weak 2-qubit gates.
func TestKernelDegenerateCircuits(t *testing.T) {
	d, err := ti.DeviceFor(4, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Sequential{}.Place(d, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	lats := sweepLats([]float64{2.0, 1.0})

	empty := circuit.New("empty", 4)
	checkKernel(t, "empty", empty, l, lats)

	oneQOnly := circuit.New("oneq", 4)
	oneQOnly.H(0)
	oneQOnly.H(1)
	oneQOnly.H(0)
	checkKernel(t, "oneq", oneQOnly, l, lats)

	pair := circuit.New("pair", 4)
	pair.CX(0, 3)
	pair.CX(0, 3)
	checkKernel(t, "pair", pair, l, lats)
}

// TestKernelValidation pins the stage API's error contract: oversized
// circuits fail at Bind, bad timing models fail at Time/TimeAll, and an
// empty sweep is rejected.
func TestKernelValidation(t *testing.T) {
	c := genc(t)(workload.RandomCircuit(8, 20, 0.5, 1))
	e := perf.NewEvaluator(c)

	d4, err := ti.DeviceFor(4, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l4, err := placement.Sequential{}.Place(d4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Bind(l4); err == nil {
		t.Fatal("expected Bind error for circuit wider than layout")
	}

	d8, err := ti.DeviceFor(8, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l8, err := placement.Sequential{}.Place(d8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Bind(l8)
	if err != nil {
		t.Fatal(err)
	}
	bad := perf.DefaultLatencies()
	bad.WeakPenalty = 0.5
	if _, err := b.Time(bad); err == nil {
		t.Fatal("expected latency validation error from Time")
	}
	if _, err := b.TimeAll([]perf.Latencies{perf.DefaultLatencies(), bad}); err == nil {
		t.Fatal("expected latency validation error from TimeAll")
	}
	if _, err := b.TimeAll(nil); err == nil {
		t.Fatal("expected error for empty sweep")
	}
}

// TestBindingConcurrentTimeAll shares one binding across goroutines — the
// sweep engine's access pattern — under the race detector, checking lanes
// stay equal to the sequential reference.
func TestBindingConcurrentTimeAll(t *testing.T) {
	c := genc(t)(workload.RandomCircuit(16, 120, 0.2, 3))
	d, err := ti.DeviceFor(16, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(5)
	l, err := placement.Random{}.Place(d, 16, r)
	if err != nil {
		t.Fatal(err)
	}
	lats := sweepLats([]float64{2.0, 1.8, 1.6, 1.4, 1.2, 1.0})
	b, err := perf.NewEvaluator(c).Bind(l)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.TimeAll(lats)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got, err := b.TimeAll(lats)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs[w] = errMismatch
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", w, err)
		}
	}
}

// TestTimeAllAllocsBoundedByCriticalPath guards the labeling cost of a
// fresh binding: pricing a 10⁴-gate circuit allocates its results, the
// critical path's labels, and a constant amount of bookkeeping — never a
// label (or anything else) per gate.
func TestTimeAllAllocsBoundedByCriticalPath(t *testing.T) {
	c := genc(t)(workload.RandomCircuit(64, 10_000, 0.3, 11))
	d, err := ti.DeviceFor(64, 16, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Random{}.Place(d, 64, stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	lats := sweepLats([]float64{2.0})
	var pathLen int
	allocs := testing.AllocsPerRun(5, func() {
		b, err := perf.NewEvaluator(c).Bind(l)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := b.TimeAll(lats)
		if err != nil {
			t.Fatal(err)
		}
		pathLen = len(rs[0].CriticalPath)
	})
	if pathLen == 0 {
		t.Fatal("empty critical path")
	}
	const overhead = 32
	if limit := float64(pathLen + overhead); allocs > limit {
		t.Fatalf("fresh Bind+TimeAll on %d gates made %.0f allocations, want at most %.0f (critical path %d gates + %d)",
			c.NumGates(), allocs, limit, pathLen, overhead)
	}
	t.Logf("%.0f allocations for a %d-gate critical path over %d gates", allocs, pathLen, c.NumGates())
}
