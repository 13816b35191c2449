package perf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/ti"
)

// kernelInput is one decoded FuzzTimingKernel case: a small placed
// circuit, an α panel of 1–8 timing models, and shuttle transport costs.
type kernelInput struct {
	c     *circuit.Circuit
	l     *ti.Layout
	lats  []Latencies
	costs TransportCosts
}

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeKernelInput turns arbitrary bytes into a valid kernelInput: the
// header picks the register, device and timing models, every following
// byte pair appends one gate (at most 14, so the oracle's exhaustive path
// enumeration stays cheap). Transport costs are all zero for a third of
// the inputs.
func decodeKernelInput(data []byte) (kernelInput, bool) {
	r := byteReader(data)
	n := 1 + r.next()%8
	chainLen := 1 + r.next()%4
	topo := []ti.Topology{ti.Ring, ti.Line, ti.Tape}[r.next()%3]
	d, err := ti.DeviceFor(n, chainLen, topo)
	if err != nil {
		return kernelInput{}, false
	}
	perm := rand.New(rand.NewSource(int64(r.next()))).Perm(n)
	chains := make([][]int, d.NumChains())
	for i, q := range perm {
		chains[i/chainLen] = append(chains[i/chainLen], q)
	}
	l, err := ti.NewLayout(d, chains)
	if err != nil {
		return kernelInput{}, false
	}
	in := kernelInput{l: l}
	delta := float64(r.next()%4) / 2
	gamma := float64(1+r.next()) / 4
	for lanes := 1 + r.next()%8; len(in.lats) < lanes; {
		in.lats = append(in.lats, Latencies{OneQubit: delta, TwoQubit: gamma, WeakPenalty: 1 + float64(r.next())/64})
	}
	if r.next()%3 != 0 {
		in.costs = TransportCosts{
			SplitMicros:      float64(r.next()) / 8,
			MovePerHopMicros: float64(r.next()) / 8,
			MergeMicros:      float64(r.next()) / 8,
			RecoolMicros:     float64(r.next()) / 8,
		}
	}
	in.c = circuit.New("fuzz", n)
	for len(r) > 0 && in.c.NumGates() < 14 {
		x, y := r.next(), r.next()
		a := (x / 4) % n
		if x%4 == 0 || n == 1 {
			in.c.X(a)
			continue
		}
		in.c.CX(a, (a+1+y%(n-1))%n)
	}
	return in, in.c.Err() == nil
}

// FuzzTimingKernel runs random small circuits, layouts, α panels and
// transport costs through every timing entry point — materialized and
// streamed — and through Evaluator.LongestPath, checking each against the
// paper-literal oracle (Eq. 1–2 and the longest path over Figure 3's
// edges) and against each other.
func FuzzTimingKernel(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{7, 3, 0, 1, 2, 40, 3, 1, 5, 6, 7, 8, 9, 1, 2, 3, 5, 9, 0, 4, 13, 17, 21, 8},
		{5, 1, 1, 9, 0, 0, 0, 0, 1, 1, 1, 1, 5, 5, 9, 9, 13, 13},
		{3, 0, 2, 4, 3, 255, 7, 10, 20, 30, 40, 50, 60, 70, 2, 1, 1, 1, 1, 6, 1, 10, 2, 14, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeKernelInput(data)
		if !ok {
			t.Skip("input decodes to no valid circuit")
		}
		checkKernelInput(t, in)
	})
}

// near reports whether a and b agree up to floating-point reassociation.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func checkKernelInput(t *testing.T, in kernelInput) {
	t.Helper()
	c, l, lats := in.c, in.l, in.lats
	ev := NewEvaluator(c)
	b, err := ev.Bind(l)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := b.TimeAll(lats)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]int{}
	for i, label := range c.Labels() {
		ids[label] = i
	}
	for j, lat := range lats {
		g := NewOracleGraph(c, l, lat)
		lp, _ := g.LongestPath()
		if brute := g.BruteForceLongest(); !near(lp.Length, brute) {
			t.Fatalf("oracle: longest path %v, exhaustive %v", lp.Length, brute)
		}
		r := rs[j]
		if !near(r.ParallelMicros, g.ParallelTime()) {
			t.Fatalf("lane %d: parallel %v, oracle %v", j, r.ParallelMicros, g.ParallelTime())
		}
		if !near(r.SerialMicros, g.SerialTime()) || r.LinksUsed != g.LinksUsed() {
			t.Fatalf("lane %d: serial %v (w=%d), Eq. 1–2 %v (w=%d)", j, r.SerialMicros, r.LinksUsed, g.SerialTime(), g.LinksUsed())
		}
		if got := ev.LongestPath(l, lat); got != lp.Length {
			t.Fatalf("lane %d: Evaluator.LongestPath %v, oracle %v", j, got, lp.Length)
		}
		if one, err := b.Time(lat); err != nil || !reflect.DeepEqual(one, r) {
			t.Fatalf("lane %d: Time %+v (%v), TimeAll lane %+v", j, one, err, r)
		}
		if whole, err := Evaluate(c, l, lat); err != nil || !reflect.DeepEqual(whole, r) {
			t.Fatalf("lane %d: Evaluate %+v (%v), TimeAll lane %+v", j, whole, err, r)
		}
		table := make([]float64, c.NumGates())
		for i := range table {
			table[i] = g.Latency(i)
		}
		for name, got := range map[string]float64{
			"Binding.ParallelTime":      b.ParallelTime(lat),
			"ParallelTime":              ParallelTime(c, l, lat),
			"Binding.ParallelTimeTable": b.ParallelTimeTable(table),
		} {
			if got != r.ParallelMicros {
				t.Fatalf("lane %d: %s %v, TimeAll %v", j, name, got, r.ParallelMicros)
			}
		}
		checkTimeline(t, c, l, lat, g, r.ParallelMicros)
		// The weak-link critical path is a dependency chain whose
		// latencies, summed in order, give the makespan exactly.
		sum := 0.0
		for _, id := range checkChain(t, g, ids, r.CriticalPath) {
			sum += g.Latency(id)
		}
		if sum != r.ParallelMicros {
			t.Fatalf("lane %d: critical path %v sums to %v, makespan %v", j, r.CriticalPath, sum, r.ParallelMicros)
		}
	}
	if all := b.ParallelTimeAll(lats, nil); len(all) != len(lats) {
		t.Fatalf("ParallelTimeAll returned %d lanes for %d models", len(all), len(lats))
	} else {
		for j := range all {
			if all[j] != rs[j].ParallelMicros {
				t.Fatalf("lane %d: ParallelTimeAll %v, TimeAll %v", j, all[j], rs[j].ParallelMicros)
			}
		}
	}
	streamed, st, err := StreamTimeAll(c.Source(), l, lats)
	if err != nil || !reflect.DeepEqual(streamed, stripPaths(rs)) || st.Fingerprint != c.Fingerprint() {
		t.Fatalf("StreamTimeAll diverges (%v):\n got %+v\nwant %+v", err, streamed, stripPaths(rs))
	}
	if viaBackend, err := (WeakLink{}).TimeAll(b, lats); err != nil || !reflect.DeepEqual(viaBackend, rs) {
		t.Fatalf("WeakLink.TimeAll diverges (%v)", err)
	}
	if viaBackend, _, err := (WeakLink{}).StreamTimeAll(c.Source(), l, lats); err != nil || !reflect.DeepEqual(viaBackend, streamed) {
		t.Fatalf("WeakLink.StreamTimeAll diverges (%v)", err)
	}

	if err := b.AttachTransport(l); err != nil {
		t.Fatal(err)
	}
	ts, err := b.TimeTransportAll(in.costs, lats)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]Latencies, len(lats))
	for j, lat := range lats {
		local[j] = lat
		local[j].WeakPenalty = 1
	}
	flat, err := b.TimeAll(local)
	if err != nil {
		t.Fatal(err)
	}
	for j, lat := range lats {
		if one, err := b.TimeTransport(in.costs, lat); err != nil || !reflect.DeepEqual(one, ts[j]) {
			t.Fatalf("lane %d: TimeTransport %+v (%v), TimeTransportAll lane %+v", j, one, err, ts[j])
		}
		if want := transportMakespan(c, l, in.costs, local[j]); !near(ts[j].ParallelMicros, want) {
			t.Fatalf("lane %d: transport makespan %v, direct simulation %v", j, ts[j].ParallelMicros, want)
		}
		checkChain(t, NewOracleGraph(c, l, local[j]), ids, ts[j].CriticalPath)
		// Transport only ever adds waiting to the α = 1 schedule.
		if ts[j].ParallelMicros < flat[j].ParallelMicros {
			t.Fatalf("lane %d: transport makespan %v below the α = 1 makespan %v", j, ts[j].ParallelMicros, flat[j].ParallelMicros)
		}
	}
	if in.costs == (TransportCosts{}) && !reflect.DeepEqual(ts, flat) {
		t.Fatalf("zero-cost transport diverges from weak-link at α = 1:\n got %+v\nwant %+v", ts, flat)
	}
	streamedT, stT, err := StreamTransportAll(c.Source(), l, in.costs, lats)
	if err != nil || !reflect.DeepEqual(streamedT, stripPaths(ts)) || stT != st {
		t.Fatalf("StreamTransportAll diverges (%v):\n got %+v\nwant %+v", err, streamedT, stripPaths(ts))
	}
}

// checkChain maps a critical path's labels to gate ids and checks that
// consecutive gates are joined by a dependency edge and that the path is
// non-empty exactly when the circuit is.
func checkChain(t *testing.T, g *OracleGraph, ids map[string]int, path []string) []int {
	t.Helper()
	if (len(path) == 0) != (g.NumNodes() == 0) {
		t.Fatalf("critical path %v for %d gates", path, g.NumNodes())
	}
	out := make([]int, len(path))
	for i, label := range path {
		id, ok := ids[label]
		if !ok {
			t.Fatalf("critical path label %q names no gate", label)
		}
		out[i] = id
		if i > 0 {
			if _, edge := g.Weight(out[i-1], id); !edge {
				t.Fatalf("critical path %v: no dependency edge %d→%d", path, out[i-1], id)
			}
		}
	}
	return out
}

// checkTimeline checks the ASAP schedule gate by gate: each gate starts
// when its last operand frees up and runs for exactly its latency.
func checkTimeline(t *testing.T, c *circuit.Circuit, l *ti.Layout, lat Latencies, g *OracleGraph, makespan float64) {
	t.Helper()
	tl, err := BuildTimeline(c, l, lat)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan != makespan || len(tl.Intervals) != c.NumGates() {
		t.Fatalf("timeline makespan %v over %d intervals, want %v over %d", tl.Makespan, len(tl.Intervals), makespan, c.NumGates())
	}
	free := make([]float64, c.NumQubits())
	for i, gate := range c.Gates() {
		start := 0.0
		for _, q := range gate.Qubits {
			start = math.Max(start, free[q])
		}
		iv := tl.Intervals[i]
		if iv.Start != start || iv.Finish != start+g.Latency(i) {
			t.Fatalf("gate %d: interval [%v, %v], want [%v, %v]", i, iv.Start, iv.Finish, start, start+g.Latency(i))
		}
		for _, q := range gate.Qubits {
			free[q] = iv.Finish
		}
	}
}

// transportMakespan simulates the shuttle model directly: gates run in
// program order as soon as their qubits are free; a cross-chain gate
// first moves an ion along the weak-link path between its chains, which
// takes split + hops·move + merge + recool, may not start before every
// segment on the path is free, and occupies all of them until it ends;
// then the gate runs at the local latency.
func transportMakespan(c *circuit.Circuit, l *ti.Layout, costs TransportCosts, lat Latencies) float64 {
	free := make([]float64, c.NumQubits())
	busy := map[int]float64{}
	makespan := 0.0
	for _, g := range c.Gates() {
		ready := 0.0
		for _, q := range g.Qubits {
			ready = math.Max(ready, free[q])
		}
		finish := ready + lat.OneQubit
		if len(g.Qubits) == 2 {
			finish = ready + lat.TwoQubit
			ca, cb := l.ChainOf(g.Qubits[0]), l.ChainOf(g.Qubits[1])
			if ca != cb {
				links := l.Device().PathLinks(min(ca, cb), max(ca, cb))
				over := costs.SplitMicros + costs.MergeMicros + costs.RecoolMicros + float64(len(links))*costs.MovePerHopMicros
				if over > 0 {
					start := ready
					for _, wl := range links {
						start = math.Max(start, busy[wl.ID])
					}
					for _, wl := range links {
						busy[wl.ID] = start + over
					}
					finish = start + over + lat.TwoQubit
				}
			}
		}
		for _, q := range g.Qubits {
			free[q] = finish
		}
		makespan = math.Max(makespan, finish)
	}
	return makespan
}
