package perf

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/ti"
)

// fig3 builds the paper's Figure 3 example: 7 qubits across two chains
// (q1–q4 on chain A, q5–q7 on chain B, 0-indexed here as q0–q6), six
// 2-qubit gates, one weak link joining q4 (0-indexed q3) and q5 (q4).
func fig3(t *testing.T) (*circuit.Circuit, *ti.Layout) {
	t.Helper()
	c := circuit.New("fig3", 7)
	c.CX(0, 1) // q1q2 (start node)
	c.CX(2, 3) // q3q4 (start node)
	c.CX(5, 6) // q6q7 (start node)
	c.CX(3, 4) // q4q5 — crosses the weak link
	c.CX(4, 5) // q5q6
	c.CX(1, 2) // q2q3
	d, err := ti.NewDevice(4, 2, ti.Line)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ti.NewLayout(d, [][]int{{0, 1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	return c, l
}

func TestDefaultLatenciesMatchTableIII(t *testing.T) {
	lat := DefaultLatencies()
	if lat.OneQubit != 1 || lat.TwoQubit != 100 || lat.WeakPenalty != 2 {
		t.Fatalf("defaults = %+v, want Table III values", lat)
	}
	if err := lat.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLatenciesValidate(t *testing.T) {
	bad := []Latencies{
		{OneQubit: -1, TwoQubit: 100, WeakPenalty: 2},
		{OneQubit: 1, TwoQubit: 0, WeakPenalty: 2},
		{OneQubit: 1, TwoQubit: 100, WeakPenalty: 0.5},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, l)
		}
	}
	ok := Latencies{OneQubit: 0, TwoQubit: 50, WeakPenalty: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("α=1 (no penalty) should be valid: %v", err)
	}
}

func TestGateLatencyClasses(t *testing.T) {
	c, l := fig3(t)
	lat := DefaultLatencies()
	// Intra-chain 2q gate.
	if got := lat.GateLatency(c.Gate(0), l); got != 100 {
		t.Errorf("intra-chain 2q latency = %v, want 100", got)
	}
	// Weak-link gate: α·γ.
	if got := lat.GateLatency(c.Gate(3), l); got != 200 {
		t.Errorf("weak-link latency = %v, want 200", got)
	}
	// 1-qubit gate.
	c2 := circuit.New("t", 7)
	c2.H(0)
	if got := lat.GateLatency(c2.Gate(0), l); got != 1 {
		t.Errorf("1q latency = %v, want 1", got)
	}
}

func TestSerialTimeFig3(t *testing.T) {
	c, l := fig3(t)
	lat := DefaultLatencies()
	// q=0, p=6, w=1: Γ = 1·2·100 + 5·100 = 700.
	if got := SerialTime(c, l, lat); got != 700 {
		t.Fatalf("serial = %v, want 700", got)
	}
}

func TestSerialTimeFromCountsMatchesEquation(t *testing.T) {
	lat := Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: 1.5}
	// t = q·δ + w·α·γ + (p−w)·γ = 10 + 3·150 + 7·100 = 1160.
	if got := SerialTimeFromCounts(10, 10, 3, lat); got != 1160 {
		t.Fatalf("serial from counts = %v, want 1160", got)
	}
}

// The paper's worked example: the parallel latency of Figure 3 is
// (1+α)γ + γ (§IV-D).
func TestParallelTimeFig3MatchesPaper(t *testing.T) {
	c, l := fig3(t)
	for _, alpha := range []float64{2.0, 1.8, 1.4, 1.0} {
		lat := Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: alpha}
		want := (1+alpha)*100 + 100
		if got := ParallelTime(c, l, lat); math.Abs(got-want) > 1e-9 {
			t.Errorf("α=%v: parallel = %v, want %v", alpha, got, want)
		}
	}
}

func TestBuildGateGraphFig3Structure(t *testing.T) {
	c, l := fig3(t)
	lat := DefaultLatencies()
	g := NewOracleGraph(c, l, lat)
	if g.NumNodes() != 6 {
		t.Fatalf("nodes = %d, want 6", g.NumNodes())
	}
	// Three start nodes, exactly the gates acting on fresh qubits.
	starts := g.StartNodes()
	if !reflect.DeepEqual(starts, []int{0, 1, 2}) {
		t.Fatalf("start nodes = %v, want [0 1 2]", starts)
	}
	// Edge q3q4 -> q4q5 weighs (1+α)γ = 300: destination is a weak-link
	// gate (αγ) and the source is a start node (+γ).
	if w, ok := g.Weight(1, 3); !ok || w != 300 {
		t.Fatalf("weight(q3q4→q4q5) = %v,%v, want 300", w, ok)
	}
	// Edge q4q5 -> q5q6 weighs γ = 100: source is not a start node.
	if w, ok := g.Weight(3, 4); !ok || w != 100 {
		t.Fatalf("weight(q4q5→q5q6) = %v,%v, want 100", w, ok)
	}
	// Longest path through the graph equals the paper's (1+α)γ + γ = 400.
	res, err := g.LongestPath()
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 400 {
		t.Fatalf("longest path = %v, want 400", res.Length)
	}
	// SSA labels on nodes (paper's Figure 3 labels, 0-indexed qubits).
	if g.Label(3) != "q3q4" {
		t.Fatalf("node 3 label = %q", g.Label(3))
	}
}

func TestParallelMatchesGraphLongestPath(t *testing.T) {
	// Property: DP finish-time computation equals the paper's
	// edge-weighted longest path, accounting for isolated gates.
	r := rand.New(rand.NewSource(77))
	lat := DefaultLatencies()
	for trial := 0; trial < 100; trial++ {
		n := 4 + r.Intn(12)
		d, err := ti.NewDevice(4, (n+3)/4, ti.Ring)
		if err != nil {
			t.Fatal(err)
		}
		chains := make([][]int, d.NumChains())
		for q := 0; q < n; q++ {
			chains[q/4] = append(chains[q/4], q)
		}
		l, err := ti.NewLayout(d, chains)
		if err != nil {
			t.Fatal(err)
		}
		c := circuit.New("rand", n)
		pairs := l.LegalPairs()
		for k := 0; k < r.Intn(30); k++ {
			if r.Intn(4) == 0 {
				c.X(r.Intn(n))
			} else {
				p := pairs[r.Intn(len(pairs))]
				c.CX(p[0], p[1])
			}
		}
		g := NewOracleGraph(c, l, lat)
		lp, err := g.LongestPath()
		if err != nil {
			t.Fatal(err)
		}
		want := lp.Length
		// Gates with no dependency edges contribute their own latency.
		for _, gate := range c.Gates() {
			if g.InDegree(gate.ID) == 0 && g.OutDegree(gate.ID) == 0 {
				if lt := lat.GateLatency(gate, l); lt > want {
					want = lt
				}
			}
		}
		if got := ParallelTime(c, l, lat); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: DP=%v graph=%v", trial, got, want)
		}
	}
}

func TestParallelNeverExceedsSerial(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	lat := DefaultLatencies()
	for trial := 0; trial < 100; trial++ {
		n := 4 + r.Intn(20)
		d, _ := ti.NewDevice(8, (n+7)/8, ti.Ring)
		chains := make([][]int, d.NumChains())
		for q := 0; q < n; q++ {
			chains[q/8] = append(chains[q/8], q)
		}
		l, _ := ti.NewLayout(d, chains)
		c := circuit.New("rand", n)
		pairs := l.LegalPairs()
		for k := 0; k < 1+r.Intn(40); k++ {
			if r.Intn(3) == 0 {
				c.X(r.Intn(n))
			} else {
				p := pairs[r.Intn(len(pairs))]
				c.CX(p[0], p[1])
			}
		}
		s := SerialTimePerGate(c, l, lat)
		p := ParallelTime(c, l, lat)
		if p > s+1e-9 {
			t.Fatalf("trial %d: parallel %v > per-gate serial %v", trial, p, s)
		}
		// Eq. 1–2's serial time uses w = links used, so it can fall below
		// the per-gate worst case but never above it.
		if eq := SerialTime(c, l, lat); eq > s+1e-9 {
			t.Fatalf("trial %d: Eq.1-2 serial %v exceeds per-gate serial %v", trial, eq, s)
		}
		if c.NumGates() > 0 && p <= 0 {
			t.Fatalf("trial %d: non-empty circuit has parallel time %v", trial, p)
		}
	}
}

func TestFullySerialChainEqualsSerialModel(t *testing.T) {
	// A circuit where every gate depends on the previous one (all gates on
	// the same pair) has no parallelism: parallel == serial.
	d, _ := ti.NewDevice(4, 1, ti.Ring)
	l, _ := ti.NewLayout(d, [][]int{{0, 1}})
	c := circuit.New("serial", 2)
	for i := 0; i < 10; i++ {
		c.CX(0, 1)
	}
	lat := DefaultLatencies()
	s, p := SerialTime(c, l, lat), ParallelTime(c, l, lat)
	if s != p || s != 1000 {
		t.Fatalf("serial=%v parallel=%v, want both 1000", s, p)
	}
}

func TestSerialModelsDivergeOnRepeatedWeakGates(t *testing.T) {
	// Ten gates across the same weak link: Eq. 1–2 charges α·γ once
	// (w = 1 link used), the per-gate model charges every crossing, and
	// the parallel model — fully serialized on the shared qubits —
	// matches the per-gate time.
	d, _ := ti.NewDevice(2, 2, ti.Line)
	l, _ := ti.NewLayout(d, [][]int{{0, 1}, {2, 3}})
	c := circuit.New("weak-chain", 4)
	for i := 0; i < 10; i++ {
		c.CX(1, 2)
	}
	lat := DefaultLatencies()
	if eq := SerialTime(c, l, lat); eq != 1*200+9*100 {
		t.Fatalf("Eq.1-2 serial = %v, want 1100 (w = 1 link)", eq)
	}
	if pg := SerialTimePerGate(c, l, lat); pg != 2000 {
		t.Fatalf("per-gate serial = %v, want 2000", pg)
	}
	if p := ParallelTime(c, l, lat); p != 2000 {
		t.Fatalf("parallel = %v, want 2000 (no parallelism available)", p)
	}
}

func TestLinksUsedAdjacencyOnly(t *testing.T) {
	// Four single-qubit chains in a line. A gate between the end chains
	// is multi-hop: it marks no link (w counts direct link usage only,
	// keeping Eq. 1-2 below the per-gate bound); an adjacent-chain gate
	// marks exactly one.
	d, _ := ti.NewDevice(1, 4, ti.Line)
	l, _ := ti.NewLayout(d, [][]int{{0}, {1}, {2}, {3}})
	c := circuit.New("far", 4)
	c.CX(0, 3)
	if got := LinksUsed(c, l); got != 0 {
		t.Fatalf("LinksUsed = %d, want 0 for a non-adjacent pair", got)
	}
	lat := DefaultLatencies()
	if eq := SerialTime(c, l, lat); eq != 100 {
		t.Fatalf("serial = %v, want 100 (w = 0)", eq)
	}
	// The per-gate model still charges the cross-chain penalty.
	if pg := SerialTimePerGate(c, l, lat); pg != 200 {
		t.Fatalf("per-gate serial = %v, want 200", pg)
	}
	c.CX(1, 2) // adjacent chains: marks the single joining link
	if got := LinksUsed(c, l); got != 1 {
		t.Fatalf("LinksUsed = %d, want 1 after adjacent gate", got)
	}
	// Two-chain ring: both links join the same pair, but one gate marks
	// only one link, keeping w below the cross-gate count.
	d2, _ := ti.NewDevice(1, 2, ti.Ring)
	l2, _ := ti.NewLayout(d2, [][]int{{0}, {1}})
	c2 := circuit.New("pair", 2)
	c2.CX(0, 1)
	if got := LinksUsed(c2, l2); got != 1 {
		t.Fatalf("2-chain ring LinksUsed = %d, want 1", got)
	}
}

func TestWeakGatesAndLinksUsed(t *testing.T) {
	c, l := fig3(t)
	if w := WeakGates(c, l); w != 1 {
		t.Errorf("WeakGates = %d, want 1", w)
	}
	if u := LinksUsed(c, l); u != 1 {
		t.Errorf("LinksUsed = %d, want 1", u)
	}
	// Repeat the weak-link gate: w counts gates, links used stays 1.
	c.CX(3, 4)
	if w := WeakGates(c, l); w != 2 {
		t.Errorf("WeakGates after repeat = %d, want 2", w)
	}
	if u := LinksUsed(c, l); u != 1 {
		t.Errorf("LinksUsed after repeat = %d, want 1", u)
	}
}

func TestEvaluateFig3(t *testing.T) {
	c, l := fig3(t)
	res, err := Evaluate(c, l, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if res.SerialMicros != 700 || res.ParallelMicros != 400 {
		t.Fatalf("result = %+v", res)
	}
	if math.Abs(res.Speedup()-1.75) > 1e-9 {
		t.Fatalf("speedup = %v, want 1.75", res.Speedup())
	}
	if res.WeakGates != 1 || res.LinksUsed != 1 {
		t.Fatalf("weak stats = %d/%d", res.WeakGates, res.LinksUsed)
	}
	want := []string{"q2q3", "q3q4", "q4q5"}
	// Critical path is q3q4 → q4q5 → q5q6 (0-indexed labels).
	if len(res.CriticalPath) != 3 || res.CriticalPath[0] != "q2q3" {
		// q3q4 in 1-indexed naming is "q2q3" in 0-indexed labels.
		t.Fatalf("critical path = %v, want %v", res.CriticalPath, want)
	}
}

func TestEvaluateValidates(t *testing.T) {
	c, l := fig3(t)
	if _, err := Evaluate(c, l, Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: 0}); err == nil {
		t.Fatalf("invalid latencies should fail")
	}
	big := circuit.New("big", 50)
	if _, err := Evaluate(big, l, DefaultLatencies()); err == nil {
		t.Fatalf("circuit wider than layout should fail")
	}
}

func TestEvaluateEmptyCircuit(t *testing.T) {
	d, _ := ti.NewDevice(4, 1, ti.Ring)
	l, _ := ti.NewLayout(d, [][]int{{0}})
	c := circuit.New("empty", 1)
	res, err := Evaluate(c, l, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if res.SerialMicros != 0 || res.ParallelMicros != 0 || res.Speedup() != 1 {
		t.Fatalf("empty result = %+v", res)
	}
	if res.CriticalPath != nil {
		t.Fatalf("empty circuit should have nil critical path")
	}
}

func TestCriticalPathOrderingAndMembership(t *testing.T) {
	c, l := fig3(t)
	lat := DefaultLatencies()
	res, err := Evaluate(c, l, lat)
	if err != nil {
		t.Fatal(err)
	}
	path := res.CriticalPath
	// Path must be q3q4 (label "q2q3"), q4q5 ("q3q4"), q5q6 ("q4q5").
	want := []string{"q2q3", "q3q4", "q4q5"}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("critical path = %v, want %v", path, want)
	}
}

func TestChainUtilization(t *testing.T) {
	c, l := fig3(t)
	lat := DefaultLatencies()
	util := ChainUtilization(c, l, lat)
	if len(util) != 2 {
		t.Fatalf("util length = %d", len(util))
	}
	// Chain 0 runs gates q1q2, q3q4, q2q3, q4q5 → 100+100+100+200 = 500µs
	// busy over a 400µs window, clamped to 1.0.
	if util[0] != 1.0 {
		t.Errorf("chain0 utilization = %v, want 1.0 (clamped)", util[0])
	}
	// Chain 1 runs q6q7, q4q5, q5q6 → 100+200+100 = 400 over 400 = 1.0.
	if math.Abs(util[1]-1.0) > 1e-9 {
		t.Errorf("chain1 utilization = %v, want 1.0", util[1])
	}
	// Empty circuit → all zero.
	empty := circuit.New("e", 7)
	for _, u := range ChainUtilization(empty, l, lat) {
		if u != 0 {
			t.Errorf("empty circuit utilization should be 0, got %v", u)
		}
	}
}

func TestAlphaOneRemovesWeakPenalty(t *testing.T) {
	c, l := fig3(t)
	lat := Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: 1}
	// With α=1 every 2q gate costs γ; serial = 6γ = 600.
	if got := SerialTime(c, l, lat); got != 600 {
		t.Fatalf("serial @α=1 = %v, want 600", got)
	}
	if got := ParallelTime(c, l, lat); got != 300 {
		t.Fatalf("parallel @α=1 = %v, want 300 ((1+1)γ+γ)", got)
	}
}

func TestSpeedupZeroParallel(t *testing.T) {
	r := Result{SerialMicros: 10, ParallelMicros: 0}
	if r.Speedup() != 0 {
		t.Fatalf("degenerate speedup = %v", r.Speedup())
	}
}

func TestGraphDOTHasStartNodes(t *testing.T) {
	c, l := fig3(t)
	dot := DOT("fig3", c, l, DefaultLatencies())
	if n := strings.Count(dot, "doublecircle"); n != 3 {
		t.Fatalf("DOT should mark 3 start nodes, got %d", n)
	}
}

func TestDOTOutput(t *testing.T) {
	c, l := fig3(t)
	dot := DOT("fig3", c, l, DefaultLatencies())
	for _, want := range []string{
		"digraph \"fig3\" {\n",
		"  n0 [label=\"q0q1\" shape=doublecircle];\n",
		"  n3 [label=\"q3q4\" shape=circle];\n",
		// Figure 3's weights: q3q4 → q4q5 is (1+α)γ, q4q5 → q5q6 is γ.
		"  n1 -> n3 [label=\"300\"];\n",
		"  n3 -> n4 [label=\"100\"];\n",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	if !strings.HasSuffix(dot, "}\n") {
		t.Errorf("DOT output not closed:\n%s", dot)
	}
	// One node line per gate, one edge line per dependency edge.
	if n := strings.Count(dot, " -> "); n != len(c.DependencyEdges()) {
		t.Errorf("DOT has %d edges, want %d", n, len(c.DependencyEdges()))
	}
	if n := strings.Count(dot, "shape="); n != c.NumGates() {
		t.Errorf("DOT has %d nodes, want %d", n, c.NumGates())
	}
}
