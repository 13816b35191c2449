package perf

// This file is the paper-literal oracle the timing entry points are
// checked against. It shares no code with the kernel: Eq. 1–2 is
// evaluated from gate counts and the links-used rule of Table I, and the
// parallel time is the longest path through §IV-C's gate graph with
// Figure 3's edge weights — an edge a→b between consecutive gates sharing
// a qubit weighs b's latency, plus a's latency when a is a start node —
// where a gate with no edge at all counts at its own latency. The type is
// exported so the external perf_test package can use it too.

import (
	"sort"

	"velociti/internal/circuit"
	"velociti/internal/ti"
)

// OracleGraph is §IV-C's gate graph of one placed circuit under one
// timing model.
type OracleGraph struct {
	labels  []string
	latency []float64         // per gate: δ, γ or α·γ (Eq. 2's classes)
	succ    []map[int]float64 // succ[u][v]: weight of edge u→v
	indeg   []int
	edges   int

	oneQ, twoQ, links int
	lat               Latencies
}

// OracleLongestPath is the outcome of OracleGraph.LongestPath.
type OracleLongestPath struct {
	Length float64
}

// NewOracleGraph builds the gate graph of c placed by l under lat.
func NewOracleGraph(c *circuit.Circuit, l *ti.Layout, lat Latencies) *OracleGraph {
	n := c.NumGates()
	g := &OracleGraph{labels: c.Labels(), latency: make([]float64, n), succ: make([]map[int]float64, n), indeg: make([]int, n), lat: lat}
	used := map[int]bool{}
	for i, gate := range c.Gates() {
		switch {
		case len(gate.Qubits) == 1:
			g.oneQ++
			g.latency[i] = lat.OneQubit
		case l.ChainOf(gate.Qubits[0]) == l.ChainOf(gate.Qubits[1]):
			g.twoQ++
			g.latency[i] = lat.TwoQubit
		default:
			g.twoQ++
			g.latency[i] = lat.WeakPenalty * lat.TwoQubit
			// Table I's w: a cross-chain gate between directly linked
			// chains uses the lowest-numbered link joining them.
			ca, cb := l.ChainOf(gate.Qubits[0]), l.ChainOf(gate.Qubits[1])
			var ids []int
			for _, wl := range l.Device().WeakLinks() {
				if (wl.A.Chain == ca && wl.B.Chain == cb) || (wl.A.Chain == cb && wl.B.Chain == ca) {
					ids = append(ids, wl.ID)
				}
			}
			if len(ids) > 0 {
				sort.Ints(ids)
				used[ids[0]] = true
			}
		}
	}
	g.links = len(used)
	// Edges join each gate to the previous gate on each of its qubits.
	type dep struct{ from, to int }
	var deps []dep
	for i, gate := range c.Gates() {
		for _, q := range gate.Qubits {
			for p := i - 1; p >= 0; p-- {
				if c.Gate(p).Touches(q) {
					deps = append(deps, dep{p, i})
					break
				}
			}
		}
	}
	for _, d := range deps {
		g.indeg[d.to]++
	}
	for _, d := range deps {
		if g.succ[d.from] == nil {
			g.succ[d.from] = map[int]float64{}
		}
		if _, dup := g.succ[d.from][d.to]; dup {
			g.indeg[d.to]--
			continue
		}
		w := g.latency[d.to]
		if g.indeg[d.from] == 0 {
			w += g.latency[d.from]
		}
		g.succ[d.from][d.to] = w
		g.edges++
	}
	return g
}

// NumNodes returns the gate count.
func (g *OracleGraph) NumNodes() int { return len(g.labels) }

// NumEdges returns the number of dependency edges.
func (g *OracleGraph) NumEdges() int { return g.edges }

// Label returns gate id's SSA label.
func (g *OracleGraph) Label(id int) string { return g.labels[id] }

// Latency returns gate id's latency.
func (g *OracleGraph) Latency(id int) float64 { return g.latency[id] }

// InDegree returns the number of edges into id.
func (g *OracleGraph) InDegree(id int) int { return g.indeg[id] }

// OutDegree returns the number of edges out of id.
func (g *OracleGraph) OutDegree(id int) int { return len(g.succ[id]) }

// StartNodes returns the gates with no predecessor, ascending.
func (g *OracleGraph) StartNodes() []int {
	var out []int
	for id, d := range g.indeg {
		if d == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Weight returns the weight of edge u→v and whether it exists.
func (g *OracleGraph) Weight(u, v int) (float64, bool) {
	w, ok := g.succ[u][v]
	return w, ok
}

// LongestPath returns the heaviest edge-weighted path. Gates are in
// program order and edges point forward, so one ascending pass relaxes
// every path.
func (g *OracleGraph) LongestPath() (OracleLongestPath, error) {
	dist := make([]float64, len(g.labels))
	best := 0.0
	for u := range dist {
		if dist[u] > best {
			best = dist[u]
		}
		for v, w := range g.succ[u] {
			if d := dist[u] + w; d > dist[v] {
				dist[v] = d
			}
		}
	}
	return OracleLongestPath{Length: best}, nil
}

// BruteForceLongest enumerates every path of the graph — exponential, for
// small circuits only — and returns the heaviest.
func (g *OracleGraph) BruteForceLongest() float64 {
	best := 0.0
	var walk func(u int, acc float64)
	walk = func(u int, acc float64) {
		if acc > best {
			best = acc
		}
		for v, w := range g.succ[u] {
			walk(v, acc+w)
		}
	}
	for u := range g.labels {
		walk(u, 0)
	}
	return best
}

// ParallelTime is the parallel model: the longest path, where a gate with
// no edge at all counts at its own latency.
func (g *OracleGraph) ParallelTime() float64 {
	lp, _ := g.LongestPath()
	t := lp.Length
	for id := range g.labels {
		if g.InDegree(id) == 0 && g.OutDegree(id) == 0 && g.latency[id] > t {
			t = g.latency[id]
		}
	}
	return t
}

// SerialTime is Eq. 1–2: t = q·δ + w·α·γ + (p−w)·γ, with w the weak links
// used (clamped to p).
func (g *OracleGraph) SerialTime() float64 {
	w := g.links
	if w > g.twoQ {
		w = g.twoQ
	}
	l := g.lat
	return float64(g.oneQ)*l.OneQubit + float64(w)*l.WeakPenalty*l.TwoQubit + float64(g.twoQ-w)*l.TwoQubit
}

// LinksUsed is Table I's w.
func (g *OracleGraph) LinksUsed() int { return g.links }
