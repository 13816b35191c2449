package dag

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// edge is one weighted edge of a test graph.
type edge struct {
	u, v int
	w    float64
}

// graph is a test-side edge list over nodes [0, n).
type graph struct {
	n     int
	edges []edge
}

// csr snapshots the edge list, successors grouped by source in ascending
// target order; Forward is set when every edge points to a higher id.
func (g graph) csr() CSR {
	es := append([]edge(nil), g.edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	c := CSR{Heads: make([]int32, g.n+1), Targets: make([]int32, len(es)), Weights: make([]float64, len(es)), Forward: true}
	for i, e := range es {
		c.Heads[e.u+1]++
		c.Targets[i] = int32(e.v)
		c.Weights[i] = e.w
		if e.v <= e.u {
			c.Forward = false
		}
	}
	for u := 0; u < g.n; u++ {
		c.Heads[u+1] += c.Heads[u]
	}
	return c
}

// bruteLongest enumerates every directed path of an acyclic graph and
// returns the heaviest total weight (0 for a graph without edges).
func (g graph) bruteLongest() float64 {
	succ := make([][]edge, g.n)
	for _, e := range g.edges {
		succ[e.u] = append(succ[e.u], e)
	}
	best := 0.0
	var walk func(u int, acc float64)
	walk = func(u int, acc float64) {
		if acc > best {
			best = acc
		}
		for _, e := range succ[u] {
			walk(e.v, acc+e.w)
		}
	}
	for u := 0; u < g.n; u++ {
		walk(u, 0)
	}
	return best
}

// diamond is a → b → d and a → c → d, with the heavier path through c.
func diamond() graph {
	return graph{n: 4, edges: []edge{{0, 1, 1}, {0, 2, 2}, {1, 3, 1}, {2, 3, 3}}}
}

// randomForwardDAG builds a random graph whose edges all point to higher
// ids.
func randomForwardDAG(r *rand.Rand, n int, p float64) graph {
	g := graph{n: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.edges = append(g.edges, edge{u, v, float64(r.Intn(200)) + r.Float64()})
			}
		}
	}
	return g
}

// randomDAG builds a DAG whose topological order is a random permutation
// of the ids, so its CSR is not Forward and LongestPath runs Kahn's
// algorithm.
func randomDAG(r *rand.Rand, n, extraEdges int) graph {
	g := graph{n: n}
	perm := r.Perm(n)
	seen := map[[2]int]bool{}
	for k := 0; k < extraEdges; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		if perm[i] > perm[j] {
			i, j = j, i
		}
		if !seen[[2]int{i, j}] {
			seen[[2]int{i, j}] = true
			g.edges = append(g.edges, edge{i, j, float64(r.Intn(10) + 1)})
		}
	}
	return g
}

func TestLongestPathDiamond(t *testing.T) {
	c := diamond().csr()
	if got, err := c.LongestPath(nil); err != nil || got != 5 {
		t.Fatalf("LongestPath = %v, %v; want 5", got, err)
	}
	c.Forward = false
	if got, err := c.LongestPath(nil); err != nil || got != 5 {
		t.Fatalf("Kahn branch = %v, %v; want 5", got, err)
	}
}

func TestLongestPathParallelChains(t *testing.T) {
	// Two disconnected chains; the heavier one must win.
	g := graph{n: 5, edges: []edge{{0, 1, 10}, {1, 2, 10}, {3, 4, 100}}}
	c := g.csr()
	if got, err := c.LongestPath(nil); err != nil || got != 100 {
		t.Fatalf("LongestPath = %v, %v; want 100", got, err)
	}
}

func TestLongestPathFromPerNode(t *testing.T) {
	c := diamond().csr()
	var s Scratch
	_, dist, err := c.LongestPathInto(&s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 2, 5}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	// An acyclic prefix (0 → 1) feeding a cycle (1 → 2 → 3 → 1): Kahn's
	// pass orders the prefix, then runs out of ready nodes.
	c := graph{n: 4, edges: []edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 1, 1}}}.csr()
	if _, err := c.LongestPath(nil); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
}

func TestLongestPathCycleError(t *testing.T) {
	c := graph{n: 2, edges: []edge{{0, 1, 1}, {1, 0, 1}}}.csr()
	if c.Forward {
		t.Fatalf("cyclic graph marked Forward")
	}
	if _, err := c.LongestPath(nil); err != ErrCycle {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	var s Scratch
	if _, _, err := c.LongestPathInto(&s); err != ErrCycle {
		t.Fatalf("want ErrCycle from LongestPathInto, got %v", err)
	}
}

func TestSelfLoopIsCycle(t *testing.T) {
	c := graph{n: 1, edges: []edge{{0, 0, 1}}}.csr()
	if _, err := c.LongestPath(nil); err != ErrCycle {
		t.Fatalf("self-loop: want ErrCycle, got %v", err)
	}
}

// Property: on small DAGs numbered out of topological order, Kahn's
// branch of LongestPath equals exhaustive enumeration.
func TestLongestPathMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	var scratch Scratch
	for trial := 0; trial < 200; trial++ {
		g := randomDAG(r, 2+r.Intn(8), r.Intn(14))
		want := g.bruteLongest()
		c := g.csr()
		if got, err := c.LongestPath(&scratch); err != nil || got != want {
			t.Fatalf("trial %d: LongestPath = %v, %v; brute force %v", trial, got, err, want)
		}
	}
}

// Property: on forward-numbered DAGs, the forward fast path and Kahn's
// branch agree exactly, and both equal the graph's exhaustive longest path.
func TestCSRLongestPathMatchesGraph(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var scratch Scratch
	for trial := 0; trial < 100; trial++ {
		g := randomForwardDAG(r, r.Intn(14), r.Float64()*0.4)
		want := g.bruteLongest()
		c := g.csr()
		if !c.Forward {
			t.Fatalf("trial %d: forward-edged graph not marked Forward", trial)
		}
		got, err := c.LongestPath(&scratch)
		if err != nil {
			t.Fatal(err)
		}
		c.Forward = false
		slow, err := c.LongestPath(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Enumeration sums a path's weights in a different order than the
		// relaxation does, so the comparison allows rounding.
		if diff := got - want; diff > 1e-9 || diff < -1e-9 || got != slow {
			t.Fatalf("trial %d: forward %v, Kahn %v, brute force %v", trial, got, slow, want)
		}
	}
}

// Property: the per-node distances satisfy the longest-path recurrence —
// each node's distance is the maximum over its in-edges of the source's
// distance plus the edge weight (0 with no in-edge) — and the reported
// length is the largest distance.
func TestLongestPathIsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		g := randomDAG(r, 2+r.Intn(15), r.Intn(30))
		c := g.csr()
		best, dist, err := c.LongestPathInto(&s)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, g.n)
		for _, e := range g.edges {
			if d := dist[e.u] + e.w; d > want[e.v] {
				want[e.v] = d
			}
		}
		top := 0.0
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("trial %d: dist[%d] = %v, recurrence gives %v", trial, v, dist[v], want[v])
			}
			if dist[v] > top {
				top = dist[v]
			}
		}
		if best != top {
			t.Fatalf("trial %d: LongestPath %v, largest distance %v", trial, best, top)
		}
	}
}

// Property: renumbering a DAG's nodes in a topological order does not
// change its longest path — Kahn's algorithm over the scrambled ids agrees
// with the forward fast path over the sorted ones.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomForwardDAG(r, 1+r.Intn(20), 0.2)
		perm := r.Perm(g.n)
		scrambled := graph{n: g.n}
		for _, e := range g.edges {
			scrambled.edges = append(scrambled.edges, edge{perm[e.u], perm[e.v], e.w})
		}
		sorted := g.csr()
		kahn := scrambled.csr()
		kahn.Forward = false
		a, errA := sorted.LongestPath(nil)
		b, errB := kahn.LongestPath(nil)
		return errA == nil && errB == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRLongestPathInto(t *testing.T) {
	c := graph{n: 4, edges: []edge{{0, 1, 3}, {1, 2, 4}, {0, 3, 10}}}.csr()
	var s Scratch
	best, dist, err := c.LongestPathInto(&s)
	if err != nil {
		t.Fatal(err)
	}
	if best != 10 {
		t.Fatalf("best = %g", best)
	}
	want := []float64{0, 3, 7, 10}
	for i, d := range dist {
		if d != want[i] {
			t.Fatalf("dist[%d] = %g, want %g", i, d, want[i])
		}
	}
}

func TestCSRCycleDetected(t *testing.T) {
	snap := graph{n: 3, edges: []edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}}.csr()
	if snap.Forward {
		t.Fatalf("cyclic graph marked Forward")
	}
	if _, err := snap.LongestPath(nil); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestCSREmptyAndIsolated(t *testing.T) {
	var empty CSR
	if got, err := empty.LongestPath(nil); err != nil || got != 0 {
		t.Fatalf("empty: %g, %v", got, err)
	}
	c := graph{n: 1}.csr()
	if got, err := c.LongestPath(nil); err != nil || got != 0 {
		t.Fatalf("isolated: %g, %v", got, err)
	}
}

func TestLongestPathEmptyAndIsolated(t *testing.T) {
	// Kahn's branch: no nodes, then nodes without edges.
	empty := CSR{Heads: []int32{0}}
	if got, err := empty.LongestPath(nil); err != nil || got != 0 {
		t.Fatalf("empty: %g, %v", got, err)
	}
	c := graph{n: 3}.csr()
	c.Forward = false
	if got, err := c.LongestPath(nil); err != nil || got != 0 {
		t.Fatalf("isolated: %g, %v", got, err)
	}
}

func TestScratchReuseAcrossSizes(t *testing.T) {
	var s Scratch
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{50, 5, 120, 1} {
		g := randomForwardDAG(r, n, 0.2)
		c := g.csr()
		want, err := c.LongestPath(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.LongestPath(&s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("n=%d: pooled scratch %g, fresh %g", n, got, want)
		}
	}
}
