// Package dag holds the index-based longest-path kernels behind the
// edge-weighted form of VelociTI's parallel model (§IV-C/D of the paper):
// the gate-dependency graph with Figure 3's edge weights, where a gate's
// latency lives on its incoming edges.
//
// CSR is a read-only compressed-sparse-row snapshot over dense int32 node
// ids; LongestPath walks it once, allocation-free when the caller reuses a
// Scratch. Delta (delta.go) keeps the per-node distances of one CSR up to
// date under edge-weight changes, re-relaxing only the affected cone —
// the incremental evaluator simulated-annealing placement runs on. The
// parallel model's plain finish times do not need a graph at all: the
// per-qubit frontier kernel in internal/perf computes them directly.
package dag

import "errors"

// ErrCycle is returned by algorithms that require acyclicity when the graph
// contains a directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// CSR is a compressed-sparse-row snapshot of a weighted directed graph.
// Node ids are dense [0, NumNodes). The successors of node u are
// Targets[Heads[u]:Heads[u+1]] with matching edge weights in
// Weights[Heads[u]:Heads[u+1]].
type CSR struct {
	// Heads has length NumNodes+1; Heads[0] is 0 and Heads[len(Heads)-1]
	// is the edge count.
	Heads []int32
	// Targets holds destination node ids grouped by source.
	Targets []int32
	// Weights holds the edge weight parallel to Targets.
	Weights []float64
	// Forward records that every edge satisfies source < target, i.e. the
	// node numbering is already a topological order. Builders that emit
	// gates in program order (the performance model does) set it to let
	// LongestPath skip Kahn's algorithm entirely.
	Forward bool
}

// NumNodes returns the number of nodes in the snapshot.
func (c *CSR) NumNodes() int {
	if len(c.Heads) == 0 {
		return 0
	}
	return len(c.Heads) - 1
}

// NumEdges returns the number of edges in the snapshot.
func (c *CSR) NumEdges() int { return len(c.Targets) }

// Scratch holds the reusable working memory of the CSR kernels. The zero
// value is ready to use; buffers grow on demand and are retained across
// calls, so a Scratch kept in a sync.Pool makes repeated longest-path
// evaluations allocation-free.
type Scratch struct {
	dist  []float64
	indeg []int32
	queue []int32
}

// grow returns the three buffers sized for n nodes, reusing capacity.
func (s *Scratch) grow(n int) (dist []float64, indeg, queue []int32) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.indeg = make([]int32, n)
		s.queue = make([]int32, 0, n)
	}
	s.dist = s.dist[:n]
	s.indeg = s.indeg[:n]
	for i := range s.dist {
		s.dist[i] = 0
		s.indeg[i] = 0
	}
	return s.dist, s.indeg, s.queue[:0]
}

// LongestPath computes the maximum total edge weight over all directed
// paths in the snapshot, without building path bookkeeping. scratch may be nil (a temporary one is
// used); passing one kept in a pool makes the call allocation-free. Returns
// ErrCycle when the snapshot is cyclic.
func (c *CSR) LongestPath(scratch *Scratch) (float64, error) {
	n := c.NumNodes()
	if n == 0 {
		return 0, nil
	}
	if scratch == nil {
		scratch = &Scratch{}
	}
	if c.Forward {
		dist, _, _ := scratch.grow(n)
		best := 0.0
		for u := 0; u < n; u++ {
			du := dist[u]
			if du > best {
				best = du
			}
			for i := c.Heads[u]; i < c.Heads[u+1]; i++ {
				v := c.Targets[i]
				if d := du + c.Weights[i]; d > dist[v] {
					dist[v] = d
				}
			}
		}
		return best, nil
	}
	dist, indeg, queue := scratch.grow(n)
	for _, v := range c.Targets {
		indeg[v]++
	}
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, int32(u))
		}
	}
	best := 0.0
	processed := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		du := dist[u]
		if du > best {
			best = du
		}
		for i := c.Heads[u]; i < c.Heads[u+1]; i++ {
			v := c.Targets[i]
			if d := du + c.Weights[i]; d > dist[v] {
				dist[v] = d
			}
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	scratch.queue = queue
	if processed != n {
		return 0, ErrCycle
	}
	return best, nil
}

// LongestPathInto runs the kernel and additionally exposes the per-node
// distances (heaviest path ending at each node) in scratch's dist buffer.
// The returned slice aliases scratch and is valid until the next call using
// the same Scratch. scratch must not be nil.
func (c *CSR) LongestPathInto(scratch *Scratch) (float64, []float64, error) {
	best, err := c.LongestPath(scratch)
	if err != nil {
		return 0, nil, err
	}
	return best, scratch.dist[:c.NumNodes()], nil
}
