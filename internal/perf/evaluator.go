package perf

// This file holds the layout-independent half of the hot path. Every data
// point in the paper's evaluation averages 35 randomized trials over one
// circuit; an Evaluator flattens that circuit once into int32 operand
// tables, which Bind classifies per layout and the finish-time kernel
// (kernel.go) prices. For the annealer's delta engine it also builds,
// lazily, the dependency CSR of §IV-C's gate graph with Figure 3's edge
// weights (LongestPath, DeltaEval).

import (
	"fmt"
	"sync"

	"velociti/internal/circuit"
	"velociti/internal/dag"
	"velociti/internal/ti"
)

// Evaluator caches the layout-independent structure of one circuit — the
// operand tables, the gate counts, and (lazily) the dependency CSR of
// §IV-C's gate graph — and binds layouts against those flat arrays. An
// Evaluator is immutable after construction and safe for concurrent use;
// worker-pool trial runners share one per circuit.
type Evaluator struct {
	c *circuit.Circuit
	n int

	// heads/targets is the successor CSR of the dependency edges
	// (circuit.DependencyEdges semantics): an edge u→v means gate v is the
	// next gate after u touching one of u's qubits. Gates are emitted in
	// program order, so every edge points forward.
	heads   []int32
	targets []int32
	// isStart[i] reports gate i has no predecessor (a paper "start node").
	isStart []bool
	// twoQ[i] reports gate i acts on two qubits; qa/qb are its operands
	// (qb == -1 for 1-qubit gates).
	twoQ   []bool
	qa, qb []int32

	oneQGates, twoQGates int

	// buildLast/buildCursor are construction temporaries kept on the
	// struct so a recycled evaluator's rebuild is allocation-free. They
	// are never read after construction returns.
	buildLast, buildCursor []int32

	// csr guards the lazy dependency CSR: the kernel prices gates off the
	// operand tables alone, so heads/targets/isStart are only
	// materialized when a CSR walk (LongestPath, NumEdges, DeltaEval)
	// first asks for them. One heap object per build — build resets it by
	// pointer swap, since copying a sync.Once would trip the copylocks
	// vet.
	csr *sync.Once
}

// evalScratch is the pooled working memory of one LongestPath.
type evalScratch struct {
	latency []float64
	weights []float64
	dag     dag.Scratch
}

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

func (s *evalScratch) grow(n int) {
	if cap(s.latency) < n {
		s.latency = make([]float64, n)
	}
	s.latency = s.latency[:n]
}

// NewEvaluator flattens the circuit's dependency structure. The circuit
// must not be mutated while the evaluator is in use.
func NewEvaluator(c *circuit.Circuit) *Evaluator {
	return (&Evaluator{}).build(c)
}

// evaluatorPool holds retired evaluators whose flat arrays
// BindCircuitScratch rebuilds in place. Only evaluators explicitly handed
// back through RecycleEvaluator ever land here.
var evaluatorPool sync.Pool

// RecycleEvaluator retires e's storage for reuse by BindCircuitScratch.
// The caller must own every live reference to e, including any Binding
// built from it — a later BindCircuitScratch rebuilds the arrays in
// place. Trial loops that evaluate and discard use this to stay
// allocation-flat; cached evaluators must never be recycled.
func RecycleEvaluator(e *Evaluator) {
	if e == nil {
		return
	}
	evaluatorPool.Put(e)
}

// growInt32 returns s resized to n without clearing retained elements.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// build (re)constructs the evaluator for c, reusing whatever array capacity
// the struct already carries. Only the operand tables and gate counts are
// filled here; the dependency CSR is deferred to ensureCSR, since the
// binding/pricing path never walks it.
func (e *Evaluator) build(c *circuit.Circuit) *Evaluator {
	n := c.NumGates()
	e.c = c
	e.n = n
	e.oneQGates, e.twoQGates = 0, 0
	e.csr = new(sync.Once)
	e.qa = growInt32(e.qa, n)
	e.qb = growInt32(e.qb, n)
	if cap(e.twoQ) < n {
		e.twoQ = make([]bool, n)
	}
	e.twoQ = e.twoQ[:n]
	gs := c.Gates()
	for i := range gs {
		g := &gs[i]
		id := int32(g.ID)
		e.qa[id] = int32(g.Qubits[0])
		e.qb[id] = -1
		e.twoQ[id] = false
		if g.IsTwoQubit() {
			e.twoQ[id] = true
			e.qb[id] = int32(g.Qubits[1])
			e.twoQGates++
		} else if len(g.Qubits) == 1 {
			e.oneQGates++
		}
	}
	return e
}

// ensureCSR materializes heads/targets/isStart on first use.
func (e *Evaluator) ensureCSR() { e.csr.Do(e.buildCSR) }

// buildCSR constructs the successor CSR and start-node flags from the
// operand tables build filled.
func (e *Evaluator) buildCSR() {
	n := e.n
	e.heads = growInt32(e.heads, n+1)
	for i := range e.heads {
		e.heads[i] = 0
	}
	if cap(e.isStart) < n {
		e.isStart = make([]bool, n)
	}
	e.isStart = e.isStart[:n]
	for i := range e.isStart {
		e.isStart[i] = true
	}
	e.buildLast = growInt32(e.buildLast, e.c.NumQubits())
	last := e.buildLast
	for i := range last {
		last[i] = -1
	}
	// First pass: per-source out-degrees (into heads, shifted by one for
	// the prefix sum) and start flags.
	for id := int32(0); id < int32(n); id++ {
		p0 := last[e.qa[id]]
		p1 := int32(-1)
		if e.qb[id] >= 0 {
			p1 = last[e.qb[id]]
		}
		if p0 >= 0 {
			e.heads[p0+1]++
			e.isStart[id] = false
		}
		if p1 >= 0 && p1 != p0 {
			e.heads[p1+1]++
			e.isStart[id] = false
		}
		last[e.qa[id]] = id
		if e.qb[id] >= 0 {
			last[e.qb[id]] = id
		}
	}
	for u := 0; u < n; u++ {
		e.heads[u+1] += e.heads[u]
	}
	e.targets = growInt32(e.targets, int(e.heads[n]))
	// Second pass: fill targets. Iterating gates in program order appends
	// ascending targets to each source's slot range, so the CSR comes out
	// sorted in circuit.DependencyEdges order.
	e.buildCursor = growInt32(e.buildCursor, n)
	cursor := e.buildCursor
	for i := range cursor {
		cursor[i] = 0
	}
	for i := range last {
		last[i] = -1
	}
	for id := int32(0); id < int32(n); id++ {
		p0 := last[e.qa[id]]
		p1 := int32(-1)
		if e.qb[id] >= 0 {
			p1 = last[e.qb[id]]
		}
		if p0 >= 0 {
			e.targets[e.heads[p0]+cursor[p0]] = id
			cursor[p0]++
		}
		if p1 >= 0 && p1 != p0 {
			e.targets[e.heads[p1]+cursor[p1]] = id
			cursor[p1]++
		}
		last[e.qa[id]] = id
		if e.qb[id] >= 0 {
			last[e.qb[id]] = id
		}
	}
}

// Circuit returns the circuit this evaluator was built for.
func (e *Evaluator) Circuit() *circuit.Circuit { return e.c }

// NumEdges returns the number of dependency edges in the cached graph.
func (e *Evaluator) NumEdges() int {
	e.ensureCSR()
	return len(e.targets)
}

// gateLatencies fills dst[i] with gate i's latency under (l, lat).
func (e *Evaluator) gateLatencies(dst []float64, l *ti.Layout, lat Latencies) {
	weakLat := lat.WeakPenalty * lat.TwoQubit
	for i := 0; i < e.n; i++ {
		switch {
		case !e.twoQ[i]:
			dst[i] = lat.OneQubit
		case l.SameChain(int(e.qa[i]), int(e.qb[i])):
			dst[i] = lat.TwoQubit
		default:
			dst[i] = weakLat
		}
	}
}

// LongestPath computes the maximum-weight path of §IV-C's gate graph
// (Figure 3's edge weights, as DOT renders them) by filling edge weights
// over the cached CSR and running internal/dag's index-based kernel. It is
// the edge-weighted form the delta engine prices incrementally; an
// isolated gate has no edge and therefore contributes nothing.
func (e *Evaluator) LongestPath(l *ti.Layout, lat Latencies) float64 {
	if e.n == 0 {
		return 0
	}
	e.ensureCSR()
	s := evalPool.Get().(*evalScratch)
	s.grow(e.n)
	e.gateLatencies(s.latency, l, lat)
	if cap(s.weights) < len(e.targets) {
		s.weights = make([]float64, len(e.targets))
	}
	s.weights = s.weights[:len(e.targets)]
	for u := 0; u < e.n; u++ {
		for i := e.heads[u]; i < e.heads[u+1]; i++ {
			w := s.latency[e.targets[i]]
			if e.isStart[u] {
				w += s.latency[u]
			}
			s.weights[i] = w
		}
	}
	csr := dag.CSR{Heads: e.heads, Targets: e.targets, Weights: s.weights, Forward: true}
	length, err := csr.LongestPath(&s.dag)
	evalPool.Put(s)
	if err != nil {
		// The cached CSR is forward-edged by construction; a cycle is
		// impossible.
		panic(fmt.Sprintf("perf: dependency CSR reported cycle: %v", err))
	}
	return length
}
