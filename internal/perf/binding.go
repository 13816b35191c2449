package perf

// This file splits the evaluator's hot path at the point where the timing
// model enters. Evaluate classifies every gate against a layout (1-qubit,
// 2-qubit intra-chain, or 2-qubit weak-link) and then prices the classes
// under one Latencies. The classification — Bind — depends only on
// (circuit, layout); the pricing — Time — is where α and the other
// Table III knobs appear. Separating the two lets sweep engines reuse one
// Binding across every α cell (internal/core's stage pipeline caches them)
// and lets TimeAll price many latency models in a single pass over the
// gate list instead of one independent dynamic program per model.
//
// Pricing runs the one finish-time kernel (kernel.go) over the binding's
// operand and class arrays. Bit-exactness contract: Binding.Time(lat)
// equals Evaluate(c, l, lat) field for field — including float bit
// patterns and critical-path tie-breaking — and TimeAll(lats)[i] equals
// Time(lats[i]). The property tests pin both.

import (
	"fmt"
	"sync"

	"velociti/internal/circuit"
	"velociti/internal/ti"
)

// GateClass is a gate's latency class under one layout.
type GateClass uint8

const (
	// ClassOneQ is a 1-qubit gate (latency δ).
	ClassOneQ GateClass = iota
	// ClassTwoQIntra is a 2-qubit gate within one chain (latency γ).
	ClassTwoQIntra
	// ClassTwoQWeak is a 2-qubit gate across a weak link (latency α·γ).
	ClassTwoQWeak
	numClasses
)

// NumGateClasses is the number of distinct gate latency classes; per-class
// tables (e.g. the fidelity estimator's error LUT) are indexed by GateClass
// and sized by this constant.
const NumGateClasses = int(numClasses)

// Binding is the layout-dependent but latency-independent artifact of one
// (circuit, layout) pair: per-gate latency classes over the evaluator's
// operand tables, plus the weak-gate and links-used counts. A Binding is immutable
// after construction and safe for concurrent use, so sweep engines share
// one across α cells and worker goroutines.
type Binding struct {
	ev      *Evaluator
	classes []GateClass
	weak    int
	links   int
	// transport is the shuttle timing backend's per-gate path plan,
	// attached once by AttachTransport (the backend's Prepare hook) before
	// the binding is shared; nil under the weak-link backend.
	transport *transportPlan
}

// Bind classifies every gate of the evaluator's circuit under layout l.
func (e *Evaluator) Bind(l *ti.Layout) (*Binding, error) {
	if e.c.NumQubits() > l.NumQubits() {
		return nil, fmt.Errorf("perf: circuit has %d qubits but layout places only %d", e.c.NumQubits(), l.NumQubits())
	}
	return e.bind(l), nil
}

// bind is Bind without the width check: a gate on a qubit the layout does
// not place fails the chain lookup. A fresh classes slice is already
// ClassOneQ (zero), so 1-qubit gates need no store.
func (e *Evaluator) bind(l *ti.Layout) *Binding {
	b := &Binding{ev: e, classes: make([]GateClass, e.n)}
	cl := newClassifier(l)
	for i := 0; i < e.n; i++ {
		if e.twoQ[i] {
			b.classes[i] = cl.twoQubit(int(e.qa[i]), int(e.qb[i]))
		}
	}
	b.weak, b.links = cl.weak, cl.links
	cl.release()
	return b
}

// BindCircuitScratch builds a pooled evaluator for c and its binding under
// l. The result is indistinguishable from NewEvaluator followed by Bind
// (the sweep property tests pin it against Stages.Bind); recycle it via
// RecycleEvaluator(b.Evaluator()).
func BindCircuitScratch(c *circuit.Circuit, l *ti.Layout) (*Binding, error) {
	if c.NumQubits() > l.NumQubits() {
		return nil, fmt.Errorf("perf: circuit has %d qubits but layout places only %d", c.NumQubits(), l.NumQubits())
	}
	return bindCircuit(c, l), nil
}

// bindCircuit is BindCircuitScratch without the width check.
func bindCircuit(c *circuit.Circuit, l *ti.Layout) *Binding {
	e, _ := evaluatorPool.Get().(*Evaluator)
	if e == nil {
		e = &Evaluator{}
	}
	return e.build(c).bind(l)
}

// classifier sorts 2-qubit gates into latency classes against one layout
// and tallies the weak (cross-chain) gates and Table I's w, the distinct
// weak links used: a cross-chain gate between directly linked chains uses
// the lowest-numbered link joining them, exactly as LinksUsed counts.
type classifier struct {
	chainOf  []int
	pairLink []int32 // pairLink[ca*nc+cb]: 1 + lowest link id joining the chains, 0 if none
	used     []bool  // used[id]: link id already counted
	nc       int
	scratch  *bindScratch

	weak, links int
}

// bindScratch is the pooled pair→link table and usage bitmap of one
// classifier.
type bindScratch struct {
	pairLink []int32
	used     []bool
}

var bindScratchPool = sync.Pool{New: func() any { return new(bindScratch) }}

// newClassifier readies a classifier for layout l over pooled tables.
func newClassifier(l *ti.Layout) classifier {
	d := l.Device()
	nc := d.NumChains()
	s := bindScratchPool.Get().(*bindScratch)
	s.pairLink = fillInt32(s.pairLink, nc*nc, 0)
	for i := len(d.WeakLinks()) - 1; i >= 0; i-- {
		wl := d.WeakLinks()[i]
		s.pairLink[wl.A.Chain*nc+wl.B.Chain] = int32(wl.ID) + 1
		s.pairLink[wl.B.Chain*nc+wl.A.Chain] = int32(wl.ID) + 1
	}
	if cap(s.used) < d.MaxWeakLinks()+1 {
		s.used = make([]bool, d.MaxWeakLinks()+1)
	}
	s.used = s.used[:d.MaxWeakLinks()+1]
	for i := range s.used {
		s.used[i] = false
	}
	return classifier{chainOf: l.ChainAssignments(), pairLink: s.pairLink, used: s.used, nc: nc, scratch: s}
}

// twoQubit classifies a 2-qubit gate on qubits qa and qb.
func (c *classifier) twoQubit(qa, qb int) GateClass {
	ca, cb := c.chainOf[qa], c.chainOf[qb]
	if ca == cb {
		return ClassTwoQIntra
	}
	c.weak++
	if id := c.pairLink[ca*c.nc+cb]; id != 0 && !c.used[id-1] {
		c.used[id-1] = true
		c.links++
	}
	return ClassTwoQWeak
}

// release returns the classifier's tables to the pool.
func (c *classifier) release() {
	bindScratchPool.Put(c.scratch)
	c.scratch = nil
}

// Evaluator returns the evaluator the binding was built from.
func (b *Binding) Evaluator() *Evaluator { return b.ev }

// NumGates returns the number of bound gates.
func (b *Binding) NumGates() int { return b.ev.n }

// NumQubits returns the circuit's qubit count.
func (b *Binding) NumQubits() int { return b.ev.c.NumQubits() }

// Class returns gate i's latency class.
func (b *Binding) Class(i int) GateClass { return b.classes[i] }

// Classes returns the per-gate latency classes in gate order. The returned
// slice is the binding's backing store and must not be modified.
func (b *Binding) Classes() []GateClass { return b.classes }

// WeakGates returns the number of cross-chain 2-qubit gates.
func (b *Binding) WeakGates() int { return b.weak }

// LinksUsed returns Table I's w: distinct weak links used by placement.
func (b *Binding) LinksUsed() int { return b.links }

// run feeds the binding's gates through k in program order. With tp
// non-nil, weak gates hand the kernel their transport segments; with
// perGate set, the kernel's latency table is indexed by gate id instead
// of gate class.
func (b *Binding) run(k *kernel, tp *transportPlan, perGate bool) {
	e := b.ev
	for i := 0; i < e.n; i++ {
		idx := int(b.classes[i])
		var segs []int32
		if tp != nil && b.classes[i] == ClassTwoQWeak {
			segs = tp.segIDs[tp.segStart[i]:tp.segStart[i+1]]
		}
		if perGate {
			idx = i
		}
		k.gate(int32(i), e.qa[i], e.qb[i], idx, segs)
	}
}

// Time prices the binding under one timing model. The Result equals
// Evaluate(c, layout, lat) on the circuit and layout the binding was
// built from, bit for bit, critical path included.
func (b *Binding) Time(lat Latencies) (Result, error) {
	res, err := b.TimeAll([]Latencies{lat})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// TimeAll prices the binding under every timing model in lats with one
// pass over the gate list, one kernel lane per model. TimeAll(lats)[i]
// equals Time(lats[i]) bit for bit — this is the parametric kernel behind
// α sweeps, where the models differ only in WeakPenalty.
func (b *Binding) TimeAll(lats []Latencies) ([]Result, error) {
	if len(lats) == 0 {
		return nil, fmt.Errorf("perf: TimeAll requires at least one timing model")
	}
	return b.timeAll(lats, nil, TransportCosts{})
}

// timeAll validates lats and prices them with critical paths, under the
// transport plan tp when it is non-nil.
func (b *Binding) timeAll(lats []Latencies, tp *transportPlan, costs TransportCosts) ([]Result, error) {
	for _, lat := range lats {
		if err := lat.Validate(); err != nil {
			return nil, err
		}
	}
	e := b.ev
	w := b.links
	if w > e.twoQGates {
		w = e.twoQGates
	}
	results := make([]Result, len(lats))
	for j, lat := range lats {
		if tp != nil {
			lat.WeakPenalty = 1
		}
		results[j] = Result{
			SerialMicros: SerialTimeFromCounts(e.oneQGates, e.twoQGates, w, lat),
			WeakGates:    b.weak,
			LinksUsed:    b.links,
		}
	}
	if e.n == 0 {
		return results, nil
	}
	k := newKernel(len(lats), e.c.NumQubits())
	k.classTables(lats, tp != nil)
	k.trackPath(e.n)
	if tp != nil {
		k.withTransport(costs, tp.numSegs)
	}
	b.run(k, tp, false)
	paths := k.criticalPaths(e.qa, e.qb)
	for j := range results {
		if tp != nil {
			results[j].SerialMicros += k.moved
		}
		results[j].SerialPerGateMicros = k.serial[j]
		results[j].ParallelMicros = k.total[j]
		results[j].CriticalPath = paths[j]
	}
	k.release()
	return results, nil
}

// ParallelTime prices only the parallel model — the makespan under ASAP
// scheduling — for one timing model, with no critical-path bookkeeping.
// It equals Time(lat).ParallelMicros exactly; fidelity estimation uses it
// for the dephasing window. Like ParallelTimeAll, it assumes an already
// validated timing model.
func (b *Binding) ParallelTime(lat Latencies) float64 {
	var dst [1]float64
	return b.ParallelTimeAll([]Latencies{lat}, dst[:0])[0]
}

// ParallelTimeAll prices the makespan under every timing model in lats
// with one pass over the gate list, with none of the critical-path
// bookkeeping. dst is reused when it has capacity; the returned slice has
// len(lats), and entry j equals ParallelTime(lats[j]) bit for bit. Like
// ParallelTime, it assumes already validated timing models.
func (b *Binding) ParallelTimeAll(lats []Latencies, dst []float64) []float64 {
	nl := len(lats)
	if cap(dst) < nl {
		dst = make([]float64, nl)
	}
	dst = dst[:nl]
	for j := range dst {
		dst[j] = 0
	}
	if nl == 0 || b.ev.n == 0 {
		return dst
	}
	k := newKernel(nl, b.ev.c.NumQubits())
	k.classTables(lats, false)
	b.run(k, nil, false)
	copy(dst, k.total)
	k.release()
	return dst
}

// ParallelTimeTable prices the makespan with an arbitrary per-gate latency
// table — latency[i] is gate i's latency, one entry per bound gate —
// instead of a timing model: the
// hook alternative communication substrates (internal/shuttle's transport
// comparison) price their cost models through.
func (b *Binding) ParallelTimeTable(latency []float64) float64 {
	if b.ev.n == 0 {
		return 0
	}
	k := newKernel(1, b.ev.c.NumQubits())
	k.gateTable(latency[:b.ev.n])
	b.run(k, nil, true)
	total := k.total[0]
	k.release()
	return total
}
