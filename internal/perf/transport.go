package perf

// This file prices the shuttle timing backend. Where
// the weak-link model charges a cross-chain gate a flat α·γ, the shuttle
// model charges what the QCCD hardware actually does: split the ion out
// of its chain, move it one weak-link segment per hop toward the target
// chain, merge, recool, and only then run the 2-qubit gate at the local
// γ. The per-gate paths are layout-dependent but latency-independent, so
// they are attached to the Binding once (AttachTransport, the backend's
// Prepare hook); TimeTransport/TimeTransportAll then price any number of
// timing models against the attached plan through the finish-time kernel
// (kernel.go), whose transport hook each weak gate's segments feed.
//
// Contention: two concurrent transports cannot occupy one inter-chain
// segment, so the kernel serializes them — each segment tracks a
// per-lane busy-until time, a transport starts no earlier than the
// latest busy-until of the segments it crosses, and it reserves them
// until its merge+recool completes. Reservation is skipped entirely when
// a gate's transport overhead is zero, which is what makes the zero-cost
// shuttle backend bit-identical to the weak-link model at α = 1 (the
// equivalence the property tests pin): the recurrence degenerates to
// f = ready + d with the α = 1 latency table.

import (
	"fmt"

	"velociti/internal/ti"
	"velociti/internal/verr"
)

// TransportCosts prices the shuttle primitives, in microseconds. It is
// internal/shuttle's Params re-expressed at the kernel boundary so perf
// does not import the shuttle package.
type TransportCosts struct {
	// SplitMicros splits the ion out of its source chain.
	SplitMicros float64
	// MovePerHopMicros moves the ion across one weak-link segment.
	MovePerHopMicros float64
	// MergeMicros merges the ion into the destination chain.
	MergeMicros float64
	// RecoolMicros re-cools the destination chain after the merge.
	RecoolMicros float64
}

// Validate rejects negative or NaN costs with a typed input error.
func (c TransportCosts) Validate() error {
	for _, v := range [...]struct {
		name string
		val  float64
	}{
		{"split", c.SplitMicros},
		{"move-per-hop", c.MovePerHopMicros},
		{"merge", c.MergeMicros},
		{"recool", c.RecoolMicros},
	} {
		if !(v.val >= 0) {
			return verr.Inputf("perf: transport %s cost must be a non-negative number, got %v", v.name, v.val)
		}
	}
	return nil
}

// transportPlan is the layout-dependent, latency-independent transport
// annotation of one binding: for each gate, the weak-link segments its
// cross-chain transport crosses, as CSR rows over segIDs. Local gates
// have empty rows.
type transportPlan struct {
	segStart []int32 // CSR offsets into segIDs, len = NumGates()+1
	segIDs   []int32 // weak-link IDs along each weak gate's path
	numSegs  int     // device segment count; sizes the busy table
}

// AttachTransport computes and attaches the transport plan for the
// layout the binding was built from. It is the shuttle backend's Prepare
// hook: it must run before the binding is published to caches or shared
// across goroutines, and it is idempotent (a second call is a no-op).
// Each weak gate's path is the deterministic shortest weak-link path
// between its operands' chains (ti.Device.PathLinks), looked up once per
// unordered chain pair. A weak gate whose operand chains are
// disconnected is an impossible circuit for this device and surfaces as
// a typed input error — never as a fabricated finite cost.
func (b *Binding) AttachTransport(l *ti.Layout) error {
	if b.transport != nil {
		return nil
	}
	e := b.ev
	d := l.Device()
	tp := &transportPlan{segStart: make([]int32, e.n+1), numSegs: d.MaxWeakLinks()}
	if b.weak == 0 {
		b.transport = tp
		return nil
	}
	paths := newSegmentPaths(l)
	segIDs := make([]int32, 0, b.weak)
	for i := 0; i < e.n; i++ {
		if b.classes[i] == ClassTwoQWeak {
			p, err := paths.between(int(e.qa[i]), int(e.qb[i]))
			if err != nil {
				return err
			}
			segIDs = append(segIDs, p...)
		}
		tp.segStart[i+1] = int32(len(segIDs))
	}
	tp.segIDs = segIDs
	b.transport = tp
	return nil
}

// segmentPaths caches the weak-link path between each unordered chain
// pair of one layout. Paths are keyed by the canonical (min, max) pair:
// PathLinks' tie-breaking is direction-dependent, so canonicalizing keeps
// the priced path independent of operand order within a gate.
type segmentPaths struct {
	d       *ti.Device
	chainOf []int
	nc      int
	paths   [][]int32
}

func newSegmentPaths(l *ti.Layout) *segmentPaths {
	d := l.Device()
	nc := d.NumChains()
	return &segmentPaths{d: d, chainOf: l.ChainAssignments(), nc: nc, paths: make([][]int32, nc*nc)}
}

// between returns the weak-link segments a transport between qubits qa
// and qb crosses. Operands on disconnected chains are an impossible
// circuit for the device: a typed input error, never a fabricated cost.
func (sp *segmentPaths) between(qa, qb int) ([]int32, error) {
	lo, hi := sp.chainOf[qa], sp.chainOf[qb]
	if lo > hi {
		lo, hi = hi, lo
	}
	p := sp.paths[lo*sp.nc+hi]
	if p == nil {
		links := sp.d.PathLinks(lo, hi)
		if len(links) == 0 {
			return nil, verr.Inputf("perf: qubits q%d and q%d sit on disconnected chains %d and %d; no shuttle path exists",
				qa, qb, sp.chainOf[qa], sp.chainOf[qb])
		}
		p = make([]int32, len(links))
		for k, wl := range links {
			p[k] = int32(wl.ID)
		}
		sp.paths[lo*sp.nc+hi] = p
	}
	return p, nil
}

// TimeTransport prices the binding under one timing model with the
// shuttle transport model. It equals TimeTransportAll(costs,
// []Latencies{lat})[0] exactly.
func (b *Binding) TimeTransport(costs TransportCosts, lat Latencies) (Result, error) {
	res, err := b.TimeTransportAll(costs, []Latencies{lat})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// TimeTransportAll prices the binding under every timing model in lats
// with the shuttle transport model, in one multi-lane pass over the gate
// list. Per gate, a weak gate first pays its transport overhead
// (split + hops·move + merge + recool, serialized against every other
// transport crossing a shared segment) and then runs at the LOCAL
// 2-qubit latency γ — the weak penalty α never appears; transport
// replaces it. Lane j of the result equals TimeTransport(costs, lats[j])
// bit for bit at any lane count. SerialMicros is the Eq. 1 serial bound
// at α = 1 plus the total transport overhead; SerialPerGateMicros
// likewise accumulates overhead plus gate latency in gate order.
// AttachTransport must have run first.
func (b *Binding) TimeTransportAll(costs TransportCosts, lats []Latencies) ([]Result, error) {
	tp := b.transport
	if tp == nil {
		return nil, fmt.Errorf("perf: binding has no transport plan; the shuttle backend's Prepare (AttachTransport) must run at bind time")
	}
	if err := costs.Validate(); err != nil {
		return nil, err
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("perf: TimeTransportAll requires at least one timing model")
	}
	return b.timeAll(lats, tp, costs)
}
