package perf

// This file prices gate STREAMS: the memory-bounded counterpart of
// binding.go's TimeAll and transport.go's TimeTransportAll. The
// finish-time kernel (kernel.go) only ever reads a gate's predecessors
// through the per-qubit frontier, so fed straight from a circuit.Source,
// gate by gate, it prices a stream in O(qubits·lanes) memory, independent
// of gate count.
//
// Bit-exactness contract: StreamTimeAll equals Binding.TimeAll and
// StreamTransportAll equals Binding.TimeTransportAll field for field —
// same kernel, same gate order, same weak-link counting rules — EXCEPT
// that CriticalPath is omitted (reconstructing it needs the Θ(gates)
// predecessor chain the streaming path exists to avoid; Result's JSON tag
// drops the empty field). The property tests pin the equivalence on every
// workload generator and both backends.
//
// Classification is Bind's own classifier: the pooled pair→link table and
// per-link usage bitmap, both O(device). A rolling content hash
// (circuit.FingerprintAccum) is folded over the stream so cache keys can
// still be formed without buffering gates.

import (
	"fmt"

	"velociti/internal/circuit"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// StreamStats summarizes a consumed gate stream: the gate counts the
// serial model needs and the rolling content fingerprint, bit-identical to
// Circuit.Fingerprint of the materialized circuit.
type StreamStats struct {
	// Fingerprint is the FNV-1a content hash of the stream (name, width,
	// every gate), equal to the materialized Circuit.Fingerprint.
	Fingerprint uint64
	// Gates is the total number of gates consumed.
	Gates int
	// OneQubitGates and TwoQubitGates are the paper's q and p.
	OneQubitGates int
	TwoQubitGates int
}

// streamState is the per-stream bookkeeping: classification against the
// layout, gate counts, and the rolling fingerprint.
type streamState struct {
	cl         classifier
	oneQ, twoQ int
	fp         circuit.FingerprintAccum
}

func newStreamState(src circuit.Source, l *ti.Layout) *streamState {
	return &streamState{cl: newClassifier(l), fp: circuit.NewFingerprintAccum(src.Name, src.Qubits)}
}

// classify folds one gate into the fingerprint and counts and returns its
// class, exactly as Bind classifies it.
func (s *streamState) classify(g *circuit.Gate) GateClass {
	s.fp.AddGate(g)
	if !g.IsTwoQubit() {
		s.oneQ++
		return ClassOneQ
	}
	s.twoQ++
	return s.cl.twoQubit(g.Qubits[0], g.Qubits[1])
}

// close releases the pooled classification scratch and returns the
// stream's stats.
func (s *streamState) close() StreamStats {
	s.cl.release()
	return StreamStats{
		Fingerprint:   s.fp.Sum(),
		Gates:         s.oneQ + s.twoQ,
		OneQubitGates: s.oneQ,
		TwoQubitGates: s.twoQ,
	}
}

// streamChecks is the entry validation of both streaming entry points; the
// messages match the materialized path's (Bind's qubit check, TimeAll's
// lats checks).
func streamChecks(src circuit.Source, l *ti.Layout, lats []Latencies) error {
	if src.Emit == nil {
		return verr.Inputf("perf: source %q has no emitter", src.Name)
	}
	if src.Qubits > l.NumQubits() {
		return fmt.Errorf("perf: circuit has %d qubits but layout places only %d", src.Qubits, l.NumQubits())
	}
	if len(lats) == 0 {
		return fmt.Errorf("perf: TimeAll requires at least one timing model")
	}
	for _, lat := range lats {
		if err := lat.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// results assembles every lane's Result once the stream is exhausted. w
// is Table I's links-used clamp, exactly TimeAll's min(links, twoQGates).
// Under transport (local set) the serial bound is priced at α = 1 plus
// the kernel's total transport overhead, as in TimeTransportAll.
func (s *streamState) results(lats []Latencies, k *kernel, local bool) []Result {
	w := s.cl.links
	if w > s.twoQ {
		w = s.twoQ
	}
	results := make([]Result, len(lats))
	for j, lat := range lats {
		if local {
			lat.WeakPenalty = 1
		}
		results[j] = Result{
			SerialMicros:        SerialTimeFromCounts(s.oneQ, s.twoQ, w, lat),
			SerialPerGateMicros: k.serial[j],
			ParallelMicros:      k.total[j],
			WeakGates:           s.cl.weak,
			LinksUsed:           s.cl.links,
		}
		if local {
			results[j].SerialMicros += k.moved
		}
	}
	return results
}

// StreamTimeAll prices a gate stream under every timing model in lats
// with the weak-link backend, in O(qubits·lanes) memory. Entry j equals
// Binding.TimeAll(lats)[j] on the materialized circuit, bit for bit,
// except that CriticalPath is omitted (see the file comment). The
// returned StreamStats carries the rolling fingerprint for cache keying.
func StreamTimeAll(src circuit.Source, l *ti.Layout, lats []Latencies) ([]Result, StreamStats, error) {
	return streamTimeAll(src, l, nil, lats)
}

// StreamTransportAll prices a gate stream under every timing model in lats
// with the shuttle transport model, in O(qubits·lanes + segments·lanes)
// memory. Entry j equals Binding.TimeTransportAll(costs, lats)[j] on the
// materialized circuit, bit for bit, except that CriticalPath is omitted.
func StreamTransportAll(src circuit.Source, l *ti.Layout, costs TransportCosts, lats []Latencies) ([]Result, StreamStats, error) {
	return streamTimeAll(src, l, &costs, lats)
}

// streamTimeAll runs the kernel over src, with the transport hook when
// costs is non-nil.
func streamTimeAll(src circuit.Source, l *ti.Layout, costs *TransportCosts, lats []Latencies) ([]Result, StreamStats, error) {
	if err := streamChecks(src, l, lats); err != nil {
		return nil, StreamStats{}, err
	}
	var paths *segmentPaths
	if costs != nil {
		if err := costs.Validate(); err != nil {
			return nil, StreamStats{}, err
		}
		paths = newSegmentPaths(l)
	}
	st := newStreamState(src, l)
	// A stream is one long pass: its kernel is allocated outright rather
	// than pooled, so the pass's allocations do not depend on whether a
	// garbage collection emptied the pool while it ran.
	k := new(kernel)
	k.reset(len(lats), src.Qubits)
	k.classTables(lats, costs != nil)
	if costs != nil {
		k.withTransport(*costs, l.Device().MaxWeakLinks())
	}
	i := int32(0)
	err := src.Emit(func(g *circuit.Gate) error {
		class := st.classify(g)
		var segs []int32
		if paths != nil && class == ClassTwoQWeak {
			p, err := paths.between(g.Qubits[0], g.Qubits[1])
			if err != nil {
				return err
			}
			segs = p
		}
		qb := int32(-1)
		if g.IsTwoQubit() {
			qb = int32(g.Qubits[1])
		}
		k.gate(i, int32(g.Qubits[0]), qb, int(class), segs)
		i++
		return nil
	})
	stats := st.close()
	if err != nil {
		return nil, StreamStats{}, err
	}
	return st.results(lats, k, costs != nil), stats, nil
}
