package perf

// This file is the parallel model's one finish-time kernel. The paper's
// parallel time (§IV-C, Figure 3) is the longest path through the gate
// dependency graph; since a gate's only predecessors are the last gates
// on its operand qubits, that path is the per-qubit frontier recurrence
//
//	finish(g) = latency(g) + max(front[a], front[b]);  front[a] = front[b] = finish(g)
//
// over gates g on qubits a and b, in program order. Every timing entry point — Binding.TimeAll
// and friends, the shuttle transport pricing, the streaming kernels,
// ParallelTime and BuildTimeline — feeds its gates through kernel.gate:
// the Binding from its operand and class arrays, the streams from a
// circuit.Source. The kernel keeps one finish time per (qubit, lane), the
// lanes being the timing models of an α panel. Everything else is opt-in:
//
//   - an argmax-predecessor int32 per (gate, lane) when a critical path is
//     wanted, with SSA labels built only for the gates on that path;
//   - per-gate start/finish spans for the single-lane timeline;
//   - shuttle transport, a per-gate hook that serializes transports over
//     a per-(segment, lane) busy-until table.
//
// Bit-exactness: every lane compares operands in the same order with
// strict >, starts from ready = 0, tracks its makespan with strict > (the
// first maximum wins), and accumulates the per-gate serial sum in gate
// order, so results are independent of the lane count and of which
// reader fed the gates.

import (
	"slices"
	"strconv"
	"sync"
)

// kernel is the pooled state of one pricing pass.
type kernel struct {
	nl     int // lanes: timing models priced side by side
	qubits int
	stride int
	// lat[j*stride+idx] is the latency of a gate with table index idx in
	// lane j: idx is the gate class for class tables, the gate id for
	// per-gate tables.
	lat    []float64
	tables []float64 // backing store of class tables
	front  []float64 // front[q*nl+j]: finish time of qubit q's last gate in lane j

	serial []float64 // per lane: serial per-gate sum, in gate order
	total  []float64 // per lane: makespan
	best   []int32   // per lane: first gate finishing at the makespan

	// Critical-path bookkeeping, kept only when path is set.
	path bool
	last []int32 // last[q]: qubit q's last gate, -1 if none
	prev []int32 // prev[i*nl+j]: gate i's argmax predecessor in lane j, -1 if none

	// spans, when non-nil, receives each gate's start and finish (one lane).
	spans [][2]float64

	// Transport hook: a gate handed transport segments first waits for
	// every segment to clear, then holds them for fixed + hops·perHop.
	busy          []float64 // busy[s*nl+j]: segment s busy-until in lane j
	fixed, perHop float64
	moved         float64 // total transport overhead, lane-independent

	// Labeling scratch.
	ids    []int32  // every lane's path, concatenated
	onPath []int32  // the gates on any lane's path, ascending
	single []int32  // per qubit: 1-qubit gates seen so far
	filter []uint64 // hashed bitmap of the path's 2-qubit operand sets
}

var kernelPool = sync.Pool{New: func() any { return new(kernel) }}

// newKernel readies a pooled kernel for nl lanes over a register of
// qubits qubits. The caller then installs a latency table (classTables
// or gateTable).
func newKernel(nl, qubits int) *kernel {
	k := kernelPool.Get().(*kernel)
	k.reset(nl, qubits)
	return k
}

// reset readies k for nl lanes over a register of qubits qubits, reusing
// its storage.
func (k *kernel) reset(nl, qubits int) {
	k.nl, k.qubits = nl, qubits
	k.front = zeroFloats(k.front, qubits*nl)
	k.serial = zeroFloats(k.serial, nl)
	k.total = zeroFloats(k.total, nl)
	k.best = fillInt32(k.best, nl, 0)
	k.path = false
	k.spans = nil
	k.fixed, k.perHop, k.moved = 0, 0, 0
}

// release returns the kernel to the pool.
func (k *kernel) release() {
	k.lat, k.spans = nil, nil
	kernelPool.Put(k)
}

// classTables installs the class latency tables of lats, one lane per
// model. With local set, every model's weak penalty is neutralized first:
// transport replaces α, so weak gates run at 1·γ.
func (k *kernel) classTables(lats []Latencies, local bool) {
	k.tables = k.tables[:0]
	for _, lat := range lats {
		if local {
			lat.WeakPenalty = 1
		}
		t := classLatencies(lat)
		k.tables = append(k.tables, t[:]...)
	}
	k.lat, k.stride = k.tables, NumGateClasses
}

// gateTable installs a single-lane table indexed by gate id.
func (k *kernel) gateTable(lat []float64) { k.lat, k.stride = lat, 0 }

// trackPath enables critical-path bookkeeping for a pass over n gates.
func (k *kernel) trackPath(n int) {
	k.path = true
	k.last = fillInt32(k.last, k.qubits, -1)
	if cap(k.prev) < n*k.nl {
		k.prev = make([]int32, n*k.nl)
	}
	k.prev = k.prev[:n*k.nl]
}

// withTransport enables the transport hook over a device of segments
// weak-link segments.
func (k *kernel) withTransport(costs TransportCosts, segments int) {
	k.busy = zeroFloats(k.busy, segments*k.nl)
	k.fixed = costs.SplitMicros + costs.MergeMicros + costs.RecoolMicros
	k.perHop = costs.MovePerHopMicros
}

// gate runs the recurrence for gate i on operands qa and qb (qb < 0 for a
// 1-qubit gate) in every lane. segs lists the weak-link segments the
// gate's transport crosses, nil when it needs none.
func (k *kernel) gate(i, qa, qb int32, idx int, segs []int32) {
	nl := k.nl
	fa := k.front[int(qa)*nl : int(qa)*nl+nl]
	var fb []float64
	if qb >= 0 {
		fb = k.front[int(qb)*nl : int(qb)*nl+nl]
	}
	var prev []int32
	pa, pb := int32(-1), int32(-1)
	if k.path {
		prev = k.prev[int(i)*nl : int(i)*nl+nl]
		pa = k.last[qa]
		k.last[qa] = i
		if qb >= 0 {
			pb = k.last[qb]
			k.last[qb] = i
		}
	}
	over := 0.0
	if segs != nil {
		over = k.fixed + float64(len(segs))*k.perHop
		k.moved += over
	}
	serial, total, best := k.serial[:nl], k.total[:nl], k.best[:nl]
	for j := range serial {
		ready, pr := 0.0, int32(-1)
		if v := fa[j]; v > ready {
			ready, pr = v, pa
		}
		if fb != nil {
			if v := fb[j]; v > ready {
				ready, pr = v, pb
			}
		}
		d := k.lat[idx+j*k.stride]
		f := ready + d
		if over > 0 {
			// Junction contention: the transport cannot enter a segment
			// before the previous transport through it has cleared, and
			// it holds every segment on its path until it completes.
			// Zero-overhead transports reserve nothing, which keeps the
			// zero-cost shuttle model identical to weak-link at α = 1.
			start := ready
			for _, s := range segs {
				if v := k.busy[int(s)*nl+j]; v > start {
					start = v
				}
			}
			end := start + over
			for _, s := range segs {
				k.busy[int(s)*nl+j] = end
			}
			f = end + d
			serial[j] += over + d
		} else {
			serial[j] += d
		}
		fa[j] = f
		if fb != nil {
			fb[j] = f
		}
		if prev != nil {
			prev[j] = pr
		}
		if k.spans != nil {
			k.spans[i] = [2]float64{ready, f}
		}
		if f > total[j] {
			total[j] = f
			best[j] = i
		}
	}
}

// criticalPaths returns every lane's critical path as SSA labels in
// execution order. qa and qb are the operand tables of the gates the
// kernel ran; trackPath must have been enabled.
func (k *kernel) criticalPaths(qa, qb []int32) [][]string {
	// Each lane's path, last gate first, concatenated in k.ids.
	k.ids = k.ids[:0]
	ends := make([]int, k.nl)
	for j := range ends {
		for at := k.best[j]; at != -1; at = k.prev[int(at)*k.nl+j] {
			k.ids = append(k.ids, at)
		}
		ends[j] = len(k.ids)
	}
	k.onPath = append(k.onPath[:0], k.ids...)
	slices.Sort(k.onPath)
	k.onPath = slices.Compact(k.onPath)
	names := k.labels(qa, qb, k.onPath)
	out := make([][]string, k.nl)
	from := 0
	for j := range out {
		path := make([]string, ends[j]-from)
		for x, id := range k.ids[from:ends[j]] {
			at, _ := slices.BinarySearch(k.onPath, id)
			path[len(path)-1-x] = names[at]
		}
		out[j] = path
		from = ends[j]
	}
	return out
}

// labels returns the SSA labels of the gates in ids (ascending, distinct)
// exactly as circuit.Circuit.Labels would: a gate's label is its sorted
// operand set ("q3q4"), suffixed ".n" when it is the n-th gate (n > 1) on
// that set. One scan over the gate prefix up to the last listed gate
// counts earlier gates per set: 1-qubit sets in a per-qubit array, and
// 2-qubit sets in a map holding only the listed gates' sets, behind a
// hashed bitmap that lets almost every other gate skip the lookup.
func (k *kernel) labels(qa, qb []int32, ids []int32) []string {
	out := make([]string, len(ids))
	if len(ids) == 0 {
		return out
	}
	k.single = fillInt32(k.single, k.qubits, 0)
	if k.filter == nil {
		k.filter = make([]uint64, labelFilterBits/64)
	}
	counts := make(map[uint64]int32, len(ids))
	for _, id := range ids {
		if qb[id] >= 0 {
			key := pairKey(qa[id], qb[id])
			h := filterSlot(key)
			k.filter[h/64] |= 1 << (h % 64)
			counts[key] = 0
		}
	}
	for i, u := int32(0), 0; u < len(ids); i++ {
		var n int32
		if qb[i] < 0 {
			k.single[qa[i]]++
			n = k.single[qa[i]]
		} else {
			key := pairKey(qa[i], qb[i])
			if h := filterSlot(key); k.filter[h/64]&(1<<(h%64)) == 0 {
				continue
			}
			c, ok := counts[key]
			if !ok {
				continue
			}
			n = c + 1
			counts[key] = n
		}
		if i == ids[u] {
			out[u] = formatLabel(qa[i], qb[i], n)
			u++
		}
	}
	for _, id := range ids {
		if qb[id] >= 0 {
			h := filterSlot(pairKey(qa[id], qb[id]))
			k.filter[h/64] &^= 1 << (h % 64)
		}
	}
	return out
}

// labelFilterBits sizes the labeling prefilter: 64 Kib, so a critical
// path of a few thousand gates leaves nearly all slots clear.
const labelFilterBits = 1 << 16

// filterSlot hashes a pair key to a prefilter slot (the top bits of a
// Fibonacci hash).
func filterSlot(key uint64) uint64 { return (key * 0x9E3779B97F4A7C15) >> 48 }

// pairKey packs a 2-qubit gate's operand set, low qubit first, into one
// word.
func pairKey(qa, qb int32) uint64 {
	if qb < qa {
		qa, qb = qb, qa
	}
	return uint64(uint32(qa))<<32 | uint64(uint32(qb))
}

// formatLabel renders the label of the n-th gate on operands qa and qb
// (qb < 0 for a 1-qubit gate): the operands in ascending order, then the
// occurrence suffix.
func formatLabel(qa, qb, n int32) string {
	if qb >= 0 && qb < qa {
		qa, qb = qb, qa
	}
	var buf [32]byte
	b := append(buf[:0], 'q')
	b = strconv.AppendInt(b, int64(qa), 10)
	if qb >= 0 {
		b = append(b, 'q')
		b = strconv.AppendInt(b, int64(qb), 10)
	}
	if n > 1 {
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(b)
}

// classLatencies returns the per-class latency table for one timing
// model. The weak entry is α·γ, one multiply, exactly GateLatency's.
func classLatencies(lat Latencies) [numClasses]float64 {
	return [numClasses]float64{
		ClassOneQ:      lat.OneQubit,
		ClassTwoQIntra: lat.TwoQubit,
		ClassTwoQWeak:  lat.WeakPenalty * lat.TwoQubit,
	}
}

func zeroFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func fillInt32(s []int32, n int, v int32) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}
