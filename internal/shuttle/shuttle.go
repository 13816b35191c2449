// Package shuttle models ion transport as the alternative cross-chain
// communication mechanism in QCCD trapped-ion machines.
//
// The VelociTI paper models cross-chain gates over photonic weak links at a
// flat α·γ penalty. The QCCD literature it builds on (Kielpinski et al.'s
// original architecture, Pino et al.'s demonstration — the paper's
// references [35] and [52] — and Murali et al.'s ISCA'20 study [48])
// instead physically *shuttles* ions between traps: the ion is split out of
// its chain, moved through the trap array, merged into the destination
// chain, the chain is recooled, and the 2-qubit gate then executes locally
// at the ordinary γ. This package prices that sequence so the two
// mechanisms can be compared head-to-head on the same placed circuits —
// a design-space axis the paper leaves open.
//
// Default constants follow the QCCD literature's order of magnitude:
// split/merge ≈ 80 µs each, per-hop transport ≈ 10 µs, and a recooling
// step ≈ 100 µs after motion.
package shuttle

import (
	"fmt"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// Params prices the primitive shuttling operations, in µs.
type Params struct {
	// SplitMicros extracts the ion from its chain.
	SplitMicros float64 `json:"split_us"`
	// MergeMicros inserts the ion into the destination chain.
	MergeMicros float64 `json:"merge_us"`
	// MovePerHopMicros transports the ion across one inter-chain segment.
	MovePerHopMicros float64 `json:"move_per_hop_us"`
	// RecoolMicros re-cools the destination chain after the merge;
	// motion heats the chain and gate fidelity requires cooling first.
	RecoolMicros float64 `json:"recool_us"`
}

// Default returns literature-order-of-magnitude shuttling costs.
func Default() Params {
	return Params{
		SplitMicros:      80,
		MergeMicros:      80,
		MovePerHopMicros: 10,
		RecoolMicros:     100,
	}
}

// Validate reports a typed input error (verr) for negative or NaN costs.
// Config loading and the serve layer call it at the input boundary, so a
// bad cost in a params file or request body surfaces as an "invalid
// input" diagnostic rather than a computed garbage result.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"split", p.SplitMicros},
		{"merge", p.MergeMicros},
		{"move per hop", p.MovePerHopMicros},
		{"recool", p.RecoolMicros},
	} {
		if !(f.v >= 0) {
			return verr.Inputf("shuttle: %s cost must be a non-negative number, got %g", f.name, f.v)
		}
	}
	return nil
}

// CrossChainOverhead returns the transport time added to a 2-qubit gate
// whose operands sit `hops` chains apart: one split, the multi-hop move,
// one merge, and one recool. Zero hops cost nothing.
func (p Params) CrossChainOverhead(hops int) float64 {
	if hops <= 0 {
		return 0
	}
	return p.SplitMicros + float64(hops)*p.MovePerHopMicros + p.MergeMicros + p.RecoolMicros
}

// GateLatency prices gate g under layout l: 1-qubit gates cost δ,
// intra-chain 2-qubit gates cost γ, and cross-chain gates cost the
// transport overhead plus a local γ gate. A cross-chain gate whose
// operand chains are disconnected is an impossible gate for this device
// and returns a typed input error — an earlier revision silently priced
// it with a fabricated finite hop count.
func (p Params) GateLatency(g circuit.Gate, l *ti.Layout, lat perf.Latencies) (float64, error) {
	if !g.IsTwoQubit() {
		return lat.OneQubit, nil
	}
	hops, err := l.PathHops(g.Qubits[0], g.Qubits[1])
	if err != nil {
		return 0, err
	}
	return p.CrossChainOverhead(hops) + lat.TwoQubit, nil
}

// Result compares the weak-link and shuttling mechanisms on one placed
// circuit.
type Result struct {
	// WeakLinkMicros is the parallel time with cross-chain gates at α·γ
	// (the paper's model).
	WeakLinkMicros float64 `json:"weak_link_us"`
	// ShuttleMicros is the parallel time with cross-chain gates paying
	// transport overhead plus a local gate.
	ShuttleMicros float64 `json:"shuttle_us"`
	// ShuttleSerialMicros is the back-to-back shuttling baseline.
	ShuttleSerialMicros float64 `json:"shuttle_serial_us"`
	// CrossGates counts the gates that needed transport.
	CrossGates int `json:"cross_gates"`
}

// WeakLinkWins reports whether the photonic weak link is the faster
// mechanism for this circuit and placement.
func (r Result) WeakLinkWins() bool { return r.WeakLinkMicros <= r.ShuttleMicros }

// Compare evaluates both communication mechanisms on the same placed
// circuit.
func Compare(c *circuit.Circuit, l *ti.Layout, lat perf.Latencies, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := lat.Validate(); err != nil {
		return Result{}, err
	}
	if c.NumQubits() > l.NumQubits() {
		return Result{}, fmt.Errorf("shuttle: circuit has %d qubits but layout places only %d", c.NumQubits(), l.NumQubits())
	}
	// Per-gate shuttle latencies are priced once up front so a
	// disconnected operand pair surfaces as an input error instead of
	// being silently folded into a timing sum.
	gates := c.Gates()
	shuttleLat := make([]float64, len(gates))
	for i := range gates {
		v, err := p.GateLatency(gates[i], l, lat)
		if err != nil {
			return Result{}, err
		}
		shuttleLat[gates[i].ID] = v
	}
	b, err := perf.BindCircuitScratch(c, l)
	if err != nil {
		return Result{}, err
	}
	byID := func(g circuit.Gate) float64 { return shuttleLat[g.ID] }
	res := Result{
		WeakLinkMicros:      b.ParallelTime(lat),
		ShuttleMicros:       b.ParallelTimeTable(shuttleLat),
		ShuttleSerialMicros: perf.SerialTimeFunc(c, byID),
		CrossGates:          b.WeakGates(),
	}
	perf.RecycleEvaluator(b.Evaluator())
	return res, nil
}

// BreakEvenAlpha returns the weak-link penalty α at which a single-hop
// cross-chain gate costs the same under both mechanisms:
// α·γ = overhead(1) + γ. Above this α, shuttling wins on adjacent
// chains. The latencies are validated first: an earlier revision divided
// by γ unchecked and returned ±Inf/NaN for γ ≤ 0.
func (p Params) BreakEvenAlpha(lat perf.Latencies) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := lat.Validate(); err != nil {
		return 0, err
	}
	return (p.CrossChainOverhead(1) + lat.TwoQubit) / lat.TwoQubit, nil
}
