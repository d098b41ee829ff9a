package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Model is the execution-cost model of §4.1 (formula 1): the weighted sum
// of per-operation computation costs and per-cross-edge communication
// costs.
type Model struct {
	// WComp and WComm weight computation and communication cost.
	WComp, WComm float64
	// Provider supplies the estimates.
	Provider *StatsProvider
}

// NewModel returns a model with unit weights.
func NewModel(p *StatsProvider) *Model { return &Model{WComp: 1, WComm: 1, Provider: p} }

// OpCost returns the weighted computation cost of op at loc within g.
func (m *Model) OpCost(g *Graph, op *Op, loc Location) float64 {
	in := 0.0
	if op.Kind == OpCombine { // the one kind whose work is its inputs'
		for _, e := range g.In(op) {
			in += m.Provider.FragBytes(e.Frag)
		}
	}
	return m.WComp * m.Provider.CompCost(op.Kind, in, op.Out, loc)
}

// EdgeCost returns the weighted communication cost of e under a: the
// shipped size if e is a cross-edge, zero otherwise.
func (m *Model) EdgeCost(e *Edge, a Assignment) float64 {
	if a[e.From.ID] == LocSource && a[e.To.ID] == LocTarget {
		return m.WComm * m.Provider.ShipBytes(e.Frag)
	}
	return 0
}

// Cost evaluates formula (1) for a complete assignment.
func (m *Model) Cost(g *Graph, a Assignment) (float64, error) {
	if len(a) != len(g.Ops) {
		return 0, fmt.Errorf("core: assignment covers %d ops, graph has %d", len(a), len(g.Ops))
	}
	if !a.Complete() {
		return 0, fmt.Errorf("core: assignment incomplete")
	}
	if !a.Monotone(g) {
		return 0, fmt.Errorf("core: assignment ships data target to source")
	}
	total := 0.0
	for _, op := range g.Ops {
		total += m.OpCost(g, op, a[op.ID])
	}
	for _, e := range g.Edges {
		total += m.EdgeCost(e, a)
	}
	return total, nil
}

// Split of cost into its two components, for the stacked bars of Figures
// 10 and 11.
type CostBreakdown struct {
	Computation   float64
	Communication float64
}

// Breakdown evaluates the two components of formula (1) separately.
func (m *Model) Breakdown(g *Graph, a Assignment) (CostBreakdown, error) {
	var b CostBreakdown
	if _, err := m.Cost(g, a); err != nil {
		return b, err
	}
	for _, op := range g.Ops {
		b.Computation += m.OpCost(g, op, a[op.ID])
	}
	for _, e := range g.Edges {
		b.Communication += m.EdgeCost(e, a)
	}
	return b, nil
}

// Explain renders the cost model's view of a placed program: one line per
// operation with its location and computation cost, one line per
// cross-edge with its communication cost, and the weighted total —
// formula (1) made legible.
func (m *Model) Explain(g *Graph, a Assignment) (string, error) {
	total, err := m.Cost(g, a)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, op := range g.Ops {
		fmt.Fprintf(&b, "@%s %-55s comp=%.1f\n", a[op.ID], op.String(), m.OpCost(g, op, a[op.ID]))
	}
	for _, e := range g.Edges {
		if c := m.EdgeCost(e, a); c > 0 {
			fmt.Fprintf(&b, "ship %-54s comm=%.1f\n", e.Frag.Name, c)
		}
	}
	fmt.Fprintf(&b, "total=%.1f (w_comp=%g, w_comm=%g)\n", total, m.WComp, m.WComm)
	return b.String(), nil
}

// UnitCosts are per-byte work factors for the four primitive operations.
// Combines (joins) are the most expensive operation when building XML from
// stored data (§1.1), which the defaults reflect.
type UnitCosts struct {
	Scan, Combine, Split, Write float64
}

// DefaultUnitCosts mirror the relative operation costs observed in the
// paper's real measurements: joins dominate, scans and splits are cheap.
func DefaultUnitCosts() UnitCosts {
	return UnitCosts{Scan: 1, Combine: 4, Split: 1.5, Write: 1}
}

// StatsProvider supplies the two estimate functions of §4.1 —
// comp_cost(OP, location) and the size() behind comm_cost — from
// per-element cardinality and size statistics plus per-system speed
// factors. The agency gets one by probing the systems involved in the
// exchange; the simulator (§5.4) builds its own.
type StatsProvider struct {
	// Card is the number of instances of each element; Bytes the average
	// serialized size of one instance (tags plus text).
	Card, Bytes map[string]float64
	// Unit holds per-operation work factors.
	Unit UnitCosts
	// SourceSpeed and TargetSpeed divide work to give cost; a target ten
	// times faster than the source (Figure 11) has TargetSpeed = 10,
	// SourceSpeed = 1.
	SourceSpeed, TargetSpeed float64
	// TargetCombines reports whether the target can run Combine at all; a
	// "dumb client" (§4.1) cannot, making the cost infinite there.
	TargetCombines bool
	// ShipScale and ShipRecord are the shipment codec's wire bytes per
	// byte of element content and per record (its ID and PARENT framing),
	// as the source endpoint calibrates them. Zero means unmeasured:
	// scale 1, no per-record term.
	ShipScale, ShipRecord float64

	// frag caches FragBytes by fragment: Card and Bytes must not change
	// once the provider has priced a fragment.
	frag sync.Map
}

// NewStatsProvider prices with the default unit costs on systems that both
// run at speed (0 is the baseline 1) over the given element statistics.
func NewStatsProvider(card, bytes map[string]float64, speed float64, combines bool) *StatsProvider {
	if speed <= 0 {
		speed = 1
	}
	return &StatsProvider{Card: card, Bytes: bytes, Unit: DefaultUnitCosts(),
		SourceSpeed: speed, TargetSpeed: speed, TargetCombines: combines}
}

// ElemBytes is the size one element instance adds to Bytes: its open and
// close tags and its text. IDs and PARENTs are record framing, which
// ShipRecord prices.
func ElemBytes(name, text string) float64 { return float64(2*len(name) + 5 + len(text)) }

// FragBytes estimates the serialized size of one full instance of f,
// summed in ElemList order so that the same statistics always price the
// same plan, and computed once per fragment.
func (p *StatsProvider) FragBytes(f *Fragment) float64 {
	if total, ok := p.frag.Load(f); ok {
		return total.(float64)
	}
	total := 0.0
	for _, e := range f.ElemList() {
		total += p.Card[e] * p.Bytes[e]
	}
	p.frag.Store(f, total)
	return total
}

// ShipBytes estimates the wire size of one instance of f under the
// exchange's codec, the size() of comm_cost; FragBytes stays the tree size
// computation is charged on. A Split keeps FragBytes but multiplies
// records: only the per-record term sees what it adds to a shipment.
func (p *StatsProvider) ShipBytes(f *Fragment) float64 {
	scale := p.ShipScale
	if scale <= 0 {
		scale = 1
	}
	return scale*p.FragBytes(f) + p.ShipRecord*p.Card[f.Root]
}

// CompCost estimates the cost of executing an operation of the given kind
// at loc, reading inBytes (the FragBytes of its inputs, summed) and
// producing output. A system that cannot run an operation — a dumb client
// (§4.1) cannot Combine — costs +Inf.
func (p *StatsProvider) CompCost(kind OpKind, inBytes float64, output *Fragment, loc Location) float64 {
	speed := p.SourceSpeed
	if loc == LocTarget {
		speed = p.TargetSpeed
		if kind == OpCombine && !p.TargetCombines {
			return math.Inf(1)
		}
	}
	if speed <= 0 {
		return math.Inf(1)
	}
	var work float64
	switch kind {
	case OpScan:
		work = p.Unit.Scan * p.FragBytes(output)
	case OpCombine:
		work = p.Unit.Combine * inBytes
	case OpSplit:
		work = p.Unit.Split * p.FragBytes(output) // output == split input fragment
	case OpWrite:
		work = p.Unit.Write * p.FragBytes(output)
	}
	return work / speed
}
