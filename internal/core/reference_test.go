package core

import (
	"fmt"
	"math"
	"strings"
)

// The placement references the tests hold MinMaxPlacement to.

// bruteMinMax is the brute-force reference for MinMaxPlacement: it
// enumerates every monotone placement of g (Scans pinned to the source,
// Writes to the target, no target→source edge), 2^free of them, and returns
// the least and most expensive complete placements.
func bruteMinMax(g *Graph, model *Model) (best, worst PlacementResult, err error) {
	a := NewAssignment(g)
	best.Cost = math.Inf(1)
	worst.Cost = math.Inf(-1)
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if i == len(g.Ops) {
			if acc < best.Cost {
				best.Cost, best.Assign = acc, a.Clone()
			}
			if acc > worst.Cost && !math.IsInf(acc, 1) {
				worst.Cost, worst.Assign = acc, a.Clone()
			}
			return
		}
		op := g.Ops[i]
		try := func(loc Location) {
			// Monotonicity: an op may run at the source only if every
			// producer feeding it runs at the source.
			if loc == LocSource {
				for _, e := range g.In(op) {
					if a[e.From.ID] == LocTarget {
						return
					}
				}
			}
			a[op.ID] = loc
			delta := model.OpCost(g, op, loc)
			for _, e := range g.In(op) {
				delta += model.EdgeCost(e, a)
			}
			rec(i+1, acc+delta)
			a[op.ID] = LocUnassigned
		}
		switch op.Kind {
		case OpScan:
			try(LocSource)
		case OpWrite:
			try(LocTarget)
		default:
			try(LocSource)
			try(LocTarget)
		}
	}
	rec(0, 0)
	if math.IsInf(best.Cost, 1) {
		return best, worst, fmt.Errorf("core: no feasible placement (all placements have infinite cost)")
	}
	return best, worst, nil
}

// CostBasedOptim is the literal Algorithm 1 of §4.2: starting from a
// program whose Writes are pinned to the target, repeatedly branch on an
// unassigned operation OP, place it at the source, pull everything upstream
// of OP to the source and push everything downstream of OP to the target,
// and keep the cheapest completely assigned program seen. Duplicate partial
// assignments are pruned with a seen-set, which plays the role of the
// paper's footnote-1 marking.
func CostBasedOptim(g *Graph, model *Model) (PlacementResult, error) {
	type state struct{ a Assignment }
	init := NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == OpWrite {
			init[op.ID] = LocTarget
		}
	}
	best := PlacementResult{Cost: math.Inf(1)}
	open := []state{{a: init}}
	seen := map[string]bool{key(init): true}
	for len(open) > 0 {
		st := open[len(open)-1]
		open = open[:len(open)-1]
		for _, op := range g.Ops {
			if st.a[op.ID] != LocUnassigned {
				continue
			}
			a := st.a.Clone()
			a[op.ID] = LocSource
			assignUpstream(g, op, a)
			assignDownstream(g, op, a)
			if a.Complete() {
				if !a.Monotone(g) {
					continue
				}
				if c, err := model.Cost(g, a); err == nil && c < best.Cost {
					best.Cost, best.Assign = c, a
				}
				continue
			}
			if k := key(a); !seen[k] {
				seen[k] = true
				open = append(open, state{a: a})
			}
		}
	}
	if math.IsInf(best.Cost, 1) {
		return best, fmt.Errorf("core: Cost_Based_Optim found no feasible program")
	}
	return best, nil
}

func key(a Assignment) string {
	var b strings.Builder
	for _, l := range a {
		b.WriteByte(byte('0' + int(l)))
	}
	return b.String()
}

// Clone copies the assignment.
func (a Assignment) Clone() Assignment {
	b := make(Assignment, len(a))
	copy(b, a)
	return b
}
