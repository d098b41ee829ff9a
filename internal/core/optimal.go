package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// PlacementResult is a complete placement together with its cost under the
// model used to search.
type PlacementResult struct {
	Assign Assignment
	Cost   float64
}

// maxFreeOps bounds the exhaustive placement search; beyond this many
// unconstrained operations the enumeration is declared infeasible (the
// paper saw the same wall for schemas above 40 nodes, §4.3).
const maxFreeOps = 26

// ErrSearchTooLarge refuses an exhaustive search over more free operations
// than maxFreeOps: the caller asked for a search that cannot run, and
// asking again will not help. GreedyPlacement and Greedy have no limit.
var ErrSearchTooLarge = errors.New("core: exhaustive search too large")

// tooLarge refuses an exhaustive search over free operations.
func tooLarge(free int) error {
	return fmt.Errorf("%w: %d free operations exceed the limit %d; use the greedy optimizer", ErrSearchTooLarge, free, maxFreeOps)
}

// MinMaxPlacement enumerates every monotone placement of g (Scans pinned to
// the source, Writes to the target, no target→source edge) and returns the
// least and most expensive complete placements. The worst case is what
// Table 5 compares optimal and greedy against.
func MinMaxPlacement(g *Graph, model *Model) (best, worst PlacementResult, err error) {
	if st := g.OpStats(); st.Combines+st.Splits > maxFreeOps {
		return best, worst, tooLarge(st.Combines + st.Splits)
	}
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

// assignUpstream places every operation on a path from a Scan to op at the
// source (Algorithm 1, lines 11–12).
func assignUpstream(g *Graph, op *Op, a Assignment) {
	for _, e := range g.In(op) {
		if a[e.From.ID] != LocSource {
			a[e.From.ID] = LocSource
			assignUpstream(g, e.From, a)
		}
	}
}

// assignDownstream places every operation on a path from op to a Write at
// the target (Algorithm 1, lines 9–10).
func assignDownstream(g *Graph, op *Op, a Assignment) {
	for _, e := range g.Out(op) {
		if a[e.To.ID] != LocTarget {
			a[e.To.ID] = LocTarget
			assignDownstream(g, e.To, a)
		}
	}
}

// OptimalResult pairs the winning program with its placement.
type OptimalResult struct {
	Program *Graph
	PlacementResult
	// Considered is the number of programs enumerated.
	Considered int
}

// Optimal runs the full §4.2 search: enumerate combine orderings, run
// exhaustive placement on each, and return the cheapest and the most
// expensive program overall — the two ends of the space Table 5 compares
// greedy against. A mapping whose programs leave more than maxFreeOps
// operations to place is refused with ErrSearchTooLarge before anything is
// enumerated.
func Optimal(m *Mapping, model *Model) (best, worst OptimalResult, err error) {
	sk, err := buildSkeleton(m)
	if err != nil {
		return best, worst, err
	}
	if free := sk.freeOps(); free > maxFreeOps {
		return best, worst, tooLarge(free)
	}
	programs, err := sk.enumerate(maxTreesPerTarget, maxPrograms)
	if err != nil {
		return best, worst, err
	}
	best = OptimalResult{PlacementResult: PlacementResult{Cost: math.Inf(1)}, Considered: len(programs)}
	worst = OptimalResult{PlacementResult: PlacementResult{Cost: math.Inf(-1)}, Considered: len(programs)}
	for _, g := range programs {
		lo, hi, err := MinMaxPlacement(g, model)
		if err != nil {
			return OptimalResult{}, OptimalResult{}, err
		}
		if lo.Cost < best.Cost {
			best.Program, best.PlacementResult = g, lo
		}
		if hi.Cost > worst.Cost {
			worst.Program, worst.PlacementResult = g, hi
		}
	}
	return best, worst, nil
}
