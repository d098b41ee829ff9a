package core

import (
	"fmt"
	"math"
)

// GreedyPlacement implements the distributed-processing heuristic of §4.3:
// probe both systems for each unassigned operation, fix the operation with
// the largest absolute cost difference to its preferred location, propagate
// upstream (source) or downstream (target), and when no difference remains
// turn the unassigned edge with the smallest output fragment into a
// cross-edge. Scans are pinned to the source and Writes to the target.
func GreedyPlacement(g *Graph, model *Model) (PlacementResult, error) {
	a := NewAssignment(g)
	for _, op := range g.Ops {
		switch op.Kind {
		case OpScan:
			a[op.ID] = LocSource
			// A scan's producers: none. No propagation needed.
		case OpWrite:
			a[op.ID] = LocTarget
		}
	}
	for !a.Complete() {
		// Forced moves first: monotonicity can leave an op only one choice.
		if applyForced(g, a) {
			continue
		}
		type cand struct {
			op   *Op
			diff float64
			pref Location
		}
		bestCand := cand{diff: -1}
		for _, op := range g.Ops {
			if a[op.ID] != LocUnassigned {
				continue
			}
			cs := model.OpCost(g, op, LocSource)
			ct := model.OpCost(g, op, LocTarget)
			d := math.Abs(cs - ct)
			pref := LocSource
			if ct < cs {
				pref = LocTarget
			}
			if math.IsInf(cs, 1) && math.IsInf(ct, 1) {
				return PlacementResult{}, fmt.Errorf("core: greedy: op %s cannot run anywhere", op)
			}
			if math.IsInf(d, 1) {
				d = math.MaxFloat64 // infinite preference, e.g. dumb client
			}
			if d > bestCand.diff {
				bestCand = cand{op: op, diff: d, pref: pref}
			}
		}
		if bestCand.op == nil {
			break
		}
		if bestCand.diff > 0 {
			fix(g, a, bestCand.op, bestCand.pref)
			continue
		}
		// No cost difference anywhere: make the cheapest edge between two
		// unassigned operations a cross-edge (minimum communication).
		var bestEdge *Edge
		bestBytes := math.Inf(1)
		for _, e := range g.Edges {
			if a[e.From.ID] != LocUnassigned || a[e.To.ID] != LocUnassigned {
				continue
			}
			if b := model.Provider.ShipBytes(e.Frag); b < bestBytes {
				bestBytes, bestEdge = b, e
			}
		}
		if bestEdge != nil {
			fix(g, a, bestEdge.From, LocSource)
			fix(g, a, bestEdge.To, LocTarget)
			continue
		}
		// No eligible edge either (isolated unassigned op): its producers
		// sit at the source and its consumers at the target, so run it
		// where it ships less — its inputs if at the target, its outputs if
		// at the source (a Split ships more records than it reads). A tie
		// (within a relative 1e-9) stays at the source.
		loc := LocSource
		if in, out := shipped(model, g.In(bestCand.op)), shipped(model, g.Out(bestCand.op)); in < out*(1-1e-9) {
			loc = LocTarget
		}
		fix(g, a, bestCand.op, loc)
	}
	cost, err := model.Cost(g, a)
	if err != nil {
		return PlacementResult{}, fmt.Errorf("core: greedy produced invalid placement: %w", err)
	}
	return PlacementResult{Assign: a, Cost: cost}, nil
}

// shipped sums the shipped size of edges.
func shipped(model *Model, edges []*Edge) float64 {
	total := 0.0
	for _, e := range edges {
		total += model.Provider.ShipBytes(e.Frag)
	}
	return total
}

// applyForced assigns any unassigned op whose location is dictated by
// monotonicity (a target-placed producer forces the target; a source-placed
// consumer forces the source). Returns true if progress was made.
func applyForced(g *Graph, a Assignment) bool {
	progress := false
	for _, op := range g.Ops {
		if a[op.ID] != LocUnassigned {
			continue
		}
		for _, e := range g.In(op) {
			if a[e.From.ID] == LocTarget {
				a[op.ID] = LocTarget
				progress = true
				break
			}
		}
		if a[op.ID] != LocUnassigned {
			continue
		}
		for _, e := range g.Out(op) {
			if a[e.To.ID] == LocSource {
				a[op.ID] = LocSource
				progress = true
				break
			}
		}
	}
	return progress
}

// fix assigns op to loc (clamped to a feasible choice) and propagates:
// a source placement pulls all upstream operations to the source, a target
// placement pushes all downstream operations to the target (§4.3).
func fix(g *Graph, a Assignment, op *Op, loc Location) {
	if loc == LocSource {
		for _, e := range g.In(op) {
			if a[e.From.ID] == LocTarget {
				loc = LocTarget // preference infeasible; clamp
				break
			}
		}
	}
	a[op.ID] = loc
	if loc == LocSource {
		assignUpstream(g, op, a)
		return
	}
	assignDownstream(g, op, a)
}

// Greedy runs the full §4.3 pipeline: greedy combine ordering followed by
// greedy placement, returning the resulting single program and placement.
func Greedy(m *Mapping, model *Model) (OptimalResult, error) {
	g, err := GreedyProgram(m, model.Provider)
	if err != nil {
		return OptimalResult{}, err
	}
	pr, err := GreedyPlacement(g, model)
	if err != nil {
		return OptimalResult{}, err
	}
	return OptimalResult{Program: g, PlacementResult: pr, Considered: 1}, nil
}
