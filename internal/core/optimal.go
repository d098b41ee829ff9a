package core

import (
	"errors"
	"math"
)

// PlacementResult is a complete placement together with its cost under the
// model used to search.
type PlacementResult struct {
	Assign Assignment
	Cost   float64
}

// MinMaxPlacement returns the least and the most expensive monotone
// placement of g (Scans at the source, Writes at the target, no
// target→source edge), exactly: formula (1) is linear in the set of ops at
// the target, which the monotone rule closes under successors, so each end
// is one minimum s–t cut (Picard 1976; Stone, IEEE TSE 1977).
func MinMaxPlacement(g *Graph, model *Model) (best, worst PlacementResult, err error) {
	return new(cut).minMax(g, model)
}

// cut is the flow network of MinMaxPlacement over the ops, the target (node
// n) and the source (node n+1). Optimal reuses one across its programs.
type cut struct {
	w    []float64 // per op: its cost at the target minus at the source
	res  []float64 // residual capacity of arc u→v at u*(n+2)+v
	prev []int     // per node: the node the search reached it from, or -1
	q    []int     // the search's queue
}

func (c *cut) minMax(g *Graph, model *Model) (best, worst PlacementResult, err error) {
	n := len(g.Ops)
	if len(c.w) != n {
		*c = cut{w: make([]float64, n), res: make([]float64, (n+2)*(n+2)), prev: make([]int, n+2)}
	}
	for _, op := range g.Ops {
		cs, ct := model.OpCost(g, op, LocSource), model.OpCost(g, op, LocTarget)
		switch op.Kind {
		case OpScan:
			ct = math.Inf(1)
		case OpWrite:
			cs = math.Inf(1)
		}
		// ±Inf pins an op to the one side it can run at; NaN, to neither.
		if c.w[op.ID] = ct - cs; math.IsNaN(c.w[op.ID]) {
			return best, worst, errors.New("core: no feasible placement (an op can run at neither system)")
		}
	}
	// A cross-edge u→v costs ship·(x_v − x_u), x being 1 at the target.
	for _, e := range g.Edges {
		ship := model.WComm * model.Provider.ShipBytes(e.Frag)
		c.w[e.To.ID] += ship
		c.w[e.From.ID] -= ship
	}
	for i, r := range [2]*PlacementResult{&best, &worst} {
		if r.Assign, err = c.place(g, float64(1-2*i)); err == nil {
			r.Cost, err = model.Cost(g, r.Assign)
		}
		if err != nil {
			return best, worst, err
		}
	}
	return best, worst, nil
}

// place returns the placement of least total sign·w, the costliest for
// sign −1, by Edmonds–Karp from the target to the source: an op of weight
// w > 0 has an arc to the source, one of w < 0 an arc from the target, and
// an edge u→v an infinite arc u→v, which keeps the placement monotone. The
// ops the last search reaches run at the target, so a tie goes to the source.
func (c *cut) place(g *Graph, sign float64) (Assignment, error) {
	n := len(g.Ops)
	N, tgt, src := n+2, n, n+1
	clear(c.res)
	for i, w := range c.w {
		if !math.IsInf(w, 0) {
			w *= sign
		}
		c.res[i*N+src], c.res[tgt*N+i] = max(w, 0), max(-w, 0)
	}
	for _, e := range g.Edges {
		c.res[e.From.ID*N+e.To.ID] = math.Inf(1)
	}
	for {
		for i := range c.prev {
			c.prev[i] = -1
		}
		c.q = append(c.q[:0], tgt)
		for k := 0; k < len(c.q) && c.prev[src] < 0; k++ {
			u := c.q[k]
			for v, r := range c.res[u*N : u*N+N] {
				if r > 0 && c.prev[v] < 0 {
					c.prev[v] = u
					c.q = append(c.q, v)
				}
			}
		}
		if c.prev[src] < 0 {
			break
		}
		b := math.Inf(1)
		for v := src; v != tgt; v = c.prev[v] {
			b = min(b, c.res[c.prev[v]*N+v])
		}
		if math.IsInf(b, 1) {
			return nil, errors.New("core: no feasible placement (an op pinned to the target feeds one pinned to the source)")
		}
		for v := src; v != tgt; v = c.prev[v] {
			c.res[c.prev[v]*N+v] -= b
			c.res[v*N+c.prev[v]] += b
		}
	}
	a := make(Assignment, n)
	for i := range a {
		a[i] = LocSource
		if c.prev[i] >= 0 {
			a[i] = LocTarget
		}
	}
	return a, nil
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

// Optimal runs the full §4.2 search: enumerate combine orderings, place
// each program exactly, and return the cheapest and the most expensive
// program — the two ends of the space Table 5 compares greedy against. The
// one bound is on orderings, which GeneratePrograms caps.
func Optimal(m *Mapping, model *Model) (best, worst OptimalResult, err error) {
	programs, err := GeneratePrograms(m)
	if err != nil {
		return best, worst, err
	}
	best = OptimalResult{PlacementResult: PlacementResult{Cost: math.Inf(1)}, Considered: len(programs)}
	worst = OptimalResult{PlacementResult: PlacementResult{Cost: math.Inf(-1)}, Considered: len(programs)}
	var c cut
	for _, g := range programs {
		lo, hi, err := c.minMax(g, model)
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
