package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"xdx/internal/schema"
)

func modelFor(sch *schema.Schema, srcSpeed, tgtSpeed float64) *Model {
	return NewModel(testProvider(sch, srcSpeed, tgtSpeed))
}

func TestCostModelBasics(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, _ := CanonicalProgram(m)
	model := modelFor(sch, 1, 1)
	a := NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == OpWrite {
			a[op.ID] = LocTarget
		} else {
			a[op.ID] = LocSource
		}
	}
	c, err := model.Cost(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 || math.IsInf(c, 0) {
		t.Fatalf("cost = %v", c)
	}
	br, err := model.Breakdown(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(br.Computation+br.Communication-c) > 1e-9 {
		t.Errorf("breakdown %v does not sum to cost %v", br, c)
	}
	if br.Communication <= 0 {
		t.Errorf("all-source placement must ship fragments: %+v", br)
	}
	// Incomplete and non-monotone assignments are rejected.
	if _, err := model.Cost(g, NewAssignment(g)); err == nil {
		t.Error("incomplete assignment must fail")
	}
	bad := a.Clone()
	// Find a Write and its producer; put producer at target, a consumer of
	// the producer at source would be needed — instead invert an edge
	// directly.
	for _, e := range g.Edges {
		if e.From.Kind != OpScan {
			bad[e.From.ID] = LocTarget
			bad[e.To.ID] = LocSource
			break
		}
	}
	if _, err := model.Cost(g, bad); err == nil {
		t.Error("non-monotone assignment must fail")
	}
}

func TestCommCostOnlyOnCrossEdges(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(tFragmentation(t, sch), tFragmentation(t, sch))
	g, _ := CanonicalProgram(m)
	model := modelFor(sch, 1, 1)
	a := NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == OpScan {
			a[op.ID] = LocSource
		} else {
			a[op.ID] = LocTarget
		}
	}
	br, _ := model.Breakdown(g, a)
	// Every Scan->Write edge crosses; comm equals sum of fragment sizes.
	var want float64
	for _, e := range g.Edges {
		want += model.Provider.ShipBytes(e.Frag)
	}
	if math.Abs(br.Communication-want) > 1e-9 {
		t.Errorf("comm = %v, want %v", br.Communication, want)
	}
}

func TestMinMaxPlacementEqualSystems(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, _ := CanonicalProgram(m)
	model := modelFor(sch, 1, 1)
	best, worst, err := MinMaxPlacement(g, model)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cost > worst.Cost {
		t.Fatalf("best %v > worst %v", best.Cost, worst.Cost)
	}
	if !best.Assign.Complete() || !best.Assign.Monotone(g) {
		t.Fatal("best assignment malformed")
	}
	// Sanity: best is no worse than the all-source baseline.
	a := NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == OpWrite {
			a[op.ID] = LocTarget
		} else {
			a[op.ID] = LocSource
		}
	}
	base, _ := model.Cost(g, a)
	if best.Cost > base+1e-9 {
		t.Errorf("best %v worse than all-source %v", best.Cost, base)
	}
}

func TestFastTargetAttractsCombines(t *testing.T) {
	// Figure 11: with a 10x faster target, the optimizer places combines at
	// the target.
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), Trivial(sch))
	g, _ := CanonicalProgram(m)
	model := modelFor(sch, 1, 10)
	best, _, err := MinMaxPlacement(g, model)
	if err != nil {
		t.Fatal(err)
	}
	combinesAtTarget := 0
	for _, op := range g.Ops {
		if op.Kind == OpCombine && best.Assign[op.ID] == LocTarget {
			combinesAtTarget++
		}
	}
	if combinesAtTarget == 0 {
		t.Errorf("fast target should attract combines:\n%s", g)
	}
}

func TestDumbClientForcesSourceCombines(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), Trivial(sch))
	g, _ := CanonicalProgram(m)
	p := testProvider(sch, 1, 100)
	p.TargetCombines = false // dumb client despite being fast
	model := NewModel(p)
	best, _, err := MinMaxPlacement(g, model)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range g.Ops {
		if op.Kind == OpCombine && best.Assign[op.ID] == LocTarget {
			t.Fatalf("combine placed at dumb client:\n%s", g)
		}
	}
	if math.IsInf(best.Cost, 0) {
		t.Fatal("best cost infinite")
	}
}

func TestCostBasedOptimMatchesEnumeration(t *testing.T) {
	// The literal Algorithm 1 must find the same optimal cost as the
	// min-cut placement.
	cases := []struct {
		src, tgt func(*testing.T, *schema.Schema) *Fragmentation
		ss, ts   float64
	}{
		{sFragmentation, tFragmentation, 1, 1},
		{sFragmentation, tFragmentation, 5, 1},
		{sFragmentation, tFragmentation, 1, 5},
		{tFragmentation, sFragmentation, 1, 2},
	}
	sch := customerSchema()
	for i, c := range cases {
		m, err := NewMapping(c.src(t, sch), c.tgt(t, sch))
		if err != nil {
			t.Fatal(err)
		}
		g, err := CanonicalProgram(m)
		if err != nil {
			t.Fatal(err)
		}
		model := modelFor(sch, c.ss, c.ts)
		best, _, err := MinMaxPlacement(g, model)
		if err != nil {
			t.Fatal(err)
		}
		alg1, err := CostBasedOptim(g, model)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(best.Cost-alg1.Cost) > 1e-6 {
			t.Errorf("case %d: min cut %v != Algorithm 1 %v", i, best.Cost, alg1.Cost)
		}
	}
}

func TestCostBasedOptimRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 2)
		src := Random(sch, rng, rng.Intn(5)+1)
		tgt := Random(sch, rng, rng.Intn(5)+1)
		m, err := NewMapping(src, tgt)
		if err != nil {
			t.Fatal(err)
		}
		g, err := CanonicalProgram(m)
		if err != nil {
			t.Fatal(err)
		}
		model := modelFor(sch, float64(rng.Intn(5)+1), float64(rng.Intn(5)+1))
		best, _, err := MinMaxPlacement(g, model)
		if err != nil {
			t.Fatal(err)
		}
		alg1, err := CostBasedOptim(g, model)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(best.Cost-alg1.Cost) > 1e-6 {
			t.Errorf("seed %d: min cut %v != Algorithm 1 %v\n%s", seed, best.Cost, alg1.Cost, g)
		}
	}
}

func TestGreedyPlacementNearOptimal(t *testing.T) {
	// Table 5 finds the greedy within ~1% of optimal; allow a loose bound
	// here, but require validity and sanity.
	sch := customerSchema()
	for _, speeds := range [][2]float64{{5, 1}, {2, 1}, {1, 1}, {1, 2}, {1, 5}} {
		m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
		model := modelFor(sch, speeds[0], speeds[1])
		opt, _, err := Optimal(m, model)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := Greedy(m, model)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Cost < opt.Cost-1e-9 {
			t.Errorf("speeds %v: greedy %v beat optimal %v", speeds, gr.Cost, opt.Cost)
		}
		if gr.Cost > opt.Cost*1.5 {
			t.Errorf("speeds %v: greedy %v far from optimal %v", speeds, gr.Cost, opt.Cost)
		}
	}
}

// Optimal's one pass over the program space finds what placing each
// program on its own finds: its best is the first cheapest program and its
// worst the first costliest, over the customer mapping and seeded random
// mappings.
func TestOptimalMatchesPerProgramMinMax(t *testing.T) {
	type setup struct {
		m     *Mapping
		model *Model
	}
	sch := customerSchema()
	cm, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	setups := []setup{{cm, modelFor(sch, 5, 1)}}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 3)
		m, err := NewMapping(Random(sch, rng, rng.Intn(8)+1), Random(sch, rng, rng.Intn(8)+1))
		if err != nil {
			t.Fatal(err)
		}
		setups = append(setups, setup{m, modelFor(sch, float64(rng.Intn(5)+1), float64(rng.Intn(5)+1))})
	}
	for i, s := range setups {
		best, worst, err := Optimal(s.m, s.model)
		if err != nil {
			t.Fatalf("setup %d: %v", i, err)
		}
		progs, err := GeneratePrograms(s.m)
		if err != nil {
			t.Fatal(err)
		}
		var lo, hi OptimalResult
		for j, g := range progs {
			b, w, err := MinMaxPlacement(g, s.model)
			if err != nil {
				t.Fatalf("setup %d program %d: %v", i, j, err)
			}
			if j == 0 || b.Cost < lo.Cost {
				lo = OptimalResult{Program: g, PlacementResult: b}
			}
			if j == 0 || w.Cost > hi.Cost {
				hi = OptimalResult{Program: g, PlacementResult: w}
			}
		}
		if best.Considered != len(progs) || worst.Considered != len(progs) {
			t.Errorf("setup %d: considered %d/%d programs, want %d", i, best.Considered, worst.Considered, len(progs))
		}
		if !near(best.Cost, lo.Cost) || best.Program.String() != lo.Program.String() {
			t.Errorf("setup %d: best %v, per-program minimum %v", i, best.Cost, lo.Cost)
		}
		if !near(worst.Cost, hi.Cost) || worst.Program.String() != hi.Program.String() {
			t.Errorf("setup %d: worst %v, per-program maximum %v", i, worst.Cost, hi.Cost)
		}
		if worst.Cost < best.Cost {
			t.Errorf("setup %d: worst %v < optimal %v", i, worst.Cost, best.Cost)
		}
	}
}

// near reports whether two costs agree to 1e-9 relative: the cut and the
// enumeration sum formula (1) in different orders. An infinite cost is
// near only itself.
func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Min(math.Abs(a), math.Abs(b))
}

// The cut finds the brute-force enumeration's cheapest and costliest
// placement on the first programs of 200 seeded random mappings, with a
// dumb-client target on every third and a per-record shipping term on
// every other.
func TestMinMaxPlacementMatchesBruteForce(t *testing.T) {
	programs := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 3)
		if seed%2 == 1 {
			sch = schema.Balanced(3, 2)
		}
		m, err := NewMapping(Random(sch, rng, rng.Intn(8)+1), Random(sch, rng, rng.Intn(8)+1))
		if err != nil {
			t.Fatal(err)
		}
		p := testProvider(sch, float64(rng.Intn(5)+1), float64(rng.Intn(5)+1))
		p.TargetCombines = seed%3 != 0
		if seed%2 == 0 {
			p.ShipScale, p.ShipRecord = 0.5+rng.Float64(), float64(rng.Intn(10)+1)
		}
		model := NewModel(p)
		progs, err := generate(m, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		for j, g := range progs {
			best, worst, err := MinMaxPlacement(g, model)
			if err != nil {
				t.Fatalf("seed %d program %d: %v", seed, j, err)
			}
			wantBest, wantWorst, err := bruteMinMax(g, model)
			if err != nil {
				t.Fatal(err)
			}
			if !near(best.Cost, wantBest.Cost) || !near(worst.Cost, wantWorst.Cost) {
				t.Errorf("seed %d program %d: cut [%v, %v], enumeration [%v, %v]\n%s",
					seed, j, best.Cost, worst.Cost, wantBest.Cost, wantWorst.Cost, g)
			}
			programs++
		}
	}
	t.Logf("%d programs", programs)
}

// A mapping whose one program leaves 68 operations to place, far beyond
// what enumerating 2^free placements can visit, is placed exactly: both
// ends are monotone and bracket greedy's placement of the same program.
func TestOptimalPlacesLargeMapping(t *testing.T) {
	sch := schema.Balanced(4, 4)
	m, err := NewMapping(MostFragmented(sch), pairedFragmentation(t, sch))
	if err != nil {
		t.Fatal(err)
	}
	model := modelFor(sch, 1, 3)
	best, worst, err := Optimal(m, model)
	if err != nil {
		t.Fatal(err)
	}
	if st := best.Program.OpStats(); best.Considered != 1 || st.Combines+st.Splits != 68 {
		t.Fatalf("%d programs, %+v; want one program with 68 free ops", best.Considered, st)
	}
	for _, r := range []OptimalResult{best, worst} {
		if !r.Assign.Complete() || !r.Assign.Monotone(r.Program) {
			t.Fatal("placement malformed")
		}
	}
	gr, err := Greedy(m, model)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Cost < best.Cost-1e-9 || gr.Cost > worst.Cost+1e-9 || best.Cost >= worst.Cost {
		t.Errorf("best %v, greedy %v, worst %v", best.Cost, gr.Cost, worst.Cost)
	}
}

func TestGreedyPlacementRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 3)
		src := Random(sch, rng, rng.Intn(8)+1)
		tgt := Random(sch, rng, rng.Intn(8)+1)
		m, err := NewMapping(src, tgt)
		if err != nil {
			t.Fatal(err)
		}
		model := modelFor(sch, float64(rng.Intn(5)+1), float64(rng.Intn(5)+1))
		gr, err := Greedy(m, model)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !gr.Assign.Complete() || !gr.Assign.Monotone(gr.Program) {
			t.Fatalf("seed %d: greedy placement malformed", seed)
		}
		best, _, err := MinMaxPlacement(gr.Program, model)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if gr.Cost < best.Cost-1e-9 {
			t.Errorf("seed %d: greedy %v below optimal %v for its own program", seed, gr.Cost, best.Cost)
		}
	}
}

func TestModelExplain(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, _ := CanonicalProgram(m)
	model := modelFor(sch, 1, 1)
	best, _, err := MinMaxPlacement(g, model)
	if err != nil {
		t.Fatal(err)
	}
	out, err := model.Explain(g, best.Assign)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"@S", "@T", "comp=", "ship ", "comm=", "total="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	if _, err := model.Explain(g, NewAssignment(g)); err == nil {
		t.Error("incomplete assignment must fail")
	}
}

func TestUniformStats(t *testing.T) {
	c, b := UniformStats([]string{"a", "b"}, 3, 7)
	if c["a"] != 3 || b["b"] != 7 {
		t.Errorf("UniformStats wrong: %v %v", c, b)
	}
}

func TestStatsProviderInfinities(t *testing.T) {
	p := testProvider(customerSchema(), 0, 1)
	f, _ := NewFragment(customerSchema(), "", []string{"Customer", "CustName"})
	if !math.IsInf(p.CompCost(OpScan, 0, f, LocSource), 1) {
		t.Error("zero speed must cost +Inf")
	}
	p2 := testProvider(customerSchema(), 1, 1)
	p2.TargetCombines = false
	if !math.IsInf(p2.CompCost(OpCombine, p2.FragBytes(f), nil, LocTarget), 1) {
		t.Error("dumb client combine must cost +Inf")
	}
}
