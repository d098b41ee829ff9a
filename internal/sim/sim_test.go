package sim

import (
	"testing"

	"xdx/internal/core"
)

func TestNewScenarioDefaults(t *testing.T) {
	s := New(Config{Seed: 1})
	if s.Schema.Len() != 85 { // 1+4+16+64, the Figure 10 DTD
		t.Errorf("schema has %d nodes, want 85", s.Schema.Len())
	}
	if s.Source.Len() != 11 || s.Target.Len() != 11 {
		t.Errorf("fragmentations = %d/%d, want 11/11", s.Source.Len(), s.Target.Len())
	}
	if s.Provider.Card["e0"] != 1 {
		t.Errorf("root cardinality = %v", s.Provider.Card["e0"])
	}
	// Depth-3 elements have Rep^3 = 27 instances.
	found := false
	for _, e := range s.Schema.Names() {
		if s.Schema.ByName(e).Depth() == 3 {
			if s.Provider.Card[e] != 27 {
				t.Errorf("depth-3 cardinality = %v, want 27", s.Provider.Card[e])
			}
			found = true
			break
		}
	}
	if !found {
		t.Error("no depth-3 element")
	}
}

func TestCompareWithPublishEqualSystems(t *testing.T) {
	// Figure 10: equal systems; the paper reports ~65% reduction. Require
	// a substantial reduction and a sane breakdown.
	var reductions []float64
	for seed := int64(0); seed < 5; seed++ {
		s := New(Config{Seed: seed})
		cmp, err := s.CompareWithPublish()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cmp.Exchange.Computation <= 0 || cmp.Publish.Computation <= 0 {
			t.Fatalf("seed %d: empty breakdown %+v", seed, cmp)
		}
		if cmp.Reduction <= 0 {
			t.Errorf("seed %d: exchange (%.0f) not cheaper than publish (%.0f)",
				seed,
				cmp.Exchange.Computation+cmp.Exchange.Communication,
				cmp.Publish.Computation+cmp.Publish.Communication)
		}
		reductions = append(reductions, cmp.Reduction)
	}
	avg := 0.0
	for _, r := range reductions {
		avg += r
	}
	avg /= float64(len(reductions))
	if avg < 0.3 || avg > 0.95 {
		t.Errorf("average reduction %.2f outside the plausible band around the paper's 0.65", avg)
	}
}

func TestCompareWithPublishFastTarget(t *testing.T) {
	// Figure 11: a 10x faster target increases the saving (paper: 85%)
	// because combines move to the target.
	var equalSum, fastSum float64
	var combinesMoved bool
	for seed := int64(0); seed < 5; seed++ {
		eq, err := New(Config{Seed: seed}).CompareWithPublish()
		if err != nil {
			t.Fatal(err)
		}
		fast, err := New(Config{Seed: seed, TargetSpeed: 10}).CompareWithPublish()
		if err != nil {
			t.Fatal(err)
		}
		equalSum += eq.Reduction
		fastSum += fast.Reduction
		if fast.CombinesAtTarget > 0 {
			combinesMoved = true
		}
	}
	if fastSum <= equalSum {
		t.Errorf("fast target reduction %.2f not larger than equal systems %.2f", fastSum/5, equalSum/5)
	}
	if !combinesMoved {
		t.Error("fast target never attracted combines")
	}
}

func TestDumbTargetKeepsCombinesAtSource(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		s := New(Config{Seed: seed, TargetSpeed: 10, DumbTarget: true})
		cmp, err := s.CompareWithPublish()
		if err != nil {
			t.Fatal(err)
		}
		if cmp.CombinesAtTarget != 0 {
			t.Errorf("seed %d: %d combines at a dumb target", seed, cmp.CombinesAtTarget)
		}
	}
}

func TestEvaluateGreedyTable5Shape(t *testing.T) {
	// Table 5's qualitative findings on the 31-node DTD: greedy within a
	// few percent of optimal, worst-case noticeably above optimal, and
	// greedy much faster than exhaustive search — asserted by its cause,
	// the many programs exhaustive search places where greedy places one.
	cfg := Config{Depth: 2, Fanout: 5, FragsPerSide: 6, SourceSpeed: 5, TargetSpeed: 1}
	ev, err := EvaluateGreedy(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Runs == 0 {
		t.Fatal("no runs")
	}
	if ev.GreedyOverOptimal < 1-1e-9 {
		t.Errorf("greedy/optimal = %.4f < 1", ev.GreedyOverOptimal)
	}
	if ev.GreedyOverOptimal > 1.3 {
		t.Errorf("greedy/optimal = %.4f, far from the paper's ~1.01", ev.GreedyOverOptimal)
	}
	if ev.WorstOverOptimal < ev.GreedyOverOptimal-1e-9 {
		t.Errorf("worst (%.4f) below greedy (%.4f)", ev.WorstOverOptimal, ev.GreedyOverOptimal)
	}
	if ev.OptimalPrograms <= 1 {
		t.Errorf("exhaustive search placed %.1f programs a run, greedy places 1", ev.OptimalPrograms)
	}
	t.Logf("exhaustive search placed %.1f programs a run", ev.OptimalPrograms)
	if ev.SpeedRatio != "5/1" {
		t.Errorf("speed ratio = %q", ev.SpeedRatio)
	}
}

func TestWorstWindowGrowsWithSpeedSkew(t *testing.T) {
	// Table 5: the optimization window is larger at skewed speeds than at
	// equal speeds.
	cfg := Config{Depth: 2, Fanout: 5, FragsPerSide: 6}
	eq := cfg
	eq.SourceSpeed, eq.TargetSpeed = 1, 1
	sk := cfg
	sk.SourceSpeed, sk.TargetSpeed = 5, 1
	evEq, err := EvaluateGreedy(eq, 4)
	if err != nil {
		t.Fatal(err)
	}
	evSk, err := EvaluateGreedy(sk, 4)
	if err != nil {
		t.Fatal(err)
	}
	if evSk.WorstOverOptimal <= evEq.WorstOverOptimal {
		t.Errorf("skewed window %.4f not larger than equal-speed window %.4f",
			evSk.WorstOverOptimal, evEq.WorstOverOptimal)
	}
}

func TestScenarioMappingExecutable(t *testing.T) {
	// The simulated scenario's programs are real programs: validate one.
	s := New(Config{Seed: 3, Depth: 2, Fanout: 3, FragsPerSide: 5})
	m, err := core.NewMapping(s.Source, s.Target)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
