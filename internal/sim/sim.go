// Package sim is the simulator of §5.4: it builds synthetic exchange
// configurations — balanced DTDs, random source/target fragmentations,
// analytic per-element statistics and per-system speed factors — and
// evaluates data-exchange programs against publishing under the §4.1 cost
// model. All §5.4 experiments (Figures 10 and 11, Table 5) run on top of
// this package, using the same code base for every algorithm, as the paper
// stresses.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"xdx/internal/core"
	"xdx/internal/schema"
)

// Config describes one simulated exchange setup.
type Config struct {
	// Depth and Fanout shape the balanced DTD (Figure 10 uses 3/4,
	// Table 5 uses 2/5).
	Depth, Fanout int
	// Rep is the number of instances each repeated element has per parent
	// (default 3).
	Rep float64
	// ElemBytes is the average serialized size of one element instance
	// (default 20).
	ElemBytes float64
	// SourceSpeed and TargetSpeed are the systems' relative processing
	// speeds (default 1). Figure 11 sets TargetSpeed = 10.
	SourceSpeed, TargetSpeed float64
	// DumbTarget forbids combines at the target (§4.1).
	DumbTarget bool
	// WComp and WComm weight the cost model; §5.4 assumes a fast
	// interconnect, so WComm defaults to a small 0.1.
	WComp, WComm float64
	// FragsPerSide is the number of fragments in each random fragmentation
	// (default 11, as in §5.4.1).
	FragsPerSide int
	// Seed drives all random choices.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.Fanout == 0 {
		c.Fanout = 4
	}
	if c.Rep == 0 {
		c.Rep = 3
	}
	if c.ElemBytes == 0 {
		c.ElemBytes = 20
	}
	if c.SourceSpeed == 0 {
		c.SourceSpeed = 1
	}
	if c.TargetSpeed == 0 {
		c.TargetSpeed = 1
	}
	if c.WComp == 0 {
		c.WComp = 1
	}
	if c.WComm == 0 {
		c.WComm = 0.1
	}
	if c.FragsPerSide == 0 {
		c.FragsPerSide = 11
	}
	return c
}

// Scenario is an instantiated configuration.
type Scenario struct {
	Config Config
	Schema *schema.Schema
	// Source and Target are the randomly selected fragmentations of the
	// two systems.
	Source, Target *core.Fragmentation
	// Model is the §4.1 cost model over the two systems.
	Model *core.Model
	// Provider exposes the underlying statistics.
	Provider *core.StatsProvider
}

// New builds a scenario.
func New(cfg Config) *Scenario {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sch := schema.Balanced(cfg.Depth, cfg.Fanout)
	src := core.Random(sch, rng, cfg.FragsPerSide)
	src.Name = "source"
	tgt := core.Random(sch, rng, cfg.FragsPerSide)
	tgt.Name = "target"
	card := make(map[string]float64, sch.Len())
	bytes := make(map[string]float64, sch.Len())
	for _, e := range sch.Names() {
		card[e] = math.Pow(cfg.Rep, float64(sch.ByName(e).Depth()))
		bytes[e] = cfg.ElemBytes
	}
	p := &core.StatsProvider{
		Card: card, Bytes: bytes,
		Unit:        core.DefaultUnitCosts(),
		SourceSpeed: cfg.SourceSpeed, TargetSpeed: cfg.TargetSpeed,
		TargetCombines: !cfg.DumbTarget,
	}
	m := core.NewModel(p)
	m.WComp, m.WComm = cfg.WComp, cfg.WComm
	return &Scenario{Config: cfg, Schema: sch, Source: src, Target: tgt, Model: m, Provider: p}
}

// Comparison holds the Figure 10/11 measurement: the cost components of
// the optimized data-exchange program and of publishing only.
type Comparison struct {
	Exchange core.CostBreakdown
	Publish  core.CostBreakdown
	// Reduction is 1 - exchange/publish on total cost.
	Reduction float64
	// CombinesAtTarget counts exchange combines placed at the target
	// (Figure 11's "places all combines there").
	CombinesAtTarget int
	// CombinesTotal counts all combines in the exchange program.
	CombinesTotal int
}

// CompareWithPublish evaluates the optimized (greedy, as the schemas here
// exceed the exhaustive search's reach) data-exchange program against
// publishing the full document at the source — the §5.4.1 experiment.
// Publishing uses a single program with every operation at the source and
// the whole document shipped, and does not account for tagging, exactly as
// the paper describes.
func (s *Scenario) CompareWithPublish() (Comparison, error) {
	var cmp Comparison
	m, err := core.NewMapping(s.Source, s.Target)
	if err != nil {
		return cmp, err
	}
	res, err := core.Greedy(m, s.Model)
	if err != nil {
		return cmp, err
	}
	cmp.Exchange, err = s.Model.Breakdown(res.Program, res.Assign)
	if err != nil {
		return cmp, err
	}
	for _, op := range res.Program.Ops {
		if op.Kind == core.OpCombine {
			cmp.CombinesTotal++
			if res.Assign[op.ID] == core.LocTarget {
				cmp.CombinesAtTarget++
			}
		}
	}
	pub, err := s.publishCost()
	if err != nil {
		return cmp, err
	}
	cmp.Publish = pub
	et := cmp.Exchange.Computation + cmp.Exchange.Communication
	pt := cmp.Publish.Computation + cmp.Publish.Communication
	if pt > 0 {
		cmp.Reduction = 1 - et/pt
	}
	return cmp, nil
}

// publishCost builds the publishing program (source fragmentation to the
// whole XML Schema, all operations at the source) and evaluates it.
func (s *Scenario) publishCost() (core.CostBreakdown, error) {
	pm, err := core.NewMapping(s.Source, core.Trivial(s.Schema))
	if err != nil {
		return core.CostBreakdown{}, err
	}
	g, err := core.CanonicalProgram(pm)
	if err != nil {
		return core.CostBreakdown{}, err
	}
	a := core.NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == core.OpWrite {
			a[op.ID] = core.LocTarget
		} else {
			a[op.ID] = core.LocSource
		}
	}
	return s.Model.Breakdown(g, a)
}

// GreedyEval is one row of Table 5 plus the §5.4.2 runtime comparison.
type GreedyEval struct {
	// SpeedRatio is source speed / target speed, e.g. "5/1".
	SpeedRatio string
	// WorstOverOptimal and GreedyOverOptimal are cost ratios averaged over
	// the runs.
	WorstOverOptimal  float64
	GreedyOverOptimal float64
	// OptimalTime and GreedyTime are the average per-run optimizer
	// runtimes.
	OptimalTime, GreedyTime time.Duration
	// OptimalPrograms is the average number of programs the exhaustive
	// search placed per run, where greedy builds and places one: the count
	// behind the runtime gap.
	OptimalPrograms float64
	// Runs is the number of random setups averaged.
	Runs int
}

// EvaluateGreedy reproduces one Table 5 row: for the given speeds it
// builds `runs` random DTD/fragmentation setups (varying the seed),
// computes optimal, worst-case (one exhaustive search yields both) and
// greedy programs, and averages the cost ratios.
func EvaluateGreedy(base Config, runs int) (GreedyEval, error) {
	base = base.withDefaults()
	ev := GreedyEval{SpeedRatio: fmt.Sprintf("%g/%g", base.SourceSpeed, base.TargetSpeed)}
	var sumWorst, sumGreedy, sumPrograms float64
	var sumOptTime, sumGreedyTime time.Duration
	for seed := int64(0); ev.Runs < runs && seed < int64(runs*10); seed++ {
		cfg := base
		cfg.Seed = base.Seed + seed
		scn := New(cfg)
		m, err := core.NewMapping(scn.Source, scn.Target)
		if err != nil {
			return ev, err
		}
		t0 := time.Now()
		opt, worst, err := core.Optimal(m, scn.Model)
		optTime := time.Since(t0)
		if err != nil {
			return ev, err
		}
		t1 := time.Now()
		gr, err := core.Greedy(m, scn.Model)
		greedyTime := time.Since(t1)
		if err != nil {
			return ev, err
		}
		if opt.Cost <= 0 {
			continue
		}
		sumWorst += worst.Cost / opt.Cost
		sumGreedy += gr.Cost / opt.Cost
		sumPrograms += float64(opt.Considered)
		sumOptTime += optTime
		sumGreedyTime += greedyTime
		ev.Runs++
	}
	if ev.Runs == 0 {
		return ev, fmt.Errorf("sim: no feasible setups for exhaustive evaluation")
	}
	n := float64(ev.Runs)
	ev.WorstOverOptimal = sumWorst / n
	ev.GreedyOverOptimal = sumGreedy / n
	ev.OptimalPrograms = sumPrograms / n
	ev.OptimalTime = sumOptTime / time.Duration(ev.Runs)
	ev.GreedyTime = sumGreedyTime / time.Duration(ev.Runs)
	return ev, nil
}
