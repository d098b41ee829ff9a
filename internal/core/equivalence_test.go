package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// Program equivalence: every combine ordering the generator enumerates for
// a mapping must deliver identical target instances — orderings may differ
// in cost but never in semantics (§4: "There is often more than one
// program that can be used to express a data transfer for a given
// mapping").
func TestEnumeratedProgramsAreEquivalent(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 3)
		src := Random(sch, rng, rng.Intn(5)+2)
		tgt := Random(sch, rng, rng.Intn(5)+2)
		m, err := NewMapping(src, tgt)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := generate(m, maxTreesPerTarget, 8)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		doc := randomDoc(sch, rng, 3)
		var ref *ExecResult
		for i, g := range progs {
			srcs, err := FromDocument(src, doc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Execute(g, sch, srcs)
			if err != nil {
				t.Fatalf("seed %d program %d: %v", seed, i, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !EqualWritten(ref, res) {
				t.Errorf("seed %d: program %d wrote different data than program 0:\n%s", seed, i, g)
			}
		}
	}
}

// Placement equivalence: a program executed as a source slice and a target
// slice joined by the shipment delivers what the single-process executor
// delivers, under any monotone placement, and each slice traces its ops in
// topological order. Cases: the CustomerInfo program under its cheapest and
// dearest placements, checked against Execute; and seeded Balanced schemas ×
// Random fragmentation pairs × generated programs × random monotone
// placements, checked against the FromDocument/Document oracle.
func TestSlicedExecutionMatchesLocal(t *testing.T) {
	sch := customerSchema()
	src := sFragmentation(t, sch)
	tgt := tFragmentation(t, sch)
	m, _ := NewMapping(src, tgt)
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	model := modelFor(sch, 1, 4) // fast target pulls some ops over
	best, worst, err := MinMaxPlacement(g, model)
	if err != nil {
		t.Fatal(err)
	}
	local, err := Execute(g, sch, mustSources(t, src))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Assignment{best.Assign, worst.Assign} {
		res := executeSliced(t, g, sch, a, mustSources(t, src))
		if !EqualWritten(local, res) {
			t.Errorf("sliced execution differs from local under placement %v", a)
		}
	}

	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 3)
		src := Random(sch, rng, rng.Intn(5)+2)
		tgt := Random(sch, rng, rng.Intn(5)+2)
		m, err := NewMapping(src, tgt)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := generate(m, maxTreesPerTarget, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		doc := randomDoc(sch, rng, 3)
		for pi, g := range progs {
			for range 3 {
				a := randomPlacement(g, rng)
				srcs, err := FromDocument(src, doc)
				if err != nil {
					t.Fatal(err)
				}
				res := executeSliced(t, g, sch, a, srcs)
				back, err := Document(tgt, res.Written)
				if err != nil {
					t.Fatalf("seed %d program %d placement %v: %v", seed, pi, a, err)
				}
				if !xmltree.EqualShape(doc, back) {
					t.Errorf("seed %d program %d placement %v: transferred document differs\n%s", seed, pi, a, g)
				}
			}
		}
	}
}

// executeSliced runs g's source slice over srcs, hands its outbound map to
// the target slice as Inbound, and returns what the target wrote. It fails
// t unless each slice traced exactly its own ops, every one after the local
// producers of its inputs.
func executeSliced(t *testing.T, g *Graph, sch *schema.Schema, a Assignment, srcs map[string]*Instance) *ExecResult {
	t.Helper()
	res := &ExecResult{Written: map[string]*Instance{}}
	var shipped map[string]*Instance
	for _, loc := range []Location{LocSource, LocTarget} {
		out, traces, err := ExecuteSlice(g, sch, a, loc, SliceIO{
			Scan: func(f *Fragment) (*Instance, error) {
				for _, in := range srcs {
					if in.Frag.SameElems(f) {
						return in, nil
					}
				}
				return nil, fmt.Errorf("no source %q", f.Name)
			},
			Inbound: shipped,
			Write: func(in *Instance) error {
				res.Written[in.Frag.Name] = in
				return nil
			},
		})
		if err != nil {
			t.Fatalf("%v slice under %v: %v", loc, a, err)
		}
		shipped = out
		pos := make(map[int]int, len(traces))
		for i, tr := range traces {
			if a[tr.Op.ID] != loc {
				t.Fatalf("%v slice traced %s, placed at %v", loc, tr.Op, a[tr.Op.ID])
			}
			for _, e := range g.In(tr.Op) {
				if p, ok := pos[e.From.ID]; a[e.From.ID] == loc && (!ok || p >= i) {
					t.Fatalf("%v slice traced %s before its input %s", loc, tr.Op, e.From)
				}
			}
			pos[tr.Op.ID] = i
		}
		placed := 0
		for _, l := range a {
			if l == loc {
				placed++
			}
		}
		if len(traces) != placed {
			t.Fatalf("%v slice traced %d ops, %d placed there", loc, len(traces), placed)
		}
	}
	return res
}

// randomPlacement draws a monotone placement with Scans at the source and
// Writes at the target: in topological order, an op moves to the target on
// a coin flip, or because one of its inputs already did.
func randomPlacement(g *Graph, rng *rand.Rand) Assignment {
	a := NewAssignment(g)
	for _, op := range g.Topo() {
		a[op.ID] = LocSource
		if op.Kind == OpWrite || op.Kind != OpScan && rng.Intn(2) == 0 {
			a[op.ID] = LocTarget
		}
		for _, e := range g.In(op) {
			if a[e.From.ID] == LocTarget {
				a[op.ID] = LocTarget
			}
		}
	}
	return a
}

// One reader per output: Validate refuses a program in which two edges
// read the same output of one op — a Scan read twice, a Combine read
// twice, a Split part carried twice — naming the op and the fragment, and
// Execute runs none of it. It accepts a planned program without
// allocating.
func TestValidateRefusesFanOut(t *testing.T) {
	sch := customerSchema()
	fr, err := FromPartition(sch, "fanout", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName", "Line", "TelNo", "Switch", "SwitchID", "Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fa, fb, fc := fr.Fragments[0], fr.Fragments[1], fr.Fragments[2]
	fab, err := NewFragment(sch, "ab", []string{"Customer", "CustName", "Order"})
	if err != nil {
		t.Fatal(err)
	}
	fabc, err := NewFragment(sch, "abc", sch.Names())
	if err != nil {
		t.Fatal(err)
	}
	// scanTwice: the Order Scan feeds a Write and a Combine chain.
	scanTwice := NewGraph()
	s1 := scanTwice.AddOp(OpScan, fa)
	s2 := scanTwice.AddOp(OpScan, fb)
	s3 := scanTwice.AddOp(OpScan, fc)
	w0 := scanTwice.AddOp(OpWrite, fb)
	c1 := scanTwice.AddOp(OpCombine, fab)
	c2 := scanTwice.AddOp(OpCombine, fabc)
	w1 := scanTwice.AddOp(OpWrite, fabc)
	scanTwice.Connect(s2, w0, fb)
	scanTwice.Connect(s1, c1, fa)
	scanTwice.Connect(s2, c1, fb)
	scanTwice.Connect(c1, c2, fab)
	scanTwice.Connect(s3, c2, fc)
	scanTwice.Connect(c2, w1, fabc)
	// combineTwice: a Combine's output feeds two Writes.
	combineTwice := NewGraph()
	s1 = combineTwice.AddOp(OpScan, fa)
	s2 = combineTwice.AddOp(OpScan, fb)
	c1 = combineTwice.AddOp(OpCombine, fab)
	w0 = combineTwice.AddOp(OpWrite, fab)
	w1 = combineTwice.AddOp(OpWrite, fab)
	combineTwice.Connect(s1, c1, fa)
	combineTwice.Connect(s2, c1, fb)
	combineTwice.Connect(c1, w0, fab)
	combineTwice.Connect(c1, w1, fab)
	// partTwice: a Split carries its Order part on two edges.
	partTwice := NewGraph()
	s1 = partTwice.AddOp(OpScan, fabc)
	sp := partTwice.AddOp(OpSplit, fabc, fa, fb, fc)
	wa := partTwice.AddOp(OpWrite, fa)
	wb := partTwice.AddOp(OpWrite, fb)
	wb2 := partTwice.AddOp(OpWrite, fb)
	wc := partTwice.AddOp(OpWrite, fc)
	partTwice.Connect(s1, sp, fabc)
	partTwice.Connect(sp, wa, fa)
	partTwice.Connect(sp, wb, fb)
	partTwice.Connect(sp, wb2, fb)
	partTwice.Connect(sp, wc, fc)
	srcs, err := FromDocument(fr, customerDoc())
	if err != nil {
		t.Fatal(err)
	}
	whole := map[string]*Instance{fabc.Name: {Frag: fabc, Records: []*xmltree.Node{customerDoc()}}}
	for _, c := range []struct {
		name     string
		g        *Graph
		op, frag string
		srcs     map[string]*Instance
	}{
		{"scan read twice", scanTwice, "Scan(Order)", fb.Name, srcs},
		{"combine read twice", combineTwice, "Combine(ab)", fab.Name, srcs},
		{"split part carried twice", partTwice, "Split(abc -> ", fb.Name, whole},
	} {
		err := c.g.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted the program:\n%s", c.name, c.g)
		}
		if msg := err.Error(); !strings.Contains(msg, c.op) || !strings.Contains(msg, fmt.Sprintf("%q", c.frag)) {
			t.Errorf("%s: error %q names neither %s nor %q", c.name, msg, c.op, c.frag)
		}
		if res, err := Execute(c.g, sch, c.srcs); err == nil {
			t.Errorf("%s: Execute ran the program and wrote %d instances", c.name, len(res.Written))
		}
	}

	m, err := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	if err != nil {
		t.Fatal(err)
	}
	g, err := GreedyProgram(m, testProvider(sch, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times per run, want 0", n)
	}
}

func mustSources(t *testing.T, fr *Fragmentation) map[string]*Instance {
	t.Helper()
	srcs, err := FromDocument(fr, customerDoc())
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// Cost sanity: for every enumerated program, the optimal placement's cost
// is a lower bound on any other placement the search visits.
func TestOptimalIsLowerBound(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	progs, err := generate(m, maxTreesPerTarget, 4)
	if err != nil {
		t.Fatal(err)
	}
	model := modelFor(sch, 2, 3)
	for i, g := range progs {
		best, worst, err := MinMaxPlacement(g, model)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := GreedyPlacement(g, model)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Cost < best.Cost-1e-9 || gr.Cost > worst.Cost+1e-9 {
			t.Errorf("program %d: greedy %v outside [best %v, worst %v]", i, gr.Cost, best.Cost, worst.Cost)
		}
	}
}

// EqualWritten reports whether two execution results wrote the same
// fragment instances (same rows per fragment, shape-equal records).
func EqualWritten(a, b *ExecResult) bool {
	if len(a.Written) != len(b.Written) {
		return false
	}
	for name, ia := range a.Written {
		ib := b.Written[name]
		if ib == nil || ia.Rows() != ib.Rows() {
			return false
		}
		for i := range ia.Records {
			if !xmltree.EqualShape(ia.Records[i], ib.Records[i]) {
				return false
			}
		}
	}
	return true
}
