package core

import (
	"math/rand"
	"strings"
	"testing"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

func TestFilterSourcesByCustomer(t *testing.T) {
	// Two customers; the service argument keeps only "Ann" (§3.2).
	sch := customerSchema()
	fr := sFragmentation(t, sch)
	ann := customerDoc()
	bobDoc := customerDoc()
	bob := bobDoc.Find("CustName")
	bob.Text = "Bob"
	// Build per-fragment sources holding both customers.
	srcA, _ := FromDocument(fr, ann)
	srcB, _ := FromDocument(fr, bobDoc)
	// Re-id Bob's records so IDs do not collide.
	reID(bobDoc, "b")
	srcB, _ = FromDocument(fr, bobDoc)
	merged := map[string]*Instance{}
	for name, in := range srcA {
		merged[name] = &Instance{Frag: in.Frag, Records: append(append([]*xmltree.Node{}, in.Records...), srcB[name].Records...)}
	}
	kept, err := FilterSources(fr, merged, func(rec *xmltree.Node) bool {
		n := rec.Find("CustName")
		return n != nil && n.Text == "Ann"
	})
	if err != nil {
		t.Fatal(err)
	}
	trees := map[string]*Instance{}
	for name, recs := range kept {
		if recs.Len() != srcA[name].Rows() {
			t.Errorf("fragment %q kept %d records, want %d", name, recs.Len(), srcA[name].Rows())
		}
		held, err := recs.Build(nil, 0, recs.Len(), nil)
		if err != nil {
			t.Fatal(err)
		}
		trees[name] = &Instance{Frag: merged[name].Frag, Records: held}
	}
	// The filtered sources still execute and reassemble to Ann's document.
	m, _ := NewMapping(fr, tFragmentation(t, sch))
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(g, sch, trees)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Document(m.Target, res.Written)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Find("CustName").Text; got != "Ann" {
		t.Errorf("filtered exchange delivered %q", got)
	}
}

func reID(doc *xmltree.Node, prefix string) {
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.ID != "" {
			n.ID = prefix + n.ID
		}
		if n.Parent != "" {
			n.Parent = prefix + n.Parent
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(doc)
}

func TestFilterSourcesNilPredicateKeepsAll(t *testing.T) {
	sch := customerSchema()
	fr := sFragmentation(t, sch)
	src, _ := FromDocument(fr, customerDoc())
	kept, err := FilterSources(fr, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, recs := range kept {
		if recs != Records(src[name]) {
			t.Errorf("fragment %q lost records with nil predicate", name)
		}
	}
}

func TestFilterSourcesMissingFragment(t *testing.T) {
	sch := customerSchema()
	fr := sFragmentation(t, sch)
	if _, err := FilterSources(fr, map[string]*Instance{}, nil); err == nil {
		t.Error("missing sources must fail")
	}
}

func TestRecommendTargetPrefersAlignedLayout(t *testing.T) {
	// With the source fixed, a recommended target should cost no more than
	// the canonical layouts, and an identical layout should be near the
	// floor (pure Scan->Write, no combines or splits).
	sch := customerSchema()
	src := sFragmentation(t, sch)
	model := modelFor(sch, 1, 1)
	rec, err := RecommendTarget(src, model, RecommendOptions{Candidates: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Evaluated < 13 {
		t.Errorf("evaluated only %d candidates", rec.Evaluated)
	}
	identCost, err := exchangeCost(src, src, model)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cost > identCost+1e-9 {
		t.Errorf("recommended cost %.1f worse than the identical layout %.1f", rec.Cost, identCost)
	}
	// And strictly better than the worst canonical baseline.
	trivCost, _ := exchangeCost(src, Trivial(sch), model)
	if rec.Cost > trivCost {
		t.Errorf("recommendation %.1f no better than trivial %.1f", rec.Cost, trivCost)
	}
}

func TestRecommendSourceRuns(t *testing.T) {
	sch := schema.Balanced(2, 3)
	rng := rand.New(rand.NewSource(4))
	tgt := Random(sch, rng, 5)
	model := modelFor(sch, 1, 1)
	rec, err := RecommendSource(tgt, model, RecommendOptions{Candidates: 5, Seed: 2, MaxClimbSteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fragmentation == nil || rec.Cost <= 0 {
		t.Fatalf("bad recommendation: %+v", rec)
	}
	// The result must be a valid fragmentation.
	if _, err := NewFragmentation(sch, "check", rec.Fragmentation.Fragments); err != nil {
		t.Errorf("recommended fragmentation invalid: %v", err)
	}
}

func TestFromCutsMatchesRandom(t *testing.T) {
	sch := schema.Auction()
	rng := rand.New(rand.NewSource(9))
	fr := Random(sch, rng, 6)
	cuts := cutsOf(sch, fr)
	back, err := fromCuts(sch, cuts)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != fr.Len() {
		t.Fatalf("fromCuts(cutsOf(fr)) has %d fragments, want %d", back.Len(), fr.Len())
	}
	for _, f := range fr.Fragments {
		g := back.FragmentOf(f.Root)
		if g == nil || !g.SameElems(f) {
			t.Errorf("fragment rooted at %q changed", f.Root)
		}
	}
}

func TestSummarizeTraces(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, _ := CanonicalProgram(m)
	srcs, _ := FromDocument(m.Source, customerDoc())
	res, err := Execute(g, sch, srcs)
	if err != nil {
		t.Fatal(err)
	}
	out := SummarizeTraces(res.Traces)
	for _, want := range []string{"Scan", "Combine", "Split", "Write", "total", "operations"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) != len(g.Ops)+3 { // header, one row per op, total, the empty tail
		t.Fatalf("summary has %d lines, want %d", len(lines)-1, len(g.Ops)+2)
	}
	for i, tr := range res.Traces {
		if kind := tr.Op.Kind.String(); !strings.HasPrefix(lines[i+1], kind+" ") {
			t.Errorf("row %d = %q, want it to begin with its kind %s", i, lines[i+1], kind)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, _ := CanonicalProgram(m)
	_, err := Execute(g, sch, map[string]*Instance{})
	if err == nil {
		t.Fatal("missing sources must fail")
	}
	if !strings.Contains(err.Error(), "no source instance") {
		t.Errorf("unexpected error: %v", err)
	}
}
