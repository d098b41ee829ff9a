package core

import (
	"strings"
	"testing"
)

func TestGraphValidateCatchesMalformations(t *testing.T) {
	sch := customerSchema()
	fa, _ := NewFragment(sch, "", []string{"Customer", "CustName"})
	fb, _ := NewFragment(sch, "", []string{"Order"})

	// Write with outgoing edge.
	g := NewGraph()
	w := g.AddOp(OpWrite, fa)
	w2 := g.AddOp(OpWrite, fb)
	g.Connect(w, w2, fa)
	if err := g.Validate(); err == nil {
		t.Error("write with outgoing edge must fail")
	}

	// Scan with input.
	g = NewGraph()
	s1 := g.AddOp(OpScan, fa)
	s2 := g.AddOp(OpScan, fb)
	g.Connect(s1, s2, fa)
	if err := g.Validate(); err == nil {
		t.Error("scan with input must fail")
	}

	// Combine with one input.
	g = NewGraph()
	s1 = g.AddOp(OpScan, fa)
	c := g.AddOp(OpCombine, fa)
	g.Connect(s1, c, fa)
	if err := g.Validate(); err == nil {
		t.Error("combine with one input must fail")
	}

	// Split with no outputs.
	g = NewGraph()
	s1 = g.AddOp(OpScan, fa)
	sp := g.AddOp(OpSplit, fa)
	g.Connect(s1, sp, fa)
	if err := g.Validate(); err == nil {
		t.Error("split with no outputs must fail")
	}

	// Edge carrying the wrong fragment.
	g = NewGraph()
	s1 = g.AddOp(OpScan, fa)
	w = g.AddOp(OpWrite, fb)
	g.Connect(s1, w, fb) // scan produces fa, edge claims fb
	if err := g.Validate(); err == nil {
		t.Error("wrong edge fragment must fail")
	}

	// Edge against ID order.
	g = NewGraph()
	w = g.AddOp(OpWrite, fa)
	s1 = g.AddOp(OpScan, fa)
	g.Connect(s1, w, fa)
	if err := g.Validate(); err == nil {
		t.Error("back edge must fail")
	}
}

func TestOpAndLocationStrings(t *testing.T) {
	sch := customerSchema()
	f, _ := NewFragment(sch, "", []string{"Customer", "CustName"})
	p1, _ := NewFragment(sch, "", []string{"Customer"})
	p2, _ := NewFragment(sch, "", []string{"CustName"})
	g := NewGraph()
	sp := g.AddOp(OpSplit, f, p1, p2)
	if got := sp.String(); !strings.Contains(got, "Split(") || !strings.Contains(got, "->") {
		t.Errorf("split string = %q", got)
	}
	if OpScan.String() != "Scan" || OpWrite.String() != "Write" || OpKind(99).String() == "" {
		t.Error("OpKind strings wrong")
	}
	if LocSource.String() != "S" || LocTarget.String() != "T" || LocUnassigned.String() != "?" {
		t.Error("Location strings wrong")
	}
}

func TestGraphDOT(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == OpWrite {
			a[op.ID] = LocTarget
		} else {
			a[op.ID] = LocSource
		}
	}
	dot := g.DOT(a)
	for _, want := range []string{"digraph program", "color=blue", "color=red", `label="ship"`, "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Unplaced rendering works too.
	if plain := g.DOT(nil); strings.Contains(plain, "color=") {
		t.Errorf("unplaced DOT should be uncolored")
	}
}

func TestAssignmentHelpers(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(tFragmentation(t, sch), tFragmentation(t, sch))
	g, _ := CanonicalProgram(m)
	a := NewAssignment(g)
	if a.Complete() {
		t.Error("fresh assignment should be incomplete")
	}
	for _, op := range g.Ops {
		if op.Kind == OpScan {
			a[op.ID] = LocSource
		} else {
			a[op.ID] = LocTarget
		}
	}
	if !a.Complete() || !a.Monotone(g) {
		t.Error("assignment should be complete and monotone")
	}
	cross := 0
	for _, e := range g.Edges {
		if a[e.From.ID] == LocSource && a[e.To.ID] == LocTarget {
			cross++
		}
	}
	if cross != len(g.Edges) {
		t.Errorf("cross edges = %d, want %d", cross, len(g.Edges))
	}
	b := a.Clone()
	b[0] = LocTarget
	if a[0] == b[0] {
		t.Error("clone shares storage")
	}
	if got := g.OpStats(); got.Scans != 4 || got.Writes != 4 {
		t.Errorf("op stats = %+v", got)
	}
}
