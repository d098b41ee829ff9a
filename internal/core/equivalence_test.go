package core

import (
	"fmt"
	"math/rand"
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
		progs, err := GeneratePrograms(m, GenOptions{MaxPrograms: 8})
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
		progs, err := GeneratePrograms(m, GenOptions{MaxPrograms: 4})
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

// Fan-out copy-on-write: a scanned fragment consumed by both a Write and a
// Combine chain must reach the Write untouched, even though downstream
// Combines attach grandchildren into (copies of) the very same records.
func TestFanOutCopyOnWrite(t *testing.T) {
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
	g := NewGraph()
	s1 := g.AddOp(OpScan, fa)
	s2 := g.AddOp(OpScan, fb)
	s3 := g.AddOp(OpScan, fc)
	w0 := g.AddOp(OpWrite, fb) // duplicate consumer of the Order fragment
	c1 := g.AddOp(OpCombine, fab)
	c2 := g.AddOp(OpCombine, fabc)
	w1 := g.AddOp(OpWrite, fabc)
	g.Connect(s2, w0, fb)
	g.Connect(s1, c1, fa)
	g.Connect(s2, c1, fb)
	g.Connect(c1, c2, fab)
	g.Connect(s3, c2, fc)
	g.Connect(c2, w1, fabc)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	srcs, err := FromDocument(fr, customerDoc())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(g, sch, srcs)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := FromDocument(fr, customerDoc())
	if err != nil {
		t.Fatal(err)
	}
	dup := res.Written[fb.Name]
	want := fresh[fb.Name]
	if dup == nil || dup.Rows() != want.Rows() {
		t.Fatalf("duplicate write has %v records, want %d", dup, want.Rows())
	}
	for i := range want.Records {
		if !xmltree.EqualShape(dup.Records[i], want.Records[i]) {
			t.Errorf("record %d of the duplicated fragment was mutated by the combine chain", i)
		}
	}
	whole := res.Written[fabc.Name]
	if whole == nil || whole.Rows() != 1 || !xmltree.EqualShape(whole.Records[0], customerDoc()) {
		t.Errorf("combined document does not match the original")
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
	progs, err := GeneratePrograms(m, GenOptions{MaxPrograms: 4})
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
