package core

import (
	"math/rand"
	"strings"
	"testing"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

func TestMappingSToT(t *testing.T) {
	sch := customerSchema()
	src := sFragmentation(t, sch)
	tgt := tFragmentation(t, sch)
	m, err := NewMapping(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	// Target Order_Service draws from source ORDER and SERVICE.
	var orderTarget *Fragment
	for _, f := range tgt.Fragments {
		if f.Root == "Order" {
			orderTarget = f
		}
	}
	srcs := m.Assoc[orderTarget.Name]
	if len(srcs) != 2 {
		t.Fatalf("Order_Service has %d source fragments, want 2: %v", len(srcs), srcs)
	}
}

func TestMappingIdentical(t *testing.T) {
	sch := customerSchema()
	a := tFragmentation(t, sch)
	b := tFragmentation(t, sch)
	m, err := NewMapping(a, b)
	if err != nil {
		t.Fatal(err)
	}
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	st := g.OpStats()
	if st.Combines != 0 || st.Splits != 0 || st.Scans != 4 || st.Writes != 4 {
		t.Errorf("identical mapping should be pure Scan->Write: %+v", st)
	}
}

func TestMappingDifferentSchemas(t *testing.T) {
	a := Trivial(customerSchema())
	b := Trivial(schema.Auction())
	if _, err := NewMapping(a, b); err == nil {
		t.Error("mapping across schemas must fail")
	}
}

func TestPieces(t *testing.T) {
	sch := customerSchema()
	src := sFragmentation(t, sch)
	tgt := tFragmentation(t, sch)
	m, _ := NewMapping(src, tgt)
	// LINE_FEATURE splits into Line_TelNo (for Line_Switch) and
	// Feature_FeatureID (for Feature).
	lf := src.FragmentOf("TelNo")
	pieces, err := m.Pieces(lf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 2 {
		t.Fatalf("LINE_FEATURE pieces = %d, want 2", len(pieces))
	}
	roots := map[string]bool{}
	for _, p := range pieces {
		roots[p.Root] = true
	}
	if !roots["Line"] || !roots["Feature"] {
		t.Errorf("piece roots = %v", roots)
	}
	// CUSTOMER maps whole.
	cust := src.FragmentOf("CustName")
	pieces, err = m.Pieces(cust)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 1 || pieces[0] != cust {
		t.Errorf("CUSTOMER should map whole, got %v", pieces)
	}
}

func TestCanonicalProgramFigure5(t *testing.T) {
	// The S->T transfer of Figure 5: one split of LINE_FEATURE, one
	// combine for Order_Service, one combine for Line_Switch.
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := g.OpStats()
	if st.Scans != 5 || st.Writes != 4 || st.Splits != 1 || st.Combines != 2 {
		t.Errorf("Figure 5 op mix wrong: %+v\n%s", st, g)
	}
	// Customer and Feature are Scan/Split -> Write directly.
	s := g.String()
	if !strings.Contains(s, "Write(Customer_CustName)") {
		t.Errorf("missing customer write:\n%s", s)
	}
}

func TestPublishingProgramFigure3(t *testing.T) {
	// S-fragmentation -> whole schema (publishing, Figure 3): pure combines.
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), Trivial(sch))
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	st := g.OpStats()
	if st.Scans != 5 || st.Writes != 1 || st.Splits != 0 || st.Combines != 4 {
		t.Errorf("publishing op mix wrong: %+v\n%s", st, g)
	}
}

func TestLoadingProgramFigure4(t *testing.T) {
	// Whole schema -> T-fragmentation (loading, Figure 4): one scan, splits,
	// no combines.
	sch := customerSchema()
	m, _ := NewMapping(Trivial(sch), tFragmentation(t, sch))
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	st := g.OpStats()
	if st.Scans != 1 || st.Writes != 4 || st.Combines != 0 || st.Splits != 1 {
		t.Errorf("loading op mix wrong: %+v\n%s", st, g)
	}
}

func TestGenerateProgramsEnumeratesOrderings(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), Trivial(sch))
	progs, err := GeneratePrograms(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) < 2 {
		t.Fatalf("expected multiple combine orderings, got %d", len(progs))
	}
	canonical, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	if canonical.String() != progs[0].String() {
		t.Errorf("CanonicalProgram\n%s\nis not the first program\n%s", canonical, progs[0])
	}
	// All programs must validate and have identical op mixes.
	want := progs[0].OpStats()
	for i, g := range progs {
		if err := g.Validate(); err != nil {
			t.Fatalf("program %d invalid: %v", i, err)
		}
		if g.OpStats() != want {
			t.Errorf("program %d op mix %+v != %+v", i, g.OpStats(), want)
		}
	}
	// Programs should be distinct.
	seen := map[string]bool{}
	for _, g := range progs {
		if seen[g.String()] {
			t.Errorf("duplicate program enumerated:\n%s", g)
		}
		seen[g.String()] = true
	}
}

func TestGenerateProgramsCap(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), Trivial(sch))
	progs, err := generate(m, maxTreesPerTarget, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 3 {
		t.Errorf("cap not honored: %d programs", len(progs))
	}
}

func TestGreedyProgramValid(t *testing.T) {
	sch := customerSchema()
	m, _ := NewMapping(sFragmentation(t, sch), tFragmentation(t, sch))
	g, err := GreedyProgram(m, testProvider(sch, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OpStats() != (Stats{Scans: 5, Combines: 2, Splits: 1, Writes: 4}) {
		t.Errorf("greedy op mix: %+v", g.OpStats())
	}
}

func TestExecutePrograms(t *testing.T) {
	sch := customerSchema()
	src := sFragmentation(t, sch)
	tgt := tFragmentation(t, sch)
	m, _ := NewMapping(src, tgt)
	doc := customerDoc()
	sources, err := FromDocument(src, doc)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := generate(m, maxTreesPerTarget, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantInsts, _ := FromDocument(tgt, customerDoc())
	for i, g := range progs {
		// Execute needs fresh sources: combines mutate records.
		srcs, _ := FromDocument(src, customerDoc())
		res, err := Execute(g, sch, srcs)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if len(res.Written) != tgt.Len() {
			t.Fatalf("program %d wrote %d fragments, want %d", i, len(res.Written), tgt.Len())
		}
		for name, got := range res.Written {
			want := wantInsts[name]
			if want == nil {
				t.Fatalf("program %d wrote unexpected fragment %q", i, name)
			}
			if got.Rows() != want.Rows() {
				t.Errorf("program %d fragment %q: rows %d, want %d", i, name, got.Rows(), want.Rows())
			}
		}
		if len(res.Traces) != len(g.Ops) {
			t.Errorf("program %d traced %d ops, want %d", i, len(res.Traces), len(g.Ops))
		}
	}
	_ = doc
	_ = sources
}

func TestExecuteEndToEndDocumentEquality(t *testing.T) {
	// Full round trip through an executed transfer program: the document
	// reassembled from the target instances equals the original.
	sch := customerSchema()
	src := sFragmentation(t, sch)
	tgt := tFragmentation(t, sch)
	m, _ := NewMapping(src, tgt)
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	srcs, _ := FromDocument(src, customerDoc())
	res, err := Execute(g, sch, srcs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Document(tgt, res.Written)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualShape(customerDoc(), back) {
		t.Errorf("transferred document differs:\n%s", xmltree.Marshal(back, xmltree.WriteOptions{}))
	}
}

func TestExecuteRandomMappingsProperty(t *testing.T) {
	// Random source/target fragmentations over a balanced schema: the
	// canonical program executes and reproduces the target partition.
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 3)
		src := Random(sch, rng, rng.Intn(8)+1)
		tgt := Random(sch, rng, rng.Intn(8)+1)
		m, err := NewMapping(src, tgt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g, err := CanonicalProgram(m)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		doc := randomDoc(sch, rng, 3)
		srcs, err := FromDocument(src, doc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := Execute(g, sch, srcs)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, g)
		}
		back, err := Document(tgt, res.Written)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !xmltree.EqualShape(doc, back) {
			t.Errorf("seed %d: transferred document differs", seed)
		}
	}
}

// The planner never emits an output two edges read: over seeded random
// mappings on Balanced(3,3) and Auction, every program GeneratePrograms,
// CanonicalProgram and GreedyProgram build passes Validate, which refuses
// fan-out. It is what lets every op consume its inputs in place. The
// canonical program is the first one enumerated.
func TestPlannedProgramsReadEachOutputOnce(t *testing.T) {
	programs := 0
	for _, sch := range []*schema.Schema{schema.Balanced(3, 3), schema.Auction()} {
		n := len(sch.Names())
		for seed := int64(0); seed < 100; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, err := NewMapping(Random(sch, rng, 1+rng.Intn(n)), Random(sch, rng, 1+rng.Intn(n)))
			if err != nil {
				t.Fatal(err)
			}
			progs, err := generate(m, 32, 32)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			canonical, err := CanonicalProgram(m)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			// The caps only cut the enumeration short, so progs[0] is the
			// first program GeneratePrograms returns.
			if canonical.String() != progs[0].String() {
				t.Fatalf("seed %d: CanonicalProgram\n%s\nis not the first enumerated program\n%s", seed, canonical, progs[0])
			}
			greedy, err := GreedyProgram(m, testProvider(sch, 1, 1))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for i, g := range append(progs, canonical, greedy) {
				if err := g.Validate(); err != nil {
					t.Fatalf("seed %d program %d: %v\n%s", seed, i, err, g)
				}
			}
			programs += len(progs) + 2
		}
	}
	t.Logf("%d programs validated", programs)
}
