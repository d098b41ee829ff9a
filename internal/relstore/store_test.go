package relstore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

func customerDoc() *xmltree.Node {
	doc, err := xmltree.Parse(strings.NewReader(docXML))
	if err != nil {
		panic(err)
	}
	core.AssignIDs(doc)
	return doc
}

const docXML = `<Customer><CustName>Ann</CustName>` +
	`<Order><Service><ServiceName>local</ServiceName>` +
	`<Line><TelNo>555-0001</TelNo><Switch><SwitchID>sw1</SwitchID></Switch>` +
	`<Feature><FeatureID>callerID</FeatureID></Feature>` +
	`<Feature><FeatureID>voicemail</FeatureID></Feature></Line>` +
	`<Line><TelNo>555-0002</TelNo><Switch><SwitchID>sw2</SwitchID></Switch></Line>` +
	`</Service></Order>` +
	`<Order><Service><ServiceName>ld</ServiceName>` +
	`<Line><TelNo>555-0003</TelNo><Switch><SwitchID>sw1</SwitchID></Switch>` +
	`<Feature><FeatureID>callerID</FeatureID></Feature></Line>` +
	`</Service></Order></Customer>`

func TestTableBasics(t *testing.T) {
	tb, err := NewTable("t", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert([]string{"1", "x"}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert([]string{"1"}); err == nil {
		t.Error("short row must fail")
	}
	if tb.Len() != 1 || tb.rows[0][1] != "x" {
		t.Errorf("table contents wrong")
	}
	if _, err := NewTable("t", []string{"a", "a"}); err == nil {
		t.Error("duplicate column must fail")
	}
	if tb.ColIndex("zz") != -1 {
		t.Error("missing column should be -1")
	}
}

func TestIndexAndLookup(t *testing.T) {
	tb, _ := NewTable("t", []string{"k", "v"})
	tb.BulkLoad([][]string{{"a", "1"}, {"b", "2"}, {"a", "3"}})
	if _, err := tb.Lookup("k", "a"); err == nil {
		t.Error("lookup without index must fail")
	}
	if _, err := tb.CreateIndex("zz"); err == nil {
		t.Error("index on missing column must fail")
	}
	if _, err := tb.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	rows, err := tb.Lookup("k", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("lookup(a) = %d rows, want 2", len(rows))
	}
	// Insert maintains the index.
	tb.Insert([]string{"a", "4"})
	rows, _ = tb.Lookup("k", "a")
	if len(rows) != 3 {
		t.Errorf("index not maintained on insert: %d rows", len(rows))
	}
	// BulkLoad drops indexes.
	tb.BulkLoad([][]string{{"c", "5"}})
	if len(tb.Indexes()) != 0 {
		t.Errorf("bulk load should drop indexes: %v", tb.Indexes())
	}
}

func tFrag(t *testing.T, sch *schema.Schema) *core.Fragmentation {
	t.Helper()
	fr, err := core.FromPartition(sch, "T", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestStoreLoadScanRoundTrip(t *testing.T) {
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	st, err := NewStore(fr)
	if err != nil {
		t.Fatal(err)
	}
	doc := customerDoc()
	if err := st.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	// Row counts match instance counts.
	wantRows := map[string]int{"Customer": 1, "Order": 2, "Line": 3, "Feature": 3}
	total := 0
	for _, f := range fr.Fragments {
		in, err := st.ScanFragment(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.Rows(); got != wantRows[f.Root] {
			t.Errorf("fragment %q rows = %d, want %d", f.Name, got, wantRows[f.Root])
		}
		total += in.Rows()
	}
	if st.Rows() != total {
		t.Errorf("store rows = %d, want %d", st.Rows(), total)
	}
	// Reassemble the document from scanned instances.
	insts := map[string]*core.Instance{}
	for _, f := range fr.Fragments {
		in, _ := st.ScanFragment(f.Name)
		insts[f.Name] = in
	}
	back, err := core.Document(fr, insts)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualShape(customerDoc(), back) {
		t.Errorf("store round trip changed document:\n%s", xmltree.Marshal(back, xmltree.WriteOptions{}))
	}
}

func TestStoreDenormalizedFragment(t *testing.T) {
	// §1.1's LINE_FEATURE: one row per (line, feature) pair.
	sch := schema.CustomerInfo()
	fr, err := core.FromPartition(sch, "S", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"},
		{"Switch", "SwitchID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(fr)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.LoadDocument(customerDoc()); err != nil {
		t.Fatal(err)
	}
	// 3 lines with 2+0+1 features -> 2+1+1 = 4 rows (a feature-less line
	// still has one row).
	lf := st.Table(fr.FragmentOf("TelNo").Name)
	if lf.Len() != 4 {
		t.Errorf("LINE_FEATURE rows = %d, want 4", lf.Len())
	}
	// Scanning regroups rows into 3 line records with their features.
	in, err := st.ScanFragment(fr.FragmentOf("TelNo").Name)
	if err != nil {
		t.Fatal(err)
	}
	if in.Rows() != 3 {
		t.Fatalf("line records = %d, want 3", in.Rows())
	}
	feats := 0
	for _, rec := range in.Records {
		for _, k := range rec.Kids {
			if k.Name == "Feature" {
				feats++
			}
		}
	}
	if feats != 3 {
		t.Errorf("features after regroup = %d, want 3", feats)
	}
	// Full round trip through the denormalized store.
	insts := map[string]*core.Instance{}
	for _, f := range fr.Fragments {
		i2, err := st.ScanFragment(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		insts[f.Name] = i2
	}
	back, err := core.Document(fr, insts)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualShape(customerDoc(), back) {
		t.Errorf("denormalized round trip changed document:\n%s",
			xmltree.Marshal(back, xmltree.WriteOptions{}))
	}
}

func TestStoreRejectsDoubleRepetition(t *testing.T) {
	sch := schema.CustomerInfo()
	// Order and Line both repeat inside one fragment: unsupported.
	fr, err := core.FromPartition(sch, "bad", [][]string{
		{"Customer", "CustName", "Order", "Service", "ServiceName", "Line", "TelNo"},
		{"Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(fr); err == nil {
		t.Error("store must reject fragments with two internal repetitions")
	}
}

func TestStoreMFAndLF(t *testing.T) {
	sch := schema.Auction()
	for _, fr := range []*core.Fragmentation{core.MostFragmented(sch), core.LeastFragmented(sch)} {
		if _, err := NewStore(fr); err != nil {
			t.Errorf("store for %s: %v", fr.Name, err)
		}
	}
}

func TestStoreIndexesAndClear(t *testing.T) {
	sch := schema.CustomerInfo()
	st, _ := NewStore(tFrag(t, sch))
	if err := st.LoadDocument(customerDoc()); err != nil {
		t.Fatal(err)
	}
	if err := st.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	for _, name := range st.Tables() {
		if got := len(st.Table(name).Indexes()); got != 2 {
			t.Errorf("table %q has %d indexes, want 2", name, got)
		}
	}
	st.Clear()
	if st.Rows() != 0 {
		t.Errorf("Clear left %d rows", st.Rows())
	}
}

func TestStoreStats(t *testing.T) {
	sch := schema.CustomerInfo()
	st, _ := NewStore(tFrag(t, sch))
	st.LoadDocument(customerDoc())
	card, bytes := st.Stats()
	if card["Line"] != 3 || card["Customer"] != 1 {
		t.Errorf("cardinalities wrong: %v", card)
	}
	if bytes["TelNo"] <= 0 {
		t.Errorf("byte estimate wrong: %v", bytes)
	}
}

func TestStoreLoadMismatchedFragment(t *testing.T) {
	sch := schema.CustomerInfo()
	st, _ := NewStore(tFrag(t, sch))
	f, _ := core.NewFragment(sch, "", []string{"Order"})
	err := st.Load(&core.Instance{Frag: f})
	if err == nil {
		t.Error("loading a non-layout fragment must fail")
	}
}

func TestStoreRandomDocsProperty(t *testing.T) {
	sch := schema.Balanced(2, 3)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fr := core.MostFragmented(sch)
		st, err := NewStore(fr)
		if err != nil {
			t.Fatal(err)
		}
		doc := randomDoc(sch, rng)
		if err := st.LoadDocument(doc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		insts := map[string]*core.Instance{}
		for _, f := range fr.Fragments {
			in, err := st.ScanFragment(f.Name)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			insts[f.Name] = in
		}
		back, err := core.Document(fr, insts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !xmltree.EqualShape(doc, back) {
			t.Errorf("seed %d: document changed through store", seed)
		}
	}
}

func randomDoc(sch *schema.Schema, rng *rand.Rand) *xmltree.Node {
	var build func(n *schema.Node) *xmltree.Node
	build = func(n *schema.Node) *xmltree.Node {
		e := &xmltree.Node{Name: n.Name}
		if n.IsLeaf() {
			e.Text = fmt.Sprintf("v%d", rng.Intn(100))
		}
		for _, c := range n.Children {
			reps := 1
			if c.Repeated {
				reps = 1 + rng.Intn(3)
			}
			for i := 0; i < reps; i++ {
				e.AddKid(build(c))
			}
		}
		return e
	}
	doc := build(sch.Root())
	core.AssignIDs(doc)
	return doc
}
