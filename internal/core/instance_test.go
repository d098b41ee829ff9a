package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

func TestFromDocumentPartition(t *testing.T) {
	sch := customerSchema()
	fr := tFragmentation(t, sch)
	doc := customerDoc()
	insts, err := FromDocument(fr, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 4 {
		t.Fatalf("got %d instances, want 4", len(insts))
	}
	var byRoot = map[string]*Instance{}
	for _, in := range insts {
		byRoot[in.Frag.Root] = in
	}
	if got := byRoot["Customer"].Rows(); got != 1 {
		t.Errorf("Customer rows = %d, want 1", got)
	}
	if got := byRoot["Order"].Rows(); got != 2 {
		t.Errorf("Order rows = %d, want 2", got)
	}
	if got := byRoot["Line"].Rows(); got != 3 {
		t.Errorf("Line rows = %d, want 3", got)
	}
	if got := byRoot["Feature"].Rows(); got != 3 {
		t.Errorf("Feature rows = %d, want 3", got)
	}
	// Projected records keep ID/PARENT and structure within the fragment.
	line := byRoot["Line"].Records[0]
	if line.ID == "" || line.Parent == "" {
		t.Errorf("line record lost ID/PARENT: %+v", line)
	}
	if line.Find("Switch") == nil || line.Find("Feature") != nil {
		t.Errorf("Line_Switch fragment should keep Switch, drop Feature: %s",
			xmltree.Marshal(line, xmltree.WriteOptions{}))
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	sch := customerSchema()
	for _, fr := range []*Fragmentation{
		tFragmentation(t, sch),
		sFragmentation(t, sch),
		MostFragmented(sch),
		LeastFragmented(sch),
		Trivial(sch),
	} {
		doc := customerDoc()
		insts, err := FromDocument(fr, doc)
		if err != nil {
			t.Fatalf("%s: %v", fr.Name, err)
		}
		back, err := Document(fr, insts)
		if err != nil {
			t.Fatalf("%s: %v", fr.Name, err)
		}
		if !xmltree.EqualShape(doc, back) {
			t.Errorf("%s: round trip changed document:\nwant %s\ngot  %s", fr.Name,
				xmltree.Marshal(doc, xmltree.WriteOptions{}),
				xmltree.Marshal(back, xmltree.WriteOptions{}))
		}
	}
}

func TestCombinePaperExample(t *testing.T) {
	// Combine(Customer, Order_Service) of §3.2.
	sch := customerSchema()
	fr := tFragmentation(t, sch)
	insts, err := FromDocument(fr, customerDoc())
	if err != nil {
		t.Fatal(err)
	}
	var cust, ords *Instance
	for _, in := range insts {
		switch in.Frag.Root {
		case "Customer":
			cust = in
		case "Order":
			ords = in
		}
	}
	merged, err := Combine(sch, cust, ords)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Frag.Root != "Customer" || !merged.Frag.Elems["ServiceName"] {
		t.Errorf("merged fragment wrong: %v", merged.Frag)
	}
	if merged.Rows() != 1 {
		t.Errorf("merged rows = %d, want 1", merged.Rows())
	}
	rec := merged.Records[0]
	orders := 0
	for _, k := range rec.Kids {
		if k.Name == "Order" {
			orders++
		}
	}
	if got := orders; got != 2 {
		t.Errorf("combined customer has %d orders, want 2", got)
	}
	// Schema order: CustName before Order.
	if rec.Kids[0].Name != "CustName" {
		t.Errorf("children not in schema order: first kid %q", rec.Kids[0].Name)
	}
}

func TestCombineRejectsNonAdjacent(t *testing.T) {
	sch := customerSchema()
	fr := tFragmentation(t, sch)
	insts, _ := FromDocument(fr, customerDoc())
	var cust, feat *Instance
	for _, in := range insts {
		switch in.Frag.Root {
		case "Customer":
			cust = in
		case "Feature":
			feat = in
		}
	}
	if _, err := Combine(sch, cust, feat); err == nil {
		t.Error("Customer and Feature have no parent/child relationship; combine must fail")
	}
}

func TestCombineOrphan(t *testing.T) {
	sch := customerSchema()
	fr := tFragmentation(t, sch)
	insts, _ := FromDocument(fr, customerDoc())
	var cust, ords *Instance
	for _, in := range insts {
		switch in.Frag.Root {
		case "Customer":
			cust = in
		case "Order":
			ords = in
		}
	}
	ords.Records[0].Parent = "no-such-id"
	if _, err := Combine(sch, cust, ords); err == nil {
		t.Error("orphan record must fail the combine")
	}
}

func TestSplitPartitionChecks(t *testing.T) {
	sch := customerSchema()
	whole, _ := NewFragment(sch, "", sch.Names())
	doc := customerDoc()
	in := &Instance{Frag: whole, Records: []*xmltree.Node{doc}}
	good := tFragmentation(t, sch).Fragments
	if _, err := Split(sch, in, good); err != nil {
		t.Fatalf("valid split failed: %v", err)
	}
	if _, err := Split(sch, in, good[:2]); err == nil {
		t.Error("partial cover must fail")
	}
	dup := append(append([]*Fragment{}, good...), good[3])
	if _, err := Split(sch, in, dup); err == nil {
		t.Error("overlapping parts must fail")
	}
	small, _ := NewFragment(sch, "", []string{"Order", "Service", "ServiceName"})
	if _, err := Split(sch, &Instance{Frag: small}, good); err == nil {
		t.Error("parts outside the input must fail")
	}
}

func TestSplitCombineInverse(t *testing.T) {
	// Split a combined fragment and recombine: same shape.
	sch := customerSchema()
	fr := tFragmentation(t, sch)
	doc := customerDoc()
	insts, _ := FromDocument(fr, doc)
	// Combine everything into the trivial fragment, then split back.
	back, err := Document(fr, insts)
	if err != nil {
		t.Fatal(err)
	}
	insts2, err := FromDocument(fr, back)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range insts2 {
		orig, _ := FromDocument(fr, customerDoc())
		if in.Rows() != orig[name].Rows() {
			t.Errorf("fragment %q rows changed: %d vs %d", name, in.Rows(), orig[name].Rows())
		}
	}
}

func TestAssignIDsDewey(t *testing.T) {
	doc := &xmltree.Node{Name: "a", Kids: []*xmltree.Node{
		{Name: "b"},
		{Name: "c", Kids: []*xmltree.Node{{Name: "d"}}},
	}}
	AssignIDs(doc)
	if doc.ID != "1" || doc.Parent != "" {
		t.Errorf("root id = %q parent %q", doc.ID, doc.Parent)
	}
	if doc.Kids[1].Kids[0].ID != "1.2.1" || doc.Kids[1].Kids[0].Parent != "1.2" {
		t.Errorf("dewey wrong: %q / %q", doc.Kids[1].Kids[0].ID, doc.Kids[1].Kids[0].Parent)
	}
}

func TestInstanceSizes(t *testing.T) {
	sch := customerSchema()
	fr := tFragmentation(t, sch)
	insts, _ := FromDocument(fr, customerDoc())
	for _, in := range insts {
		var size int64
		nodes := 0
		for _, r := range in.Records {
			size += xmltree.SerializedSize(r, true)
			nodes += r.Count()
		}
		if size <= 0 {
			t.Errorf("fragment %q has non-positive serialized size", in.Frag.Name)
		}
		if nodes < in.Rows() {
			t.Errorf("fragment %q Nodes < Rows", in.Frag.Name)
		}
	}
}

// Property: for random schemas, fragmentations and documents,
// FromDocument followed by Document restores the document shape.
func TestFragmentationRoundTripProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 3)
		fr := Random(sch, rng, int(kRaw%10)+1)
		doc := randomDoc(sch, rng, 3)
		insts, err := FromDocument(fr, doc)
		if err != nil {
			return false
		}
		back, err := Document(fr, insts)
		if err != nil {
			return false
		}
		return xmltree.EqualShape(doc, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: element-instance counts are conserved across a split.
func TestSplitConservesNodesProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 2)
		fr := Random(sch, rng, int(kRaw%5)+2)
		doc := randomDoc(sch, rng, 3)
		total := doc.Count()
		insts, err := FromDocument(fr, doc)
		if err != nil {
			return false
		}
		sum := 0
		for _, in := range insts {
			for _, r := range in.Records {
				sum += r.Count()
			}
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
