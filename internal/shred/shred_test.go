package shred

import (
	"bytes"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/publish"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

func TestShredAuctionMFAndLF(t *testing.T) {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 30_000, Seed: 5})
	var buf bytes.Buffer
	if err := xmltree.Write(&buf, doc, xmltree.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	want, _ := xmark.Stats(doc)
	for _, layout := range []*core.Fragmentation{core.MostFragmented(sch), core.LeastFragmented(sch)} {
		insts, err := Shred(bytes.NewReader(buf.Bytes()), layout)
		if err != nil {
			t.Fatalf("%s: %v", layout.Name, err)
		}
		if len(insts) != layout.Len() {
			t.Fatalf("%s: %d instances, want %d", layout.Name, len(insts), layout.Len())
		}
		for _, f := range layout.Fragments {
			if got := insts[f.Name].Rows(); float64(got) != want[f.Root] {
				t.Errorf("%s: fragment %q rows = %d, want %v", layout.Name, f.Name, got, want[f.Root])
			}
		}
	}
}

func TestShredRecordsReassemble(t *testing.T) {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 20_000, Seed: 11})
	var buf bytes.Buffer
	xmltree.Write(&buf, doc, xmltree.WriteOptions{})
	lf := core.LeastFragmented(sch)
	insts, err := Shred(&buf, lf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.Document(lf, insts)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualShape(doc, back) {
		t.Error("shredded records do not reassemble into the document")
	}
}

func TestShredIntoStore(t *testing.T) {
	// The publish&map pipeline: publish at source, shred at target, load.
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 25_000, Seed: 2})
	srcStore, err := relstore.NewStore(core.LeastFragmented(sch))
	if err != nil {
		t.Fatal(err)
	}
	if err := srcStore.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	var shipped bytes.Buffer
	if _, err := publish.Publish(srcStore, &shipped); err != nil {
		t.Fatal(err)
	}
	tgtLayout := core.MostFragmented(sch)
	tgtStore, err := relstore.NewStore(tgtLayout)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := Shred(&shipped, tgtLayout)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tgtLayout.Fragments {
		if err := tgtStore.Load(insts[f.Name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tgtStore.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	// End-to-end: the document reassembled at the target matches.
	out := map[string]*core.Instance{}
	for _, f := range tgtLayout.Fragments {
		in, err := tgtStore.ScanFragment(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		out[f.Name] = in
	}
	back, err := core.Document(tgtLayout, out)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualShape(doc, back) {
		t.Error("publish&map end-to-end changed the document")
	}
}

func TestShredErrors(t *testing.T) {
	sch := schema.CustomerInfo()
	lf := core.LeastFragmented(sch)
	if _, err := Shred(strings.NewReader("<Unknown/>"), lf); err == nil {
		t.Error("unknown element must fail")
	}
	if _, err := Shred(strings.NewReader("<Customer><CustName>x</CustName>"), lf); err == nil {
		t.Error("unterminated document must fail")
	}
}

func TestShredMintsDeweyIDs(t *testing.T) {
	sch := schema.CustomerInfo()
	mf := core.MostFragmented(sch)
	doc := `<Customer><CustName>A</CustName><Order><Service><ServiceName>s</ServiceName></Service></Order></Customer>`
	insts, err := Shred(strings.NewReader(doc), mf)
	if err != nil {
		t.Fatal(err)
	}
	var orderInst *core.Instance
	for _, in := range insts {
		if in.Frag.Root == "Order" {
			orderInst = in
		}
	}
	rec := orderInst.Records[0]
	if rec.ID != "1.2" || rec.Parent != "1" {
		t.Errorf("order record id/parent = %q/%q, want 1.2/1", rec.ID, rec.Parent)
	}
}

func TestSinkStreaming(t *testing.T) {
	// The sink sees records as soon as their subtree closes, in document
	// order of the closing tags.
	sch := schema.CustomerInfo()
	lf := core.LeastFragmented(sch)
	doc := `<Customer><CustName>A</CustName><Order><Service><ServiceName>s</ServiceName>` +
		`<Line><TelNo>1</TelNo><Switch><SwitchID>w</SwitchID></Switch>` +
		`<Feature><FeatureID>f</FeatureID></Feature></Line></Service></Order></Customer>`
	var order []string
	err := To(strings.NewReader(doc), lf, func(f *core.Fragment, rec *xmltree.Node) error {
		order = append(order, rec.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Feature", "Line", "Order", "Customer"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("flush order = %v, want %v", order, want)
	}
}
