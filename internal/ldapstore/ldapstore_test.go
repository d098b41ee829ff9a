package ldapstore

import (
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

func TestDirectoryBasics(t *testing.T) {
	d := NewDirectory()
	d.DefineClass("CUSTOMER_T", "C_NAME")
	if err := d.Add(&Entry{DN: "1", Class: "CUSTOMER_T", Attrs: map[string]string{"C_NAME": "Ann"}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(&Entry{DN: "1.1", Parent: "1", Class: "CUSTOMER_T", Attrs: map[string]string{"C_NAME": "Kid"}}); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if d.Lookup("1").Attrs["C_NAME"] != "Ann" {
		t.Errorf("lookup wrong")
	}
	if got := d.children["1"]; len(got) != 1 || got[0] != "1.1" {
		t.Errorf("children = %v", got)
	}
	if got := d.Search("", "CUSTOMER_T"); len(got) != 2 {
		t.Errorf("search = %d entries", len(got))
	}
	if got := d.Search("1.1", ""); len(got) != 1 {
		t.Errorf("scoped search = %d entries", len(got))
	}
}

func TestDirectoryRejects(t *testing.T) {
	d := NewDirectory()
	d.DefineClass("C", "A")
	cases := []*Entry{
		{DN: "1", Class: "nope", Attrs: map[string]string{"A": "x"}},            // unknown class
		{DN: "1", Class: "C", Attrs: map[string]string{}},                       // missing must
		{DN: "", Class: "C", Attrs: map[string]string{"A": "x"}},                // empty DN
		{DN: "1", Class: "C", Parent: "zz", Attrs: map[string]string{"A": "x"}}, // missing parent
	}
	for i, e := range cases {
		if err := d.Add(e); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if err := d.Add(&Entry{DN: "1", Class: "C", Attrs: map[string]string{"A": "x"}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(&Entry{DN: "1", Class: "C", Attrs: map[string]string{"A": "y"}}); err == nil {
		t.Error("duplicate DN should fail")
	}
}

func telecomFixture(t *testing.T) (*core.Fragmentation, map[string]*core.Instance) {
	t.Helper()
	sch := schema.CustomerInfo()
	fr, err := core.FromPartition(sch, "T-fragmentation", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.Parse(strings.NewReader(
		`<Customer><CustName>Ann</CustName>` +
			`<Order><Service><ServiceName>local</ServiceName>` +
			`<Line><TelNo>555-1</TelNo><Switch><SwitchID>sw1</SwitchID></Switch>` +
			`<Feature><FeatureID>cid</FeatureID></Feature></Line>` +
			`</Service></Order></Customer>`))
	if err != nil {
		t.Fatal(err)
	}
	core.AssignIDs(doc)
	insts, err := core.FromDocument(fr, doc)
	if err != nil {
		t.Fatal(err)
	}
	return fr, insts
}

func TestStoreLoadTelecom(t *testing.T) {
	fr, insts := telecomFixture(t)
	st := NewStore(fr)
	// Classes named per §1.1.
	classes := st.Dir.Classes()
	want := []string{"CUSTOMER_T", "FEATURE_T", "LINE_T", "ORDER_T"}
	if strings.Join(classes, ",") != strings.Join(want, ",") {
		t.Errorf("classes = %v, want %v", classes, want)
	}
	for _, f := range fr.Fragments {
		if err := st.Load(insts[f.Name]); err != nil {
			t.Fatalf("load %q: %v", f.Name, err)
		}
	}
	if st.Dir.Len() != 4 {
		t.Errorf("directory has %d entries, want 4", st.Dir.Len())
	}
	custs := st.Dir.Search("", "CUSTOMER_T")
	if len(custs) != 1 || custs[0].Attrs["CUSTNAME"] != "Ann" {
		t.Errorf("customer entry wrong: %+v", custs)
	}
	// The line entry's parent climbs to the order entry (its direct
	// document parent Service is interior to the order fragment).
	lines := st.Dir.Search("", "LINE_T")
	if len(lines) != 1 {
		t.Fatalf("lines = %d", len(lines))
	}
	parent := st.Dir.Lookup(lines[0].Parent)
	if parent == nil || parent.Class != "ORDER_T" {
		t.Errorf("line parent = %+v", parent)
	}
	if lines[0].Attrs["TELNO"] != "555-1" || lines[0].Attrs["SWITCHID"] != "sw1" {
		t.Errorf("line attrs wrong: %v", lines[0].Attrs)
	}
}

func TestStoreLoadWrongFragment(t *testing.T) {
	fr, _ := telecomFixture(t)
	st := NewStore(fr)
	bad, _ := core.NewFragment(fr.Schema, "", []string{"Order"})
	if err := st.Load(&core.Instance{Frag: bad}); err == nil {
		t.Error("loading a non-layout fragment must fail")
	}
}

func TestStoreScanRoundTrip(t *testing.T) {
	fr, insts := telecomFixture(t)
	st := NewStore(fr)
	for _, f := range fr.Fragments {
		if err := st.Load(insts[f.Name]); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range fr.Fragments {
		in, err := st.Scan(f.Name)
		if err != nil {
			t.Fatalf("scan %q: %v", f.Name, err)
		}
		if in.Rows() != insts[f.Name].Rows() {
			t.Errorf("fragment %q: scanned %d rows, want %d", f.Name, in.Rows(), insts[f.Name].Rows())
		}
		// Leaf values survive the directory round trip.
		for i, rec := range in.Records {
			orig := insts[f.Name].Records[i]
			for _, leaf := range []string{"CustName", "ServiceName", "TelNo", "SwitchID", "FeatureID"} {
				if o := orig.Find(leaf); o != nil {
					g := rec.Find(leaf)
					if g == nil || g.Text != o.Text {
						t.Errorf("fragment %q record %d: leaf %q lost (%v)", f.Name, i, leaf, g)
					}
				}
			}
		}
		if err := core.ValidateInstance(fr.Schema, in); err != nil {
			t.Errorf("scanned instance invalid: %v", err)
		}
	}
	if _, err := st.Scan("nope"); err == nil {
		t.Error("unknown fragment must fail")
	}
}
