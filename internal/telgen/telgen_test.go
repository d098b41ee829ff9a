package telgen

import (
	"testing"

	"xdx/internal/core"
	"xdx/internal/ldapstore"
	"xdx/internal/relstore"
	"xdx/internal/xmltree"
)

func TestCustomersDeterministicAndValid(t *testing.T) {
	a := Customers(Config{Customers: 5, Seed: 3})
	b := Customers(Config{Customers: 5, Seed: 3})
	if len(a) != 5 {
		t.Fatalf("generated %d docs", len(a))
	}
	for i := range a {
		if !xmltree.Equal(a[i], b[i]) {
			t.Errorf("doc %d not deterministic", i)
		}
	}
	sch := Schema()
	whole, err := core.NewFragment(sch, "", sch.Names())
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range a {
		in := &core.Instance{Frag: whole, Records: []*xmltree.Node{doc}}
		if err := core.ValidateInstance(sch, in); err != nil {
			t.Errorf("doc %d invalid: %v", i, err)
		}
	}
}

func TestIDsDisjointAcrossCustomers(t *testing.T) {
	docs := Customers(Config{Customers: 8, Seed: 1})
	seen := map[string]bool{}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if seen[n.ID] {
			t.Fatalf("duplicate id %q", n.ID)
		}
		seen[n.ID] = true
		for _, k := range n.Kids {
			walk(k)
		}
	}
	for _, d := range docs {
		walk(d)
	}
}

func TestLoadAllIntoStoresAndExchange(t *testing.T) {
	// The full telecom scenario at scale: N customers through the
	// relational source into the LDAP directory.
	sch := Schema()
	sFr, err := core.FromPartition(sch, "S", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"},
		{"Switch", "SwitchID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tFr, err := core.FromPartition(sch, "T", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Through the relational store...
	st, err := relstore.NewStore(sFr)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range Customers(Config{Customers: 20, Seed: 5}) {
		if err := st.LoadDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	// ...through an exchange program...
	m, err := core.NewMapping(sFr, tFr)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	scanned := map[string]*core.Instance{}
	for _, f := range sFr.Fragments {
		in, err := st.ScanFragment(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		scanned[f.Name] = in
	}
	res, err := core.Execute(g, sch, scanned)
	if err != nil {
		t.Fatal(err)
	}
	// ...into the directory.
	dir := ldapstore.NewStore(tFr)
	for _, f := range tFr.Fragments {
		if err := dir.Load(res.Written[f.Name]); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(dir.Dir.Search("", "CUSTOMER_T")); got != 20 {
		t.Errorf("directory has %d customers, want 20", got)
	}
	lines := dir.Dir.Search("", "LINE_T")
	if len(lines) < 20 {
		t.Errorf("directory has only %d lines", len(lines))
	}
}
