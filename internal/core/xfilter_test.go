package core

import (
	"testing"

	"xdx/internal/xmltree"
)

func TestCompileFilterValidation(t *testing.T) {
	sch := customerSchema()
	for _, expr := range []string{
		"CustName = 'Ann'",
		`CustName = "Ann"`,
		"CustName",
		"Customer/CustName != Ann",
		"CustName >= 'A'",
	} {
		if _, err := CompileFilter(expr, sch); err != nil {
			t.Errorf("CompileFilter(%q) = %v", expr, err)
		}
	}
	for _, expr := range []string{
		"",
		"NoSuchElem = 'x'",
		"CustName/Customer = 'x'", // wrong direction: CustName is not a parent
		"CustName = ",
		"CustName = 'unterminated",
		"Customer = 'x'", // interior element has no comparable text
		"Customer//CustName = 'x'",
	} {
		if _, err := CompileFilter(expr, sch); err == nil {
			t.Errorf("CompileFilter(%q) compiled, want error", expr)
		}
	}
}

func TestFilterCheckRoot(t *testing.T) {
	sch := customerSchema()
	fr := sFragmentation(t, sch) // root fragment: {Customer, CustName}
	for _, expr := range []string{"CustName = 'Ann'", "Customer/CustName", "CustName"} {
		f, err := CompileFilter(expr, sch)
		if err != nil {
			t.Fatalf("CompileFilter(%q): %v", expr, err)
		}
		if err := f.CheckRoot(fr); err != nil {
			t.Errorf("CheckRoot(%q) = %v, want nil", expr, err)
		}
	}
	// ServiceName is a real schema leaf but lives in another fragment: a
	// filter on it can never match a root record and must be rejected.
	f, err := CompileFilter("ServiceName = 'x'", sch)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CheckRoot(fr); err == nil {
		t.Error("CheckRoot accepted a path outside the root fragment")
	}
	// Most-fragmented layouts have a bare root fragment; even CustName is
	// out of reach there.
	f, err = CompileFilter("CustName = 'Ann'", sch)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CheckRoot(MostFragmented(sch)); err == nil {
		t.Error("CheckRoot accepted a leaf outside a most-fragmented root")
	}
	var nilf *Filter
	if err := nilf.CheckRoot(fr); err != nil {
		t.Errorf("nil filter CheckRoot = %v", err)
	}
}

func rec(name, text string, kids ...*xmltree.Node) *xmltree.Node {
	return &xmltree.Node{Name: name, Text: text, Kids: kids}
}

func TestFilterMatch(t *testing.T) {
	r := rec("Customer", "",
		rec("CustName", "Ann"),
		rec("Account", "",
			rec("AcctNum", "17")),
		rec("Account", "",
			rec("AcctNum", "42")))
	cases := []struct {
		expr string
		want bool
	}{
		{"CustName = 'Ann'", true},
		{"CustName = 'Bob'", false},
		{"CustName != Bob", true},
		{"CustName", true},
		{"Account/AcctNum = 17", true},
		{"Account/AcctNum > 40", true},
		{"Account/AcctNum > 42", false},
		{"Account/AcctNum <= 17", true},
		{"Account/AcctNum < 17", false},
		{"AcctNum >= 42", true},
		{"Customer/CustName = Ann", true}, // anchor may be the record itself
		{"CustName < 'B'", true},          // lexicographic for string literals
	}
	for _, c := range cases {
		f, err := CompileFilter(c.expr, nil)
		if err != nil {
			t.Fatalf("CompileFilter(%q): %v", c.expr, err)
		}
		if got := f.Match(r); got != c.want {
			t.Errorf("Match(%q) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestFilterNumericLiteralRejectsNonNumericText(t *testing.T) {
	f, err := CompileFilter("AcctNum > 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Match(rec("Customer", "", rec("AcctNum", "many"))) {
		t.Error("non-numeric leaf matched a numeric comparison")
	}
}

func TestFilterPredicateNil(t *testing.T) {
	var f *Filter
	if f.Predicate() != nil {
		t.Error("nil filter must yield nil predicate")
	}
}

func TestFilterSourcesWithCompiledFilter(t *testing.T) {
	sch := customerSchema()
	fr := sFragmentation(t, sch)
	src, _ := FromDocument(fr, customerDoc())
	f, err := CompileFilter("CustName = 'Nobody'", sch)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := FilterSources(fr, src, f.Predicate())
	if err != nil {
		t.Fatal(err)
	}
	for name, recs := range kept {
		if recs.Len() != 0 {
			t.Errorf("fragment %q kept %d records for a non-matching filter", name, recs.Len())
		}
	}
}
