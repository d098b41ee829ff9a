package schema

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewIndexesTree(t *testing.T) {
	s := MustNew(Elem("a", Elem("b", Elem("c")), Rep(Elem("d"))))
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if c := s.ByName("c"); c.Depth() != 2 || c.Parent().Name != "b" || c.Parent().Parent().Name != "a" {
		t.Errorf("c should sit at a/b/c")
	}
	if got := s.ParentOf("d"); got != "a" {
		t.Errorf("ParentOf(d) = %q, want a", got)
	}
	if got := s.ParentOf("a"); got != "" {
		t.Errorf("ParentOf(root) = %q, want empty", got)
	}
	if !s.ByName("d").Repeated {
		t.Errorf("d should be repeated")
	}
	if !s.IsAncestor("a", "c") || s.IsAncestor("c", "a") {
		t.Errorf("IsAncestor wrong for a/c")
	}
	if s.IsAncestor("c", "c") {
		t.Errorf("IsAncestor must be proper")
	}
}

func TestNewRejectsDuplicates(t *testing.T) {
	_, err := New(Elem("a", Elem("b"), Elem("b")))
	if err == nil {
		t.Fatal("want error for duplicate element name")
	}
}

func TestNewRejectsNilAndEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("want error for nil root")
	}
	if _, err := New(Elem("a", Elem(""))); err == nil {
		t.Error("want error for empty child name")
	}
}

func TestBalancedShape(t *testing.T) {
	s := Balanced(2, 3)
	if want := 1 + 3 + 9; s.Len() != want {
		t.Fatalf("Balanced(2,3) has %d nodes, want %d", s.Len(), want)
	}
	if s.Root().Name != "e0" {
		t.Errorf("root = %q, want e0", s.Root().Name)
	}
	// Paper's Table 5 setup: height 2, fan-out 5 => 31 nodes.
	if got := Balanced(2, 5).Len(); got != 31 {
		t.Errorf("Balanced(2,5) = %d nodes, want 31", got)
	}
}

func TestBalancedDepths(t *testing.T) {
	s := Balanced(3, 4)
	maxDepth := 0
	for _, name := range s.Names() {
		if d := s.ByName(name).Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 3 {
		t.Errorf("max depth = %d, want 3", maxDepth)
	}
}

func TestExtraParents(t *testing.T) {
	s := MustNew(Elem("a", Elem("b", Elem("x")), Elem("c")))
	if err := s.AddExtraParent("x", "c"); err != nil {
		t.Fatal(err)
	}
	got := s.Parents("x")
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("Parents(x) = %v, want [b c]", got)
	}
	// Idempotent.
	if err := s.AddExtraParent("x", "c"); err != nil {
		t.Fatal(err)
	}
	if len(s.Parents("x")) != 2 {
		t.Errorf("AddExtraParent not idempotent: %v", s.Parents("x"))
	}
	if err := s.AddExtraParent("nope", "c"); err == nil {
		t.Error("want error for unknown child")
	}
	if err := s.AddExtraParent("x", "nope"); err == nil {
		t.Error("want error for unknown parent")
	}
}

func TestStringRendering(t *testing.T) {
	s := MustNew(Elem("a", Rep(Elem("b")), Opt(Elem("c"))))
	out := s.String()
	for _, want := range []string{"a\n", "  b*", "  c?"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q in:\n%s", want, out)
		}
	}
}

func TestAuctionFixture(t *testing.T) {
	s := Auction()
	if s.Root().Name != "site" {
		t.Fatalf("auction root = %q, want site", s.Root().Name)
	}
	// 6 regions + site,regions,categories,category,cname,cdescription,
	// catgraph,people,openauctions,closedauctions + item + 7 item children.
	if s.ByName("item") == nil {
		t.Fatal("item missing")
	}
	parents := s.Parents("item")
	if len(parents) != 6 {
		t.Fatalf("item has %d parents (%v), want 6 regions", len(parents), parents)
	}
	seen := map[string]bool{}
	for _, p := range parents {
		seen[p] = true
	}
	for _, r := range []string{"africa", "asia", "australia", "europe", "namerica", "samerica"} {
		if !seen[r] {
			t.Errorf("item parents missing region %q (have %v)", r, parents)
		}
	}
	if !s.ByName("item").Repeated {
		t.Errorf("item should be repeated")
	}
	if !s.ByName("category").Repeated {
		t.Errorf("category should be repeated")
	}
	if s.ByName("location").Parent().Name != "item" {
		t.Errorf("location parent = %q, want item", s.ByName("location").Parent().Name)
	}
}

func TestCustomerInfoFixture(t *testing.T) {
	s := CustomerInfo()
	if s.Root().Name != "Customer" {
		t.Fatalf("root = %q", s.Root().Name)
	}
	for _, name := range []string{"CustName", "Order", "Service", "ServiceName", "Line", "TelNo", "Switch", "SwitchID", "Feature", "FeatureID"} {
		if s.ByName(name) == nil {
			t.Errorf("missing element %q", name)
		}
	}
	if !s.ByName("Order").Repeated || !s.ByName("Line").Repeated || !s.ByName("Feature").Repeated {
		t.Errorf("Order, Line, Feature must be repeated")
	}
	if s.ParentOf("Feature") != "Line" {
		t.Errorf("ParentOf(Feature) = %q, want Line", s.ParentOf("Feature"))
	}
}

func TestParseDTDBasics(t *testing.T) {
	s, err := ParseDTD(`<!ELEMENT r (a, b*)> <!ELEMENT a (#PCDATA)> <!ELEMENT b (c+)>`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Root().Name != "r" {
		t.Errorf("root = %q", s.Root().Name)
	}
	b := s.ByName("b")
	if b == nil || !b.Repeated || !b.Optional {
		t.Errorf("b should be repeated+optional: %+v", b)
	}
	c := s.ByName("c")
	if c == nil || !c.Repeated || c.Optional {
		t.Errorf("c should be repeated, not optional: %+v", c)
	}
	if !s.ByName("a").IsLeaf() {
		t.Errorf("a should be a leaf")
	}
}

func TestParseDTDGroupSuffix(t *testing.T) {
	s, err := ParseDTD(`<!ELEMENT r (a, b)*>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		e := s.ByName(n)
		if !e.Repeated || !e.Optional {
			t.Errorf("%s should inherit group * suffix", n)
		}
	}
}

func TestParseDTDErrors(t *testing.T) {
	cases := []string{
		``,                                  // no declarations
		`<!ELEMENT a (b)`,                   // unterminated
		`<!ELEMENT a (b)> <!ELEMENT a (c)>`, // duplicate
		`<!ELEMENT a b>`,                    // unparenthesized
	}
	for _, src := range cases {
		if _, err := ParseDTD(src); err == nil {
			t.Errorf("ParseDTD(%q): want error", src)
		}
	}
}

func TestParseDTDIgnoresAttlistAndComments(t *testing.T) {
	s, err := ParseDTD(`<!-- hi --> <!ELEMENT r (a)> <!ATTLIST r id ID #REQUIRED> <!ELEMENT a (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestAllChildrenAndChildOrder(t *testing.T) {
	s := Auction()
	kids := s.AllChildren("africa")
	if len(kids) != 1 || kids[0] != "item" {
		t.Errorf("AllChildren(africa) = %v", kids)
	}
	// asia has item only through the extra-parent edge.
	kids = s.AllChildren("asia")
	if len(kids) != 1 || kids[0] != "item" {
		t.Errorf("AllChildren(asia) = %v", kids)
	}
	if got := s.ChildOrder("item", "quantity"); got != 1 {
		t.Errorf("ChildOrder(item, quantity) = %d, want 1", got)
	}
	if got := s.ChildOrder("item", "site"); got != -1 {
		t.Errorf("ChildOrder of non-child = %d, want -1", got)
	}
	if s.AllChildren("nope") != nil {
		t.Error("AllChildren(unknown) should be nil")
	}
}

func TestParseDTDEmptyAndAny(t *testing.T) {
	s, err := ParseDTD(`<!ELEMENT r (a, b)> <!ELEMENT a EMPTY> <!ELEMENT b ANY>`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.ByName("a").IsLeaf() || !s.ByName("b").IsLeaf() {
		t.Error("EMPTY/ANY should be leaves")
	}
}

func TestBalancedPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Balanced(-1, 0) should panic")
		}
	}()
	Balanced(-1, 0)
}

// Property: every non-root element's primary parent contains it among its
// children, one level above it.
func TestParentChildConsistencyProperty(t *testing.T) {
	check := func(depth, fanout uint8) bool {
		d := int(depth%3) + 1
		f := int(fanout%3) + 1
		s := Balanced(d, f)
		for _, name := range s.Names() {
			n := s.ByName(name)
			if n.Parent() == nil {
				if n != s.Root() {
					return false
				}
				continue
			}
			found := false
			for _, c := range n.Parent().Children {
				if c == n {
					found = true
				}
			}
			if !found {
				return false
			}
			if n.Depth() != n.Parent().Depth()+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
