package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xdx/internal/schema"
)

func TestNewFragmentValid(t *testing.T) {
	sch := customerSchema()
	f, err := NewFragment(sch, "", []string{"Order", "Service", "ServiceName"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Root != "Order" {
		t.Errorf("root = %q, want Order", f.Root)
	}
	if f.Name != "Order_Service_ServiceName" {
		t.Errorf("derived name = %q", f.Name)
	}
	if !f.Elems["Service"] || f.Elems["Line"] {
		t.Errorf("Contains wrong")
	}
}

func TestNewFragmentRejectsDisconnected(t *testing.T) {
	sch := customerSchema()
	if _, err := NewFragment(sch, "", []string{"Customer", "Order"}); err != nil {
		t.Errorf("Customer+Order is connected, got error %v", err)
	}
	if _, err := NewFragment(sch, "", []string{"CustName", "TelNo"}); err == nil {
		t.Error("CustName+TelNo should be rejected as disconnected")
	}
	if _, err := NewFragment(sch, "", []string{"Customer", "TelNo"}); err == nil {
		t.Error("Customer+TelNo (gap at Order/Service/Line) should be rejected")
	}
	if _, err := NewFragment(sch, "", nil); err == nil {
		t.Error("empty fragment should be rejected")
	}
	if _, err := NewFragment(sch, "", []string{"Nope"}); err == nil {
		t.Error("unknown element should be rejected")
	}
}

func TestFragmentMultiParentRegion(t *testing.T) {
	sch := schema.Auction()
	// item's primary parent is africa; a fragment holding asia+item is
	// connected through the extra-parent edge.
	f, err := NewFragment(sch, "", []string{"asia", "item", "location", "quantity", "iname", "payment", "idescription", "shipping", "mailbox"})
	if err != nil {
		t.Fatalf("asia+item fragment: %v", err)
	}
	if f.Root != "asia" {
		t.Errorf("root = %q, want asia", f.Root)
	}
}

func TestFragmentationValidity(t *testing.T) {
	sch := customerSchema()
	if _, err := FromPartition(sch, "x", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
	}); err == nil {
		t.Error("incomplete fragmentation should be rejected")
	}
	if _, err := FromPartition(sch, "x", [][]string{
		{"Customer", "CustName", "Order", "Service", "ServiceName", "Line", "TelNo", "Switch", "SwitchID", "Feature", "FeatureID"},
		{"Feature", "FeatureID"},
	}); err == nil {
		t.Error("overlapping fragmentation should be rejected")
	}
	fr := tFragmentation(t, sch)
	if fr.Len() != 4 {
		t.Errorf("T-fragmentation has %d fragments, want 4", fr.Len())
	}
	if got := fr.FragmentOf("ServiceName").Root; got != "Order" {
		t.Errorf("FragmentOf(ServiceName).Root = %q, want Order", got)
	}
	if fr.ByName(fr.Fragments[0].Name) != fr.Fragments[0] {
		t.Errorf("ByName broken")
	}
	if fr.ByName("nope") != nil {
		t.Errorf("ByName(nope) should be nil")
	}
}

func TestFragmentationOrdering(t *testing.T) {
	sch := customerSchema()
	fr := tFragmentation(t, sch)
	// Fragments must come out in pre-order of their roots:
	// Customer, Order, Line, Feature.
	roots := []string{}
	for _, f := range fr.Fragments {
		roots = append(roots, f.Root)
	}
	want := []string{"Customer", "Order", "Line", "Feature"}
	for i := range want {
		if roots[i] != want[i] {
			t.Fatalf("fragment roots = %v, want %v", roots, want)
		}
	}
}

func TestTrivialMFLF(t *testing.T) {
	sch := customerSchema()
	tr := Trivial(sch)
	if tr.Len() != 1 || tr.Fragments[0].Size() != sch.Len() {
		t.Errorf("trivial fragmentation wrong: %v", tr)
	}
	mf := MostFragmented(sch)
	if mf.Len() != sch.Len() {
		t.Errorf("MF has %d fragments, want %d", mf.Len(), sch.Len())
	}
	lf := LeastFragmented(sch)
	// Starts: Customer (root), Order (*), Line (*), Feature (*).
	if lf.Len() != 4 {
		t.Errorf("LF has %d fragments, want 4: %v", lf.Len(), lf)
	}
	if f := lf.FragmentOf("SwitchID"); f.Root != "Line" {
		t.Errorf("SwitchID should inline into Line fragment, got root %q", f.Root)
	}
}

func TestLeastFragmentedAuction(t *testing.T) {
	// The paper's LF layout for the auction DTD has exactly 3 fragments
	// (§5): the site spine, the item subtree, the category subtree.
	sch := schema.Auction()
	lf := LeastFragmented(sch)
	if lf.Len() != 3 {
		t.Fatalf("auction LF has %d fragments, want 3: %v", lf.Len(), lf)
	}
	roots := map[string]bool{}
	for _, f := range lf.Fragments {
		roots[f.Root] = true
	}
	for _, want := range []string{"site", "item", "category"} {
		if !roots[want] {
			t.Errorf("auction LF missing fragment rooted at %q", want)
		}
	}
	site := lf.FragmentOf("site")
	for _, e := range []string{"regions", "africa", "samerica", "catgraph", "people", "openauctions", "closedauctions", "categories"} {
		if !site.Elems[e] {
			t.Errorf("site fragment should inline %q", e)
		}
	}
	if site.Elems["item"] || site.Elems["category"] {
		t.Errorf("site fragment must not contain repeated elements")
	}
}

func TestMostFragmentedAuction(t *testing.T) {
	sch := schema.Auction()
	mf := MostFragmented(sch)
	if mf.Len() != sch.Len() {
		t.Errorf("auction MF = %d fragments, want %d", mf.Len(), sch.Len())
	}
}

func TestRandomFragmentationAlwaysValid(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sch := schema.Balanced(2, 3) // 13 nodes
		k := int(kRaw%15) + 1
		fr := Random(sch, rng, k)
		wantK := k
		if wantK > sch.Len() {
			wantK = sch.Len()
		}
		if fr.Len() != wantK {
			return false
		}
		// Re-validate through the constructor.
		_, err := NewFragmentation(sch, fr.Name, fr.Fragments)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRandomFragmentationAuction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sch := schema.Auction()
	for k := 1; k <= sch.Len(); k++ {
		fr := Random(sch, rng, k)
		// item is multi-parent and always cut, so the count may exceed k
		// but never falls below min(k, 2).
		if fr.Len() < k && fr.Len() != sch.Len() {
			t.Fatalf("Random(%d) produced %d fragments", k, fr.Len())
		}
		if _, err := NewFragmentation(sch, fr.Name, fr.Fragments); err != nil {
			t.Fatalf("Random(%d) invalid: %v", k, err)
		}
	}
}

func TestSameElems(t *testing.T) {
	sch := customerSchema()
	a, _ := NewFragment(sch, "a", []string{"Order", "Service"})
	b, _ := NewFragment(sch, "b", []string{"Order", "Service"})
	c, _ := NewFragment(sch, "c", []string{"Order"})
	if !a.SameElems(b) || a.SameElems(c) {
		t.Errorf("SameElems wrong")
	}
	got := a.ElemList()
	if len(got) != 2 || got[0] != "Order" || got[1] != "Service" {
		t.Errorf("ElemList = %v", got)
	}
}
