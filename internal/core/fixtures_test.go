package core

import (
	"fmt"
	"math/rand"
	"testing"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// customerSchema returns the CustomerInfo schema of §1.1.
func customerSchema() *schema.Schema { return schema.CustomerInfo() }

// tFragmentation is the paper's T-fragmentation (§3.1): Customer,
// Order_Service, Line_Switch, Feature.
func tFragmentation(t *testing.T, sch *schema.Schema) *Fragmentation {
	t.Helper()
	fr, err := FromPartition(sch, "T-fragmentation", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatalf("T-fragmentation: %v", err)
	}
	return fr
}

// sFragmentation mirrors the relational schema S of §1.1: CUSTOMER, ORDER,
// SERVICE, LINE_FEATURE, SWITCH.
func sFragmentation(t *testing.T, sch *schema.Schema) *Fragmentation {
	t.Helper()
	fr, err := FromPartition(sch, "S-fragmentation", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"},
		{"Switch", "SwitchID"},
	})
	if err != nil {
		t.Fatalf("S-fragmentation: %v", err)
	}
	return fr
}

// pairedFragmentation puts each element at an odd depth of sch in one
// fragment with its first child and every other element in one of its own.
func pairedFragmentation(t *testing.T, sch *schema.Schema) *Fragmentation {
	t.Helper()
	paired := make(map[string]bool)
	var parts [][]string
	for _, e := range sch.Names() {
		if n := sch.ByName(e); n.Depth()%2 == 1 && !n.IsLeaf() {
			parts = append(parts, []string{e, n.Children[0].Name})
			paired[e], paired[n.Children[0].Name] = true, true
		}
	}
	for _, e := range sch.Names() {
		if !paired[e] {
			parts = append(parts, []string{e})
		}
	}
	fr, err := FromPartition(sch, "paired", parts)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// customerDoc builds a small CustomerInfo document with IDs assigned.
func customerDoc() *xmltree.Node {
	leaf := func(name, text string) *xmltree.Node { return &xmltree.Node{Name: name, Text: text} }
	line := func(tel, sw string, feats ...string) *xmltree.Node {
		l := &xmltree.Node{Name: "Line"}
		l.AddKid(leaf("TelNo", tel))
		s := &xmltree.Node{Name: "Switch"}
		s.AddKid(leaf("SwitchID", sw))
		l.AddKid(s)
		for _, f := range feats {
			fn := &xmltree.Node{Name: "Feature"}
			fn.AddKid(leaf("FeatureID", f))
			l.AddKid(fn)
		}
		return l
	}
	order := func(svc string, lines ...*xmltree.Node) *xmltree.Node {
		o := &xmltree.Node{Name: "Order"}
		s := &xmltree.Node{Name: "Service"}
		s.AddKid(leaf("ServiceName", svc))
		for _, l := range lines {
			s.AddKid(l)
		}
		o.AddKid(s)
		return o
	}
	doc := &xmltree.Node{Name: "Customer"}
	doc.AddKid(leaf("CustName", "Ann"))
	doc.AddKid(order("local", line("555-0001", "sw1", "callerID", "voicemail"), line("555-0002", "sw2")))
	doc.AddKid(order("long-distance", line("555-0003", "sw1", "callerID")))
	AssignIDs(doc)
	return doc
}

// randomDoc generates a random document conforming to sch, with up to
// maxRep repetitions of repeated elements, IDs assigned.
func randomDoc(sch *schema.Schema, rng *rand.Rand, maxRep int) *xmltree.Node {
	var build func(n *schema.Node) *xmltree.Node
	build = func(n *schema.Node) *xmltree.Node {
		e := &xmltree.Node{Name: n.Name}
		if n.IsLeaf() {
			e.Text = fmt.Sprintf("v%d", rng.Intn(1000))
		}
		for _, c := range n.Children {
			reps := 1
			if c.Repeated {
				reps = 1 + rng.Intn(maxRep)
			}
			for i := 0; i < reps; i++ {
				e.AddKid(build(c))
			}
		}
		return e
	}
	doc := build(sch.Root())
	AssignIDs(doc)
	return doc
}

// testProvider builds a StatsProvider with uniform stats over sch.
func testProvider(sch *schema.Schema, srcSpeed, tgtSpeed float64) *StatsProvider {
	card, bytes := UniformStats(sch.Names(), 10, 20)
	return &StatsProvider{
		Card: card, Bytes: bytes,
		Unit:        DefaultUnitCosts(),
		SourceSpeed: srcSpeed, TargetSpeed: tgtSpeed,
		TargetCombines: true,
	}
}

// UniformStats builds flat statistics: every element has the given
// cardinality scaled by 1 for non-repeated and fanout for repeated
// elements would require schema knowledge, so this simply assigns card and
// bytes uniformly. The simulator refines this per schema.
func UniformStats(elems []string, card, bytes float64) (map[string]float64, map[string]float64) {
	c := make(map[string]float64, len(elems))
	b := make(map[string]float64, len(elems))
	for _, e := range elems {
		c[e] = card
		b[e] = bytes
	}
	return c, b
}
