package core

import (
	"math"
	"testing"
)

// TestCompressionAwareShipBytesFlipsPlacement pins down why ShipBytes must
// not alias FragBytes: tree size is additive, so on a tree-shaped program
// every monotone placement ships the same total tree bytes and the
// optimizer's choice degenerates to computation cost alone. Measured
// per-fragment compression ratios break that invariance — the same graph,
// under the same computation costs, places its combines differently once
// comm cost is charged on wire bytes.
func TestCompressionAwareShipBytesFlipsPlacement(t *testing.T) {
	sch := customerSchema()
	src, err := FromPartition(sch, "MF3", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID", "Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapping(src, Trivial(sch))
	if err != nil {
		t.Fatal(err)
	}
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}

	// Tree sizes: A = 400, B = 400, C = 200. Scans and the Write cost the
	// same under every placement; only the two combines are free to move.
	bytes := map[string]float64{
		"Customer": 300, "CustName": 100,
		"Order": 200, "Service": 100, "ServiceName": 100,
		"Line": 50, "TelNo": 30, "Switch": 40, "SwitchID": 30,
		"Feature": 30, "FeatureID": 20,
	}
	card := make(map[string]float64, len(bytes))
	for e := range bytes {
		card[e] = 1
	}
	// The target is barely slower than the source: moving a combine there
	// costs a little computation, so with uniform shipping the optimizer
	// keeps every combine at the source. The calibrated ratios below make
	// the source fragments ship at 0.1 of tree size while combine outputs
	// (never seen by calibration) get the 0.6 default — shipping early
	// saves more than the slower target costs.
	mk := func() *StatsProvider {
		return &StatsProvider{
			Card: card, Bytes: bytes,
			Unit:        DefaultUnitCosts(),
			SourceSpeed: 1, TargetSpeed: 0.98,
			TargetCombines: true,
		}
	}
	tree := mk() // unmeasured: wire size == tree size, the pre-codec model
	wire := mk()
	wire.ShipRatioDefault = 0.6
	wire.ShipRatio = map[string]float64{}
	for _, f := range src.Fragments {
		switch {
		case f.Elems["Customer"]:
			wire.ShipRatio[f.Name] = 0.1
		case f.Elems["Order"]:
			wire.ShipRatio[f.Name] = 0.1
		case f.Elems["Line"]:
			wire.ShipRatio[f.Name] = 1.0
		}
	}

	// ShipBytes now diverges from FragBytes under the calibrated codec…
	for _, f := range src.Fragments {
		if tree.ShipBytes(f) != tree.FragBytes(f) {
			t.Fatalf("unmeasured: ShipBytes(%s)=%v must equal FragBytes=%v",
				f.Name, tree.ShipBytes(f), tree.FragBytes(f))
		}
		want := tree.FragBytes(f) * wire.ShipRatio[f.Name]
		if got := wire.ShipBytes(f); math.Abs(got-want) > 1e-9 {
			t.Fatalf("calibrated: ShipBytes(%s)=%v, want %v", f.Name, got, want)
		}
	}
	// …while computation cost is identical op for op, location for
	// location: the flip below is caused by comm cost alone.
	mTree, mWire := NewModel(tree), NewModel(wire)
	for _, op := range g.Ops {
		for _, loc := range []Location{LocSource, LocTarget} {
			a, b := mTree.OpCost(g, op, loc), mWire.OpCost(g, op, loc)
			if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
				t.Fatalf("CompCost(%s@%s) differs between providers: %v vs %v",
					op.String(), loc, a, b)
			}
		}
	}

	treeRes, err := CostBasedOptim(g, mTree)
	if err != nil {
		t.Fatal(err)
	}
	wireRes, err := CostBasedOptim(g, mWire)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, op := range g.Ops {
		if op.Kind != OpCombine {
			continue
		}
		if got := treeRes.Assign[op.ID]; got != LocSource {
			t.Errorf("tree-size model: combine %s placed @%s, want @source", op.String(), got)
		}
		if wireRes.Assign[op.ID] != treeRes.Assign[op.ID] {
			flipped = true
		}
		if got := wireRes.Assign[op.ID]; got != LocTarget {
			t.Errorf("wire-size model: combine %s placed @%s, want @target", op.String(), got)
		}
	}
	if !flipped {
		t.Fatalf("calibrated compression ratios changed no placement:\ntree:\n%v\nwire:\n%v",
			treeRes.Assign, wireRes.Assign)
	}
}
