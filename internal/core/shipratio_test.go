package core

import (
	"math"
	"testing"
)

// splitProgram is the LF→MF shape on CustomerInfo: one source fragment
// holding the whole document, split into three target fragments, with
// cardinalities that multiply down the tree (1 customer, 3 orders, 10
// lines) and tree sizes Customer 400, Order 300·3, Line 200·10.
func splitProgram(t *testing.T) (*Graph, func(tgtSpeed, perRecord float64) *StatsProvider) {
	t.Helper()
	sch := customerSchema()
	tgt, err := FromPartition(sch, "MF3", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID", "Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapping(Trivial(sch), tgt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	bytes := map[string]float64{
		"Customer": 300, "CustName": 100,
		"Order": 100, "Service": 100, "ServiceName": 100,
		"Line": 50, "TelNo": 30, "Switch": 40, "SwitchID": 30,
		"Feature": 30, "FeatureID": 20,
	}
	card := map[string]float64{"Customer": 1, "CustName": 1}
	for _, e := range []string{"Order", "Service", "ServiceName"} {
		card[e] = 3
	}
	for _, e := range []string{"Line", "TelNo", "Switch", "SwitchID", "Feature", "FeatureID"} {
		card[e] = 10
	}
	return g, func(tgtSpeed, perRecord float64) *StatsProvider {
		return &StatsProvider{
			Card: card, Bytes: bytes,
			Unit:        DefaultUnitCosts(),
			SourceSpeed: 1, TargetSpeed: tgtSpeed,
			TargetCombines: true,
			ShipRecord:     perRecord,
		}
	}
}

// splitAt returns where the program's one Split runs.
func splitAt(t *testing.T, g *Graph, a Assignment) Location {
	t.Helper()
	for _, op := range g.Ops {
		if op.Kind == OpSplit {
			return a[op.ID]
		}
	}
	t.Fatal("program has no Split")
	return LocUnassigned
}

// TestCompressionAwareShipBytesFlipsPlacement pins down why ShipBytes
// must price records, not only bytes: tree size is additive, so a Split —
// which keeps FragBytes and multiplies records — ships the same bytes on
// either side of it, and under a byte-only model the optimizer's choice
// degenerates to computation cost alone. Charging each shipped record its
// framing breaks that invariance: the same program, under the same
// computation costs, runs its Split at the target once a record costs
// bytes, since shipping the one whole record saves more than the slightly
// slower target costs. (Greedy fixes an op with a computation-cost
// difference by that difference alone; TestGreedyIsolatedOpShipsLess
// covers the Split it reaches without one.)
func TestCompressionAwareShipBytesFlipsPlacement(t *testing.T) {
	g, mk := splitProgram(t)
	tree := mk(0.98, 0) // unmeasured: wire size == tree size
	wire := mk(0.98, 32)
	wire.ShipScale = 0.5

	// ShipBytes diverges from FragBytes under the calibrated codec by the
	// scale and one framing per record…
	for _, e := range g.Edges {
		f := e.Frag
		if tree.ShipBytes(f) != tree.FragBytes(f) {
			t.Fatalf("unmeasured: ShipBytes(%s)=%v must equal FragBytes=%v", f.Name, tree.ShipBytes(f), tree.FragBytes(f))
		}
		want := 0.5*tree.FragBytes(f) + 32*tree.Card[f.Root]
		if got := wire.ShipBytes(f); math.Abs(got-want) > 1e-9 {
			t.Fatalf("calibrated: ShipBytes(%s)=%v, want %v", f.Name, got, want)
		}
	}
	// …while computation cost is identical op for op, location for
	// location: the flip below is caused by comm cost alone.
	mTree, mWire := NewModel(tree), NewModel(wire)
	for _, op := range g.Ops {
		for _, loc := range []Location{LocSource, LocTarget} {
			if a, b := mTree.OpCost(g, op, loc), mWire.OpCost(g, op, loc); a != b {
				t.Fatalf("CompCost(%s@%s) differs between providers: %v vs %v", op.String(), loc, a, b)
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
	if got := splitAt(t, g, treeRes.Assign); got != LocSource {
		t.Errorf("byte-only model: Split @%s, want @source", got)
	}
	if got := splitAt(t, g, wireRes.Assign); got != LocTarget {
		t.Errorf("per-record model: Split @%s, want @target:\n%v", got, wireRes.Assign)
	}
}

// TestGreedyIsolatedOpShipsLess: a Split between a pinned Scan and pinned
// Writes has no edge greedy's tie-break may cut, and with equal speeds no
// cost difference either. It goes where it ships less — the target, once
// each record costs framing — and a tie (a byte-only model, where it ships
// the same bytes on both sides) stays at the source.
func TestGreedyIsolatedOpShipsLess(t *testing.T) {
	g, mk := splitProgram(t)
	for _, c := range []struct {
		perRecord float64
		want      Location
	}{{0, LocSource}, {1, LocTarget}} {
		res, err := GreedyPlacement(g, NewModel(mk(1, c.perRecord)))
		if err != nil {
			t.Fatal(err)
		}
		if got := splitAt(t, g, res.Assign); got != c.want {
			t.Errorf("per record %v: Split @%s, want @%s", c.perRecord, got, c.want)
		}
	}
}
