package wire

import (
	"reflect"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

func fixtures(t *testing.T) (*schema.Schema, *core.Mapping, *core.Graph, core.Assignment) {
	t.Helper()
	sch := schema.CustomerInfo()
	src, err := core.FromPartition(sch, "S", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"},
		{"Switch", "SwitchID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := core.FromPartition(sch, "T", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMapping(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == core.OpWrite {
			a[op.ID] = core.LocTarget
		} else {
			a[op.ID] = core.LocSource
		}
	}
	return sch, m, g, a
}

func TestProgramRoundTrip(t *testing.T) {
	sch, _, g, a := fixtures(t)
	x, err := EncodeProgram(g, a)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize through text to prove wire safety.
	text := xmltree.Marshal(x, xmltree.WriteOptions{})
	parsed, err := xmltree.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	g2, a2, err := DecodeProgram(parsed, sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Ops) != len(g.Ops) || len(g2.Edges) != len(g.Edges) {
		t.Fatalf("shape changed: %d/%d ops, %d/%d edges", len(g2.Ops), len(g.Ops), len(g2.Edges), len(g.Edges))
	}
	for i, op := range g.Ops {
		if g2.Ops[i].Kind != op.Kind || g2.Ops[i].Out.Name != op.Out.Name {
			t.Errorf("op %d changed: %s vs %s", i, g2.Ops[i], op)
		}
		if a2[i] != a[i] {
			t.Errorf("op %d location changed", i)
		}
	}
	if g2.String() != g.String() {
		t.Errorf("program text changed:\n%s\nvs\n%s", g2.String(), g.String())
	}
}

func TestDecodeProgramErrors(t *testing.T) {
	sch := schema.CustomerInfo()
	cases := []string{
		`<notaprogram/>`,
		`<program><ops/><edges/></program>`, // no fragments is fine, but ops empty with edges referencing nothing
		`<program><fragments/><ops><op id="7" kind="Scan" out="x" loc="S"/></ops><edges/></program>`, // bad id
		`<program><fragments/><ops><op id="0" kind="Bogus" out="x" loc="S"/></ops><edges/></program>`,
		`<program><fragments/><ops><op id="0" kind="Scan" out="missing" loc="S"/></ops><edges/></program>`,
	}
	for i, c := range cases {
		x, err := xmltree.Parse(strings.NewReader(c))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if _, _, err := DecodeProgram(x, sch); err == nil && i != 1 {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestShipmentRoundTrip(t *testing.T) {
	sch, m, g, a := fixtures(t)
	doc, err := xmltree.Parse(strings.NewReader(
		`<Customer><CustName>Ann</CustName><Order><Service><ServiceName>s</ServiceName>` +
			`<Line><TelNo>1</TelNo><Switch><SwitchID>w</SwitchID></Switch>` +
			`<Feature><FeatureID>f</FeatureID></Feature></Line></Service></Order></Customer>`))
	if err != nil {
		t.Fatal(err)
	}
	core.AssignIDs(doc)
	sources, err := core.FromDocument(m.Source, doc)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(f *core.Fragment) (*core.Instance, error) {
		for name, in := range sources {
			if in.Frag.SameElems(f) {
				_ = name
				return &core.Instance{Frag: f, Records: in.Records}, nil
			}
		}
		t.Fatalf("no source %q", f.Name)
		return nil, nil
	}
	out, _, err := core.ExecuteSlice(g, sch, a, core.LocSource, core.SliceIO{Scan: scan})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no outbound shipment")
	}
	parsed, err := xmltree.Parse(strings.NewReader(treeShipment(t, out, sch)))
	if err != nil {
		t.Fatal(err)
	}
	frags := map[string]*core.Fragment{}
	for _, e := range g.Edges {
		frags[e.Frag.Name] = e.Frag
	}
	back, err := DecodeShipmentAuto(parsed, sch, func(name string) *core.Fragment { return frags[name] })
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(out) {
		t.Fatalf("instances %d, want %d", len(back), len(out))
	}
	for k, in := range out {
		got := back[k]
		if got == nil {
			t.Fatalf("missing shipment %q", k)
		}
		if got.Rows() != in.Rows() {
			t.Errorf("%s: rows %d, want %d", k, got.Rows(), in.Rows())
		}
		// Record roots must keep their ID/PARENT through the wire.
		for i := range in.Records {
			if got.Records[i].ID != in.Records[i].ID || got.Records[i].Parent != in.Records[i].Parent {
				t.Errorf("%s record %d: id/parent %q/%q, want %q/%q", k, i,
					got.Records[i].ID, got.Records[i].Parent, in.Records[i].ID, in.Records[i].Parent)
			}
		}
	}
}

func TestShipmentRestoresInteriorParents(t *testing.T) {
	sch := schema.CustomerInfo()
	f, err := core.NewFragment(sch, "", []string{"Order", "Service", "ServiceName"})
	if err != nil {
		t.Fatal(err)
	}
	rec := &xmltree.Node{Name: "Order", ID: "o1", Parent: "c1", Kids: []*xmltree.Node{
		{Name: "Service", ID: "s1", Parent: "o1", Kids: []*xmltree.Node{
			{Name: "ServiceName", ID: "n1", Parent: "s1", Text: "local"},
		}},
	}}
	out := map[string]*core.Instance{"0:x": {Frag: f, Records: []*xmltree.Node{rec}}}
	text := treeShipment(t, out, sch)
	// The leaf value travels bare.
	if strings.Contains(text, `ServiceName ID=`) {
		t.Errorf("leaf should not carry an ID on the wire:\n%s", text)
	}
	// The interior Service keeps only its ID.
	if !strings.Contains(text, `<Service ID="s1">`) {
		t.Errorf("interior node should keep its join key:\n%s", text)
	}
	parsed, _ := xmltree.Parse(strings.NewReader(text))
	back, err := DecodeShipmentAuto(parsed, sch, func(string) *core.Fragment { return f })
	if err != nil {
		t.Fatal(err)
	}
	got := back["0:x"].Records[0]
	if got.Kids[0].Parent != "o1" {
		t.Errorf("interior parent not restored: %q", got.Kids[0].Parent)
	}
}

func TestFeedBytes(t *testing.T) {
	sch := schema.CustomerInfo()
	f, _ := core.NewFragment(sch, "", []string{"Feature", "FeatureID"})
	in := &core.Instance{Frag: f, Records: []*xmltree.Node{
		{Name: "Feature", ID: "9", Parent: "4", Kids: []*xmltree.Node{
			{Name: "FeatureID", ID: "10", Parent: "9", Text: "callerID"},
		}},
	}}
	// parent(1)+sep + id(1)+sep + leaf id(2)+sep + text(8)+sep + newline
	want := int64(1+1) + int64(1+1) + int64(2+1) + int64(8+1) + 1
	if got := FeedBytes(in); got != want {
		t.Errorf("FeedBytes = %d, want %d", got, want)
	}
	if got := ShipmentFeedBytes(map[string]*core.Instance{"a": in, "b": in}); got != 2*want {
		t.Errorf("ShipmentFeedBytes = %d, want %d", got, 2*want)
	}
}

// TestStatsRoundTrip: every field of a StatsProvider — the ship
// coefficients included — survives EncodeStats, the XML text and
// DecodeStats unchanged.
func TestStatsRoundTrip(t *testing.T) {
	p := &core.StatsProvider{
		Card:        map[string]float64{"a": 10, "b": 20.5},
		Bytes:       map[string]float64{"a": 3, "b": 4},
		Unit:        core.UnitCosts{Scan: 1, Combine: 4, Split: 1.5, Write: 1},
		SourceSpeed: 2, TargetSpeed: 3, TargetCombines: true,
		ShipScale: 0.771, ShipRecord: 7.9,
	}
	back, err := statsThroughText(EncodeStats(p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Errorf("stats changed:\n got %+v\nwant %+v", back, p)
	}
	if _, err := DecodeStats(&xmltree.Node{Name: "other"}); err == nil {
		t.Error("wrong element must fail")
	}
}

// TestDecodeStatsRefusesHostileNumbers: the agency prices a plan on every
// number a probe answers, so a NaN, an infinity, a negative or an
// unparsable value anywhere — an element's card or bytes, a speed, a unit
// cost, a ship coefficient — refuses the stats instead of pricing on it.
func TestDecodeStatsRefusesHostileNumbers(t *testing.T) {
	good := &core.StatsProvider{
		Card:        map[string]float64{"a": 10},
		Bytes:       map[string]float64{"a": 3},
		Unit:        core.DefaultUnitCosts(),
		SourceSpeed: 1, TargetSpeed: 1,
	}
	attrs := []string{"sourceSpeed", "targetSpeed", "unitScan", "unitCombine", "unitSplit", "unitWrite", "shipScale", "shipRecord", "card", "bytes"}
	for _, attr := range attrs {
		for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "1e999", "-1", "-0.5", "abc", ""} {
			x := EncodeStats(good)
			at := x
			if attr == "card" || attr == "bytes" {
				at = x.Kids[0]
			}
			at.SetAttr(attr, v)
			if p, err := statsThroughText(x); err == nil {
				t.Errorf("%s=%q decoded to %+v, want an error", attr, v, p)
			}
		}
	}
	// Zero stays what it always meant: unmeasured, not refused.
	x := EncodeStats(good)
	x.SetAttr("shipScale", "0")
	if _, err := statsThroughText(x); err != nil {
		t.Errorf("shipScale=0: %v", err)
	}
}

// statsThroughText marshals x, parses it back and decodes it.
func statsThroughText(x *xmltree.Node) (*core.StatsProvider, error) {
	parsed, err := xmltree.Parse(strings.NewReader(xmltree.Marshal(x, xmltree.WriteOptions{})))
	if err != nil {
		return nil, err
	}
	return DecodeStats(parsed)
}
