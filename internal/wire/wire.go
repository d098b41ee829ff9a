// Package wire defines the XML wire format the discovery agency and the
// service endpoints exchange inside SOAP bodies: data-transfer programs
// with their placements, fragment dictionaries, fragment-instance
// shipments, and cost-probe messages.
package wire

import (
	"fmt"
	"math"
	"strconv"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// EncodeProgram serializes a program and its placement. Fragments are
// emitted once in a dictionary and referenced by name.
func EncodeProgram(g *core.Graph, a core.Assignment) (*xmltree.Node, error) {
	if len(a) != len(g.Ops) {
		return nil, fmt.Errorf("wire: assignment covers %d ops, graph has %d", len(a), len(g.Ops))
	}
	root := &xmltree.Node{Name: "program"}
	dict := &xmltree.Node{Name: "fragments"}
	seen := map[string]bool{}
	addFrag := func(f *core.Fragment) {
		if seen[f.Name] {
			return
		}
		seen[f.Name] = true
		fx := &xmltree.Node{Name: "fragment"}
		fx.SetAttr("name", f.Name)
		fx.SetAttr("root", f.Root)
		for _, e := range f.ElemList() {
			el := &xmltree.Node{Name: "e", Text: e}
			fx.AddKid(el)
		}
		dict.AddKid(fx)
	}
	ops := &xmltree.Node{Name: "ops"}
	for _, op := range g.Ops {
		addFrag(op.Out)
		ox := &xmltree.Node{Name: "op"}
		ox.SetAttr("id", strconv.Itoa(op.ID))
		ox.SetAttr("kind", op.Kind.String())
		ox.SetAttr("out", op.Out.Name)
		ox.SetAttr("loc", a[op.ID].String())
		for _, p := range op.Parts {
			addFrag(p)
			px := &xmltree.Node{Name: "part", Text: p.Name}
			ox.AddKid(px)
		}
		ops.AddKid(ox)
	}
	edges := &xmltree.Node{Name: "edges"}
	for _, e := range g.Edges {
		ex := &xmltree.Node{Name: "edge"}
		ex.SetAttr("from", strconv.Itoa(e.From.ID))
		ex.SetAttr("to", strconv.Itoa(e.To.ID))
		ex.SetAttr("frag", e.Frag.Name)
		edges.AddKid(ex)
	}
	root.AddKid(dict)
	root.AddKid(ops)
	root.AddKid(edges)
	return root, nil
}

// DecodeProgram rebuilds a program and placement against the schema.
func DecodeProgram(x *xmltree.Node, sch *schema.Schema) (*core.Graph, core.Assignment, error) {
	if x.Name != "program" {
		return nil, nil, fmt.Errorf("wire: expected program, got %q", x.Name)
	}
	frags := map[string]*core.Fragment{}
	var opsNode, edgesNode *xmltree.Node
	for _, k := range x.Kids {
		switch k.Name {
		case "fragments":
			for _, fx := range k.Kids {
				name, _ := fx.Attr("name")
				var elems []string
				for _, e := range fx.Kids {
					elems = append(elems, e.Text)
				}
				f, err := core.NewFragment(sch, name, elems)
				if err != nil {
					return nil, nil, fmt.Errorf("wire: fragment %q: %w", name, err)
				}
				frags[name] = f
			}
		case "ops":
			opsNode = k
		case "edges":
			edgesNode = k
		}
	}
	if opsNode == nil || edgesNode == nil {
		return nil, nil, fmt.Errorf("wire: program missing ops or edges")
	}
	g := core.NewGraph()
	var a core.Assignment
	for i, ox := range opsNode.Kids {
		idStr, _ := ox.Attr("id")
		if id, err := strconv.Atoi(idStr); err != nil || id != i {
			return nil, nil, fmt.Errorf("wire: op ids must be dense and ordered, got %q at %d", idStr, i)
		}
		kindStr, _ := ox.Attr("kind")
		kind, err := parseKind(kindStr)
		if err != nil {
			return nil, nil, err
		}
		outName, _ := ox.Attr("out")
		out := frags[outName]
		if out == nil {
			return nil, nil, fmt.Errorf("wire: op %d references unknown fragment %q", i, outName)
		}
		var parts []*core.Fragment
		for _, px := range ox.Kids {
			if px.Name != "part" {
				continue
			}
			p := frags[px.Text]
			if p == nil {
				return nil, nil, fmt.Errorf("wire: op %d references unknown part %q", i, px.Text)
			}
			parts = append(parts, p)
		}
		g.AddOp(kind, out, parts...)
		locStr, _ := ox.Attr("loc")
		a = append(a, parseLoc(locStr))
	}
	for _, ex := range edgesNode.Kids {
		fromS, _ := ex.Attr("from")
		toS, _ := ex.Attr("to")
		fragName, _ := ex.Attr("frag")
		from, err1 := strconv.Atoi(fromS)
		to, err2 := strconv.Atoi(toS)
		if err1 != nil || err2 != nil || from < 0 || from >= len(g.Ops) || to < 0 || to >= len(g.Ops) {
			return nil, nil, fmt.Errorf("wire: bad edge %s -> %s", fromS, toS)
		}
		f := frags[fragName]
		if f == nil {
			return nil, nil, fmt.Errorf("wire: edge references unknown fragment %q", fragName)
		}
		// Edges must reference the producer's own fragment objects so that
		// identity checks (split parts) hold.
		fromOp := g.Ops[from]
		if fromOp.Out.Name == fragName {
			f = fromOp.Out
		} else {
			for _, p := range fromOp.Parts {
				if p.Name == fragName {
					f = p
				}
			}
		}
		g.Connect(fromOp, g.Ops[to], f)
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("wire: %w", err)
	}
	if !a.Complete() {
		return nil, nil, fmt.Errorf("wire: program places an op neither at S nor at T")
	}
	if !a.Monotone(g) {
		return nil, nil, fmt.Errorf("wire: program ships data from target to source")
	}
	return g, a, nil
}

func parseKind(s string) (core.OpKind, error) {
	switch s {
	case "Scan":
		return core.OpScan, nil
	case "Combine":
		return core.OpCombine, nil
	case "Split":
		return core.OpSplit, nil
	case "Write":
		return core.OpWrite, nil
	}
	return 0, fmt.Errorf("wire: unknown op kind %q", s)
}

func parseLoc(s string) core.Location {
	switch s {
	case "S":
		return core.LocSource
	case "T":
		return core.LocTarget
	}
	return core.LocUnassigned
}

// FeedBytes returns the size of an instance shipped as a sorted feed in
// the style of XPERANTO / Fernandez-Morishima-Suciu ([5, 6] in the paper):
// one delimited row per record carrying the record's PARENT key and, per
// member element in document order, its key and leaf value — no XML tags.
// This is the size behind the paper's Table 3 communication numbers; it is
// what makes fragment shipping cheaper than shipping the tagged document.
// It is a size formula only: no codec renders feeds.
func FeedBytes(in *core.Instance) int64 {
	var n int64
	for _, rec := range in.Records {
		n += int64(len(rec.Parent)) + 1
		n += feedNodeBytes(rec)
		n++ // row terminator
	}
	return n
}

func feedNodeBytes(node *xmltree.Node) int64 {
	n := int64(len(node.ID)) + 1
	if len(node.Kids) == 0 {
		n += int64(len(node.Text)) + 1
	}
	for _, k := range node.Kids {
		n += feedNodeBytes(k)
	}
	return n
}

// ShipmentFeedBytes sums FeedBytes over a shipment.
func ShipmentFeedBytes(out map[string]*core.Instance) int64 {
	var n int64
	for _, in := range out {
		n += FeedBytes(in)
	}
	return n
}

// EncodeStats serializes per-element statistics and system parameters for
// the agency's cost probing (step 3 of Figure 2).
func EncodeStats(p *core.StatsProvider) *xmltree.Node {
	root := &xmltree.Node{Name: "stats"}
	root.SetAttr("sourceSpeed", formatFloat(p.SourceSpeed))
	root.SetAttr("targetSpeed", formatFloat(p.TargetSpeed))
	root.SetAttr("combines", strconv.FormatBool(p.TargetCombines))
	root.SetAttr("unitScan", formatFloat(p.Unit.Scan))
	root.SetAttr("unitCombine", formatFloat(p.Unit.Combine))
	root.SetAttr("unitSplit", formatFloat(p.Unit.Split))
	root.SetAttr("unitWrite", formatFloat(p.Unit.Write))
	root.SetAttr("shipScale", formatFloat(p.ShipScale))
	root.SetAttr("shipRecord", formatFloat(p.ShipRecord))
	for e, c := range p.Card {
		ex := &xmltree.Node{Name: "elem"}
		ex.SetAttr("name", e)
		ex.SetAttr("card", formatFloat(c))
		ex.SetAttr("bytes", formatFloat(p.Bytes[e]))
		root.AddKid(ex)
	}
	return root
}

// DecodeStats rebuilds a StatsProvider. The agency prices a plan on every
// number in it, so one that is not finite and non-negative — NaN, an
// infinity, a negative or an unparsable value — refuses the whole stats;
// an absent one is 0.
func DecodeStats(x *xmltree.Node) (*core.StatsProvider, error) {
	if x.Name != "stats" {
		return nil, fmt.Errorf("wire: expected stats, got %q", x.Name)
	}
	var err error
	num := func(n *xmltree.Node, name string) float64 {
		v, ok := n.Attr(name)
		if !ok || err != nil {
			return 0
		}
		f, perr := strconv.ParseFloat(v, 64)
		if perr != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			err = fmt.Errorf("wire: stats: %s=%q is not a finite non-negative number", name, v)
		}
		return f
	}
	p := &core.StatsProvider{Card: map[string]float64{}, Bytes: map[string]float64{}}
	p.SourceSpeed = num(x, "sourceSpeed")
	p.TargetSpeed = num(x, "targetSpeed")
	if v, _ := x.Attr("combines"); v == "true" {
		p.TargetCombines = true
	}
	p.Unit = core.UnitCosts{
		Scan:    num(x, "unitScan"),
		Combine: num(x, "unitCombine"),
		Split:   num(x, "unitSplit"),
		Write:   num(x, "unitWrite"),
	}
	p.ShipScale = num(x, "shipScale")
	p.ShipRecord = num(x, "shipRecord")
	for _, ex := range x.Kids {
		name, _ := ex.Attr("name")
		p.Card[name] = num(ex, "card")
		p.Bytes[name] = num(ex, "bytes")
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
