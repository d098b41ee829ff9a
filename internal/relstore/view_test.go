package relstore

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"xdx/internal/core"
	"xdx/internal/reliable"
	"xdx/internal/telgen"
	"xdx/internal/wire"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// A source slice run over row snapshots, whose Combines are views
// (core.CombineRecords), ships exactly what the in-place Combine makes of
// ScanFragment's trees: edge for edge and record for record the same
// kids in the same order, IDs and PARENTs, the same HashRecord, and the
// same xml and bin chunk bytes. It covers XMark MF→LF under greedy's
// placement and with every Combine at the source (views of views, XMark's
// item joined under its six regions among them), telgen S→T with a
// Combine beside a Split at the source, and a filtered telgen exchange,
// whose Scans are Picks of snapshots, and a chain whose middle input
// repeats an ID under two parent records, which the view must join where
// Combine's join index does. An orphan fails the view as it fails Combine,
// with the same error.
func TestCombineViewMatchesTrees(t *testing.T) {
	xsch, tsch := xmark.Schema(), telgen.Schema()
	paperS, err := core.PaperSFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	paperT, err := core.PaperTFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	mf, lf := core.MostFragmented(xsch), core.LeastFragmented(xsch)
	auction := loadDocs(t, mf, []*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 7})})
	customers := loadDocs(t, paperS, telgen.Customers(telgen.Config{Customers: 30, Seed: 7}))
	var codecs []wire.Codec
	for _, name := range []string{"xml", "bin"} {
		c, err := wire.ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		codecs = append(codecs, c)
	}
	for _, c := range []struct {
		name   string
		st     *Store
		target *core.Fragmentation
		place  string // "greedy", or "source": every op but the Writes at the source
		filter string
	}{
		{"xmark MF→LF greedy", auction, lf, "greedy", ""},
		{"xmark MF→LF all at source", auction, lf, "source", ""},
		{"telgen S→T", customers, paperT, "source", ""},
		{"telgen S→T filtered", customers, paperT, "source", `CustName < "E"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			sch := c.st.Layout.Schema
			g, a := viewProgram(t, c.st, c.target, c.place)
			views, trees := viewSources(t, c.st, c.filter)
			out, _, err := core.RunSlice(g, sch, a, core.LocSource, core.SliceIO{
				Source: func(f *core.Fragment) (core.Records, error) { return views[c.st.layoutName(f)], nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := core.ExecuteSlice(g, sch, a, core.LocSource, core.SliceIO{
				Scan: func(f *core.Fragment) (*core.Instance, error) { return trees(c.st.layoutName(f)), nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			chained, multi, viewed := 0, 0, 0
			for _, op := range g.Ops {
				if op.Kind != core.OpCombine || a[op.ID] != core.LocSource {
					continue
				}
				split := false
				for _, e := range g.In(op) {
					if e.From.Kind == core.OpCombine {
						chained++
					}
					if len(sch.Parents(e.Frag.Root)) > 1 {
						multi++
					}
					split = split || e.From.Kind == core.OpSplit
				}
				if !split {
					viewed++
				}
			}
			if viewed == 0 {
				t.Fatal("no source Combine joins two inputs built on demand")
			}
			keyed := 0
			for _, o := range out {
				if _, ok := o.Recs.(core.Keyed); ok {
					keyed++
				}
			}
			if keyed == 0 {
				t.Fatal("the slice ships no edge built on demand")
			}
			if c.place == "source" && c.st == auction && (chained == 0 || multi == 0) {
				t.Fatalf("%d source Combines read a Combine and %d join a multi-parent root; want both", chained, multi)
			}
			if len(out) != len(want) {
				t.Fatalf("views ship %d edges, trees %d", len(out), len(want))
			}
			treeShip := map[string]core.Outbound{}
			for key, w := range want {
				treeShip[key] = core.Outbound{Frag: w.Frag, Recs: w}
				o, ok := out[key]
				if !ok {
					t.Fatalf("views ship no edge %s", key)
				}
				got, err := o.Recs.Build(nil, 0, o.Recs.Len(), &xmltree.Arena{})
				if err != nil {
					t.Fatal(err)
				}
				if o.Frag.Name != w.Frag.Name || len(got) != len(w.Records) {
					t.Fatalf("edge %s: views ship %d records of %s, trees %d of %s", key, len(got), o.Frag.Name, len(w.Records), w.Frag.Name)
				}
				for i := range got {
					if !xmltree.Equal(got[i], w.Records[i]) || reliable.HashRecord(got[i]) != reliable.HashRecord(w.Records[i]) {
						t.Fatalf("edge %s: record %d (%s %s) differs from the tree Combine's", key, i, got[i].Name, got[i].ID)
					}
				}
			}
			for _, codec := range codecs {
				wantB := emitStore(t, c.st, treeShip, codec, 7, 0)
				gotB := emitStore(t, c.st, out, codec, 7, 0)
				if !bytes.Equal(gotB, wantB) {
					t.Fatalf("%s: views wrote %d bytes, trees %d", codec, len(gotB), len(wantB))
				}
			}
		})
	}

	t.Run("xmark item under its six regions", func(t *testing.T) {
		_, got := chainMatches(t, auction, "regions", "africa", "asia", "australia", "europe", "namerica", "samerica", "item")
		items := 0
		for _, region := range got[0].Kids {
			items += len(region.Kids)
		}
		if len(got) != 1 || items < 2*len(got[0].Kids) {
			t.Fatalf("%d items under %d regions of %d records; want one record, several per region", items, len(got[0].Kids), len(got))
		}
	})

	// Two Services share an ID: the first loaded under the second Order,
	// the second under the first. Combine's join index files a view's
	// children in child order, so a Line under that ID joins the Service
	// under the first Order, in the view as in Combine.
	t.Run("duplicate ID in a chained input", func(t *testing.T) {
		st := loadDocs(t, paperS, telgen.Customers(telgen.Config{Customers: 3, Seed: 7}))
		orders := snapshot(t, st, "Order").IDs("Order")
		first, second := orders(nil, 0)[0], orders(nil, 1)[0]
		service := func(order, name string) *xmltree.Node {
			return &xmltree.Node{Name: "Service", ID: "s-dup", Parent: order, Kids: []*xmltree.Node{
				{Name: "ServiceName", ID: "s-dup." + name, Parent: "s-dup", Text: name}}}
		}
		line := &xmltree.Node{Name: "Line", ID: "l-dup", Parent: "s-dup", Kids: []*xmltree.Node{
			{Name: "TelNo", ID: "l-dup.1", Parent: "l-dup", Text: "555-0000"}}}
		for frag, recs := range map[string][]*xmltree.Node{
			"Service_ServiceName":          {service(second, "a"), service(first, "b")},
			"Line_TelNo_Feature_FeatureID": {line},
		} {
			if err := st.Load(&core.Instance{Frag: paperS.ByName(frag), Records: recs}); err != nil {
				t.Fatal(err)
			}
		}
		_, got := chainMatches(t, st, "Order", "Service_ServiceName", "Line_TelNo_Feature_FeatureID")
		var holds func(n *xmltree.Node) bool
		holds = func(n *xmltree.Node) bool {
			return n.ID == "l-dup" || slices.ContainsFunc(n.Kids, holds)
		}
		if !holds(got[0]) || holds(got[1]) {
			t.Fatal("Line l-dup is not under the first Order alone")
		}
	})

	// A held render may be delivered by two attempts at once, so one view
	// serves several concurrent Builds, each a chunk at a time into its
	// own arena.
	t.Run("concurrent builds", func(t *testing.T) {
		view, want := chainMatches(t, auction, "item", "quantity", "mailbox")
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var a xmltree.Arena
				for i := 0; i < view.Len(); i += 7 {
					got, err := view.Build(nil, i, min(i+7, view.Len()), &a)
					if err != nil {
						t.Error(err)
						return
					}
					for k, rec := range got {
						if !xmltree.Equal(rec, want[i+k]) {
							t.Errorf("record %d differs from a serial Build's", i+k)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})

	t.Run("orphan", func(t *testing.T) {
		st := loadDocs(t, mf, []*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 20_000, Seed: 3})})
		item, quantity := mf.ByName("item"), mf.ByName("quantity")
		orphan := &xmltree.Node{Name: "quantity", ID: "q-orphan", Parent: "no-such-item", Text: "1"}
		if err := st.Load(&core.Instance{Frag: quantity, Records: []*xmltree.Node{orphan}}); err != nil {
			t.Fatal(err)
		}
		items, quantities := snapshot(t, st, "item"), snapshot(t, st, "quantity")
		_, got := core.CombineRecords(xsch, item, items, quantity, quantities)
		ti, err := st.ScanFragment("item")
		if err != nil {
			t.Fatal(err)
		}
		tq, err := st.ScanFragment("quantity")
		if err != nil {
			t.Fatal(err)
		}
		_, want := core.Combine(xsch, ti, tq)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("an orphan fails the view with %v, Combine with %v", got, want)
		}
	})
}

// viewProgram is the program from st's layout to target with its
// placement: greedy's, over st's statistics, or every op but the Writes
// at the source.
func viewProgram(t *testing.T, st *Store, target *core.Fragmentation, place string) (*core.Graph, core.Assignment) {
	t.Helper()
	m, err := core.NewMapping(st.Layout, target)
	if err != nil {
		t.Fatal(err)
	}
	card, bytes := st.Stats()
	plan, err := core.Greedy(m, core.NewModel(core.NewStatsProvider(card, bytes, 1, true)))
	if err != nil {
		t.Fatal(err)
	}
	a := plan.Assign
	if place == "source" {
		a = core.NewAssignment(plan.Program)
		for _, op := range plan.Program.Ops {
			a[op.ID] = core.LocSource
			if op.Kind == core.OpWrite {
				a[op.ID] = core.LocTarget
			}
		}
	}
	kinds := map[core.OpKind]int{}
	for _, op := range plan.Program.Ops {
		if a[op.ID] == core.LocSource {
			kinds[op.Kind]++
		}
	}
	if kinds[core.OpCombine] == 0 || st.Layout.Len() < 5 && kinds[core.OpSplit] == 0 {
		t.Fatalf("%s placement runs %d Combines and %d Splits at the source", place, kinds[core.OpCombine], kinds[core.OpSplit])
	}
	return plan.Program, a
}

// viewSources returns each layout fragment's records as the row path and
// the tree path serve them: snapshots of st, and fresh ScanFragment trees
// per Scan, both trimmed by filter when one is given.
func viewSources(t *testing.T, st *Store, filter string) (map[string]core.Records, func(string) *core.Instance) {
	t.Helper()
	rows := map[string]core.Records{}
	for _, name := range st.Tables() {
		rows[name] = snapshot(t, st, name)
	}
	trees := func(name string) *core.Instance {
		in, err := st.ScanFragment(name)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	if filter == "" {
		return rows, trees
	}
	f, err := core.CompileFilter(filter, st.Layout.Schema)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := core.FilterSources(st.Layout, rows, f.Predicate())
	if err != nil {
		t.Fatal(err)
	}
	picks := 0
	for name, r := range kept {
		if _, ok := r.(core.Keyed); !ok {
			t.Fatalf("the filter kept %s as %T, want Keyed", name, r)
		}
		if r.Len() < rows[name].Len() {
			picks++
		}
	}
	if picks == 0 {
		t.Fatalf("filter %q keeps every record", filter)
	}
	return kept, func(name string) *core.Instance {
		all := map[string]*core.Instance{}
		for _, n := range st.Tables() {
			all[n] = trees(n)
		}
		kept, err := core.FilterSources(st.Layout, all, f.Predicate())
		if err != nil {
			t.Fatal(err)
		}
		recs, err := kept[name].Build(nil, 0, kept[name].Len(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return &core.Instance{Frag: st.Layout.ByName(name), Records: recs}
	}
}

func snapshot(t *testing.T, st *Store, name string) *Rows {
	t.Helper()
	r, err := st.Snapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// chainMatches joins st's layout fragments names into the first, each into
// what the ones before it made, as views over snapshots and by Combine
// over ScanFragment's trees, and fails unless the two build the same
// records. It returns the view and its records.
func chainMatches(t *testing.T, st *Store, names ...string) (core.Keyed, []*xmltree.Node) {
	t.Helper()
	frag, view := st.Layout.ByName(names[0]), core.Keyed(snapshot(t, st, names[0]))
	tree, err := st.ScanFragment(names[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names[1:] {
		if view, err = core.CombineRecords(st.Layout.Schema, frag, view, st.Layout.ByName(name), snapshot(t, st, name)); err != nil {
			t.Fatal(err)
		}
		kid, err := st.ScanFragment(name)
		if err != nil {
			t.Fatal(err)
		}
		if tree, err = core.Combine(st.Layout.Schema, tree, kid); err != nil {
			t.Fatal(err)
		}
		frag = tree.Frag
	}
	got, err := view.Build(nil, 0, view.Len(), &xmltree.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tree.Records) {
		t.Fatalf("the view built %d records, Combine %d", len(got), len(tree.Records))
	}
	for i := range got {
		if !xmltree.Equal(got[i], tree.Records[i]) {
			t.Fatalf("record %d (%s %s) differs from Combine's", i, got[i].Name, got[i].ID)
		}
	}
	return view, got
}
