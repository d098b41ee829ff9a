package endpoint

import (
	"bytes"
	"io"
	"strconv"
	"testing"

	"xdx/internal/core"
	"xdx/internal/relstore"
	"xdx/internal/telgen"
	"xdx/internal/wire"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// BenchmarkSourceRender is a source's render and encode of an XMark MF→LF
// shipment under the greedy plan: the source slice over a 1 MB document's
// MF store, then every chunk in bin, 64 records a chunk. The plan's Scans
// are row snapshots and its source Combines views over them, so every
// record is built one chunk at a time; allocations and bytes here grow by
// the document if a per-record tree comes back.
func BenchmarkSourceRender(b *testing.B) {
	sch := xmark.Schema()
	sFr, tFr := core.MostFragmented(sch), core.LeastFragmented(sch)
	st, err := relstore.NewStore(sFr)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.LoadDocument(xmark.Generate(xmark.Config{TargetBytes: xmark.MB, Seed: 1})); err != nil {
		b.Fatal(err)
	}
	e := New("S", &RelBackend{Store: st, Speed: 1, CanCombine: true}, nil)
	m, err := core.NewMapping(sFr, tFr)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.Greedy(m, core.NewModel(e.backend.Provider()))
	if err != nil {
		b.Fatal(err)
	}
	combines := 0
	for _, op := range plan.Program.Ops {
		if op.Kind == core.OpCombine && plan.Assign[op.ID] == core.LocSource {
			combines++
		}
	}
	if combines == 0 {
		b.Fatal("the plan has no source Combine")
	}
	codec, err := wire.ParseCodec("bin")
	if err != nil {
		b.Fatal(err)
	}
	req := &xmltree.Node{Name: "ExecuteSource"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.renderSource(req, plan.Program, plan.Assign, delivery{})
		if err != nil {
			b.Fatal(err)
		}
		sw := wire.NewShipmentWriterCodec(io.Discard, sch, codec)
		sw.SetChunk(64, 0)
		if err := wire.EmitShipment(sw, r.ship); err != nil {
			b.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaRender is a source's warm delta render of an XMark MF→LF
// exchange under the greedy plan, on the live path: the source slice over
// a 2.5 MB document's MF store, its Scans row snapshots and its source
// Combines views over them, then the reconciliation of every edge against the hashes of
// the previous round (reliable.DiffRecords). The store was reloaded with
// 1 % of its items churned since that round, a third each deleted,
// rewritten and added, so the render ships about 1 % of the records.
func BenchmarkDeltaRender(b *testing.B) {
	sch := xmark.Schema()
	sFr, tFr := core.MostFragmented(sch), core.LeastFragmented(sch)
	st, err := relstore.NewStore(sFr)
	if err != nil {
		b.Fatal(err)
	}
	doc := xmark.Generate(xmark.Config{TargetBytes: 2_500_000, Seed: 1})
	if err := st.LoadDocument(doc); err != nil {
		b.Fatal(err)
	}
	e := New("S", &RelBackend{Store: st, Speed: 1, CanCombine: true}, nil)
	m, err := core.NewMapping(sFr, tFr)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.Greedy(m, core.NewModel(e.backend.Provider()))
	if err != nil {
		b.Fatal(err)
	}
	req := &xmltree.Node{Name: "ExecuteSource"}
	d := delivery{session: "base", stream: "auction", epoch: "1"}
	if _, err := e.renderSource(req, plan.Program, plan.Assign, d); err != nil {
		b.Fatal(err)
	}
	for _, region := range doc.Find("regions").Kids {
		items := region.Kids[:0]
		for i, it := range region.Kids {
			switch i % 100 {
			case 0: // deleted
				continue
			case 33: // rewritten
				if desc := it.Find("idescription"); desc != nil {
					desc.Text = "churned"
				}
			case 66: // kept, and a copy added under fresh IDs
				items = append(items, it, renumbered(it, region.ID))
				continue
			}
			items = append(items, it)
		}
		region.Kids = items
	}
	st.Clear()
	if err := st.LoadDocument(doc); err != nil {
		b.Fatal(err)
	}
	d.base = d.session
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.session = "delta" + strconv.Itoa(i)
		r, err := e.renderSource(req, plan.Program, plan.Assign, d)
		if err != nil {
			b.Fatal(err)
		}
		if !r.delta {
			b.Fatalf("the render was not a delta:%s", r.outcome)
		}
	}
}

// renumbered copies the subtree n under parent, with "n" appended to
// every ID in it.
func renumbered(n *xmltree.Node, parent string) *xmltree.Node {
	c := &xmltree.Node{Name: n.Name, Text: n.Text, Attrs: n.Attrs, Parent: parent}
	if n.ID != "" {
		c.ID = n.ID + "n"
	}
	for _, k := range n.Kids {
		c.AddKid(renumbered(k, c.ID))
	}
	return c
}

// BenchmarkFilteredSourceRender is a source's render and encode of a
// selective filtered exchange: the greedy telgen S→T plan over a store of
// 2,000 customers, filtered to one of them, then every chunk in bin. The
// filter reads every root record and every record under a kept one, built
// a batch at a time from row snapshots; allocations and bytes here grow by
// the store if the filter holds the store's records as trees again.
func BenchmarkFilteredSourceRender(b *testing.B) {
	sch := telgen.Schema()
	sFr, err := core.PaperSFragmentation(sch)
	if err != nil {
		b.Fatal(err)
	}
	tFr, err := core.PaperTFragmentation(sch)
	if err != nil {
		b.Fatal(err)
	}
	st, err := relstore.NewStore(sFr)
	if err != nil {
		b.Fatal(err)
	}
	for i, d := range telgen.Customers(telgen.Config{Customers: 2000, Seed: 1}) {
		d.Find("CustName").Text = "c" + strconv.Itoa(i)
		if err := st.LoadDocument(d); err != nil {
			b.Fatal(err)
		}
	}
	e := New("S", &RelBackend{Store: st, Speed: 1, CanCombine: true}, nil)
	m, err := core.NewMapping(sFr, tFr)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.Greedy(m, core.NewModel(e.backend.Provider()))
	if err != nil {
		b.Fatal(err)
	}
	codec, err := wire.ParseCodec("bin")
	if err != nil {
		b.Fatal(err)
	}
	req := &xmltree.Node{Name: "ExecuteSource"}
	req.SetAttr("filter", `CustName = "c1000"`)
	var shipped bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.renderSource(req, plan.Program, plan.Assign, delivery{})
		if err != nil {
			b.Fatal(err)
		}
		shipped.Reset()
		sw := wire.NewShipmentWriterCodec(&shipped, sch, codec)
		sw.SetChunk(64, 0)
		if err := wire.EmitShipment(sw, r.ship); err != nil {
			b.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
		if !bytes.Contains(shipped.Bytes(), []byte("</instance>")) { // only a chunk with records closes one
			b.Fatal("the filter shipped nothing")
		}
	}
}
