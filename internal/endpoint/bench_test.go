package endpoint

import (
	"io"
	"testing"

	"xdx/internal/core"
	"xdx/internal/relstore"
	"xdx/internal/wire"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// BenchmarkSourceRender is a source's render and encode of an XMark MF→LF
// shipment under the greedy plan: the source slice over a 1 MB document's
// MF store, then every chunk in bin, 64 records a chunk. Most of the plan's
// Scans only ship, so their records come from row snapshots one chunk at a
// time; allocations and bytes here grow by the document if a per-record
// tree comes back.
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
	only := 0
	for _, ship := range shipOnly(plan.Program, plan.Assign) {
		if ship {
			only++
		}
	}
	if only == 0 {
		b.Fatal("the plan has no ship-only Scan")
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
