package relstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"xdx/internal/core"
	"xdx/internal/reliable"
	"xdx/internal/schema"
	"xdx/internal/telgen"
	"xdx/internal/wire"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// scanRef is the reference scan: every live row slot of the table walked
// in order, each record rebuilt from the rows it spans, straight off the
// table rather than through a Snapshot.
func scanRef(t *testing.T, st *Store, name string) *core.Instance {
	t.Helper()
	tb, d := st.tables[name], st.descs[name]
	in := &core.Instance{Frag: st.Layout.ByName(name)}
	var sc fragScan
	for i := 0; i < len(tb.rows); {
		if tb.isGone(i) {
			i++
			continue
		}
		_, end := d.span(tb, i)
		rec, err := sc.record(d, tb.rows[i:end])
		if err != nil {
			t.Fatal(err)
		}
		in.Records = append(in.Records, rec)
		i = end
	}
	return in
}

// storeShipment is every table of st as one outbound edge, keyed by table
// name: its reference trees, and its snapshot. ScanFragment must build the
// reference trees too.
func storeShipment(t *testing.T, st *Store) (map[string]*core.Instance, map[string]core.Outbound) {
	t.Helper()
	trees, rows := map[string]*core.Instance{}, map[string]core.Outbound{}
	for _, name := range st.Tables() {
		ref := scanRef(t, st, name)
		in, err := st.ScanFragment(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Records) != len(ref.Records) {
			t.Fatalf("%s: ScanFragment built %d records, the reference scan %d", name, len(in.Records), len(ref.Records))
		}
		for i := range ref.Records {
			if !xmltree.Equal(in.Records[i], ref.Records[i]) {
				t.Fatalf("%s: ScanFragment's record %d differs from the reference scan's", name, i)
			}
		}
		snap, err := st.Snapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		trees[name], rows[name] = ref, core.Outbound{Frag: ref.Frag, Recs: snap}
	}
	return trees, rows
}

// emitStore writes every edge of ship as one shipment, in codec, cut into
// chunks of size from chunk from on.
func emitStore(t *testing.T, st *Store, ship map[string]core.Outbound, codec wire.Codec, size int, from int64) ([]byte, int64) {
	t.Helper()
	var buf bytes.Buffer
	sw := wire.NewShipmentWriterCodec(&buf, st.Layout.Schema, codec)
	sw.SetChunk(size, from)
	if err := wire.EmitShipment(sw, ship); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sw.PayloadBytes()
}

// A chunk built from a store's rows is the chunk its trees make: for flat
// and denormalized tables (XMark MF and LF, telgen S and T), before and
// after a delta leaves deleted slots behind, every codec writes the same
// bytes and counts the same PayloadBytes from rows as from ScanFragment's
// trees (a reference scan's, which ScanFragment must match), whatever the
// chunk size and wherever a resumed delivery starts.
// The diff over the snapshot ships the same records, tombstones and fresh
// hashes as DiffShipment over the trees.
func TestRowsEmitMatchesTrees(t *testing.T) {
	xsch, tsch := xmark.Schema(), telgen.Schema()
	paperS, err := core.PaperSFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	paperT, err := core.PaperTFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	auction := []*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 40_000, Seed: 7})}
	customers := telgen.Customers(telgen.Config{Customers: 20, Seed: 7})
	var codecs []wire.Codec
	for _, name := range []string{"xml", "bin", "bin+flate"} {
		c, err := wire.ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		codecs = append(codecs, c)
	}
	for _, c := range []struct {
		name          string
		sch           *schema.Schema
		edges, layout *core.Fragmentation
		docs          []*xmltree.Node
	}{
		{"xmark LF", xsch, core.MostFragmented(xsch), core.LeastFragmented(xsch), auction},
		{"xmark MF", xsch, core.LeastFragmented(xsch), core.MostFragmented(xsch), auction},
		{"telgen T", tsch, paperS, paperT, customers},
		{"telgen S", tsch, paperT, paperS, customers},
	} {
		t.Run(c.name, func(t *testing.T) {
			docs := cloneDocs(c.docs)
			for _, d := range docs {
				stripLeafIDs(c.edges, d)
			}
			st := loadDocs(t, c.layout, docs)
			var base map[string]reliable.EdgeHashes
			for _, state := range []string{"loaded", "after a delta"} {
				if state != "loaded" {
					before := cloneDocs(docs)
					churnDocs(c.sch, docs, rand.New(rand.NewSource(1)), 0.1, 1)
					for _, d := range docs {
						stripLeafIDs(c.edges, d)
					}
					if _, err := st.ApplyDelta(st.Generation(), deltaEdits(t, c.edges, before, docs)); err != nil {
						t.Fatal(err)
					}
					gone := 0
					for _, name := range st.Tables() {
						gone += st.Table(name).ngone
					}
					if gone == 0 {
						t.Fatal("the delta left no deleted slot")
					}
				}
				trees, rows := storeShipment(t, st)
				treeShip := map[string]core.Outbound{}
				chunks, total := 0, 0
				for key, in := range trees {
					treeShip[key] = core.Outbound{Frag: in.Frag, Recs: in}
					chunks += max(1, (len(in.Records)+6)/7)
					total += len(in.Records)
				}
				for _, codec := range codecs {
					for _, size := range []int{1, 7, 64, 1 << 20} {
						for _, from := range []int64{0, int64(chunks / 2), int64(chunks - 1)} {
							if size != 7 && from > 0 {
								continue // resumes are cut at one size
							}
							wantB, wantP := emitStore(t, st, treeShip, codec, size, from)
							gotB, gotP := emitStore(t, st, rows, codec, size, from)
							if !bytes.Equal(gotB, wantB) || gotP != wantP {
								t.Fatalf("%s, %s, chunk %d from %d: rows wrote %d bytes (payload %d), trees %d (payload %d)",
									state, codec, size, from, len(gotB), gotP, len(wantB), wantP)
							}
						}
					}
				}
				want := reliable.DiffShipment(trees, base)
				got, err := reliable.DiffRecords(rows, base)
				if err != nil {
					t.Fatal(err)
				}
				if got.Records != want.Records || got.Tombstones != want.Tombstones || !reflect.DeepEqual(got.Tombs, want.Tombs) {
					t.Fatalf("%s: rows diff %d records, tombs %v; trees %d, %v", state, got.Records, got.Tombs, want.Records, want.Tombs)
				}
				for key, w := range want.Ship {
					recs, err := got.Out[key].Recs.Build(nil, 0, got.Out[key].Recs.Len(), nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(recs) != len(w.Records) {
						t.Fatalf("%s edge %s: rows ship %d records, trees %d", state, key, len(recs), len(w.Records))
					}
					for i := range recs {
						if !xmltree.Equal(recs[i], w.Records[i]) || recs[i].Parent != w.Records[i].Parent {
							t.Fatalf("%s edge %s: record %d differs", state, key, i)
						}
					}
					gf, wf := got.Fresh[key], want.Fresh[key]
					if !reflect.DeepEqual(gf.IDs, wf.IDs) || !reflect.DeepEqual(gf.Hashes, wf.Hashes) {
						t.Fatalf("%s edge %s: fresh hashes differ", state, key)
					}
				}
				if state != "loaded" && (want.Records == 0 || want.Records >= total) {
					t.Fatalf("the delta's diff ships %d of %d records, want a warm diff", want.Records, total)
				}
				base = want.Fresh
			}
		})
	}
}
