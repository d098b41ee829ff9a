package relstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
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
func emitStore(t *testing.T, st *Store, ship map[string]core.Outbound, codec wire.Codec, size int, from int64) []byte {
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
	return buf.Bytes()
}

// A chunk built from a store's rows is the chunk its trees make: for flat
// and denormalized tables (XMark MF and LF, telgen S and T), before and
// after a delta leaves deleted slots behind, every codec writes the same
// bytes from rows as from ScanFragment's trees (a reference scan's, which ScanFragment must match), whatever the
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
					st.SetBase("s", "e", "b")
					if _, err := st.ApplyDelta("s", "e", "b", "n", deltaEdits(t, c.edges, before, docs)); err != nil {
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
							wantB := emitStore(t, st, treeShip, codec, size, from)
							gotB := emitStore(t, st, rows, codec, size, from)
							if !bytes.Equal(gotB, wantB) {
								t.Fatalf("%s, %s, chunk %d from %d: rows wrote %d bytes, trees %d",
									state, codec, size, from, len(gotB), len(wantB))
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

// The parallel diff is the serial one: DiffRecords with GOMAXPROCS at 4
// files exactly what it files at 1 — each edge's shipped positions, the
// tombstones, the fresh IDs and hashes in shipment order, the counts and
// the unkeyed flag. The shipment is every table of an XMark MF and a
// telgen S store, half as row snapshots and half as trees, plus a tree
// edge that repeats IDs and, in its last round, holds a record without
// one; it is diffed cold, then warm against the last round's hashes, to
// which an edge the shipment lacks is added, over two churn rounds.
func TestDiffRecordsParallelMatchesSerial(t *testing.T) {
	xsch, tsch := xmark.Schema(), telgen.Schema()
	paperS, err := core.PaperSFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	paperT, err := core.PaperTFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		sch           *schema.Schema
		edges, layout *core.Fragmentation
		docs          []*xmltree.Node
	}{
		{"xmark MF", xsch, core.LeastFragmented(xsch), core.MostFragmented(xsch),
			[]*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 40_000, Seed: 7})}},
		{"telgen S", tsch, paperT, paperS, telgen.Customers(telgen.Config{Customers: 20, Seed: 7})},
	} {
		t.Run(c.name, func(t *testing.T) {
			docs := cloneDocs(c.docs)
			for _, d := range docs {
				stripLeafIDs(c.edges, d)
			}
			st := loadDocs(t, c.layout, docs)
			rng := rand.New(rand.NewSource(1))
			var base map[string]reliable.EdgeHashes
			for round := 0; round < 3; round++ {
				if round > 0 {
					before := cloneDocs(docs)
					churnDocs(c.sch, docs, rng, 0.1, round)
					for _, d := range docs {
						stripLeafIDs(c.edges, d)
					}
					st.SetBase("s", "e", "b")
					if _, err := st.ApplyDelta("s", "e", "b", "n", deltaEdits(t, c.edges, before, docs)); err != nil {
						t.Fatal(err)
					}
				}
				trees, rows := storeShipment(t, st)
				ship := map[string]core.Outbound{}
				var odd []*xmltree.Node
				for i, name := range st.Tables() {
					ship[name] = rows[name]
					if i%2 == 1 {
						ship[name] = core.Outbound{Frag: trees[name].Frag, Recs: trees[name]}
					}
					for _, rec := range trees[name].Records[:min(3, len(trees[name].Records))] {
						again := rec.Clone()
						again.Text += "again"
						odd = append(odd, rec, again)
					}
				}
				if round == 2 {
					odd = append(odd, &xmltree.Node{Name: "anon", Text: "no id"})
				}
				ship["odd"] = core.Outbound{Recs: &core.Instance{Records: odd}}

				serial, parallel := diffAt(t, 1, ship, base), diffAt(t, 4, ship, base)
				if !reflect.DeepEqual(serial.Out, parallel.Out) {
					t.Fatalf("round %d: the edges ship different positions", round)
				}
				if !reflect.DeepEqual(serial.Tombs, parallel.Tombs) {
					t.Fatalf("round %d: tombstones %v serial, %v parallel", round, serial.Tombs, parallel.Tombs)
				}
				if !reflect.DeepEqual(serial.Fresh, parallel.Fresh) {
					t.Fatalf("round %d: the fresh hashes differ", round)
				}
				if serial.Records != parallel.Records || serial.Tombstones != parallel.Tombstones || serial.Unkeyed != parallel.Unkeyed {
					t.Fatalf("round %d: %d records %d tombstones unkeyed %v serial, %d %d %v parallel", round,
						serial.Records, serial.Tombstones, serial.Unkeyed, parallel.Records, parallel.Tombstones, parallel.Unkeyed)
				}
				if round == 2 && !serial.Unkeyed {
					t.Fatal("a record without an ID left the shipment keyed")
				}
				if round > 0 && (serial.Tombs["vanished"] == nil || serial.Records == 0) {
					t.Fatalf("round %d: a warm diff shipped %d records and tombstoned %v of the vanished edge",
						round, serial.Records, serial.Tombs["vanished"])
				}
				base = serial.Fresh
				gone, _ := reliable.HashShipment(map[string]*core.Instance{"vanished": {Records: odd[:4]}})
				base["vanished"] = gone["vanished"]
			}
		})
	}
}

// diffAt runs DiffRecords with GOMAXPROCS at procs.
func diffAt(t *testing.T, procs int, ship map[string]core.Outbound, base map[string]reliable.EdgeHashes) *reliable.Delta {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	d, err := reliable.DiffRecords(ship, base)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
