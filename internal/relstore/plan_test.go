package relstore

// The store scans and shreds by a column plan compiled once per table. The
// name-driven scan and shredder it replaced — one "<elem>$id" lookup per
// cell, repeated subtrees appended and their parent's kids re-sorted — are
// kept here as the reference the compiled paths must agree with.

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// scanFragmentRef is the reference Scan: it rebuilds records by walking the
// schema and looking every column up by name.
func scanFragmentRef(s *Store, fragName string) ([]*xmltree.Node, error) {
	f, t, d, sch := s.Layout.ByName(fragName), s.tables[fragName], s.descs[fragName], s.Layout.Schema
	var build func(row []string, elem, parentID string, fromRep bool) *xmltree.Node
	build = func(row []string, elem, parentID string, fromRep bool) *xmltree.Node {
		if !fromRep && elem == d.repRoot {
			return nil
		}
		id := row[t.ColIndex(elem+"$id")]
		if id == "" {
			return nil
		}
		if id == "-" {
			id = ""
		}
		n := &xmltree.Node{Name: elem, ID: id, Parent: parentID}
		if ti := t.ColIndex(elem + "$txt"); ti >= 0 {
			n.Text = row[ti]
		}
		for _, c := range sch.AllChildren(elem) {
			if !f.Elems[c] || (fromRep && !slices.Contains(d.repElems, c)) {
				continue
			}
			if k := build(row, c, id, fromRep); k != nil {
				n.AddKid(k)
			}
		}
		return n
	}
	var recs []*xmltree.Node
	curRootID := ""
	var attach *xmltree.Node
	for _, row := range t.rows {
		if rootID := row[t.ColIndex(f.Root+"$id")]; len(recs) == 0 || rootID != curRootID {
			rec := build(row, f.Root, row[t.ColIndex("$parent")], false)
			if rec == nil {
				return nil, fmt.Errorf("reference scan: empty root identifier")
			}
			recs, curRootID = append(recs, rec), rootID
			attach = nil
			if d.repRoot != "" {
				attach = rec.Find(sch.ParentOf(d.repRoot))
			}
		}
		if d.repRoot == "" || row[t.ColIndex(d.repRoot+"$id")] == "" {
			continue
		}
		attach.AddKid(build(row, d.repRoot, attach.ID, true))
		order := sch.ChildOrderMap(attach.Name)
		sort.SliceStable(attach.Kids, func(i, j int) bool { return order[attach.Kids[i].Name] < order[attach.Kids[j].Name] })
	}
	return recs, nil
}

// shredRef is the reference shredder: one row per repeated-subtree instance
// (or one per record without any), every cell found by column name.
func shredRef(s *Store, in *core.Instance) [][]string {
	name := s.layoutName(in.Frag)
	t, d := s.tables[name], s.descs[name]
	var rows [][]string
	var fill func(row []string, n *xmltree.Node, reps *[]*xmltree.Node)
	fill = func(row []string, n *xmltree.Node, reps *[]*xmltree.Node) {
		if reps != nil && n.Name == d.repRoot {
			*reps = append(*reps, n)
			return
		}
		id := n.ID
		if id == "" {
			id = "-"
		}
		row[t.ColIndex(n.Name+"$id")] = id
		if ti := t.ColIndex(n.Name + "$txt"); ti >= 0 {
			row[ti] = n.Text
		}
		for _, k := range n.Kids {
			fill(row, k, reps)
		}
	}
	for _, rec := range in.Records {
		base := make([]string, len(t.Cols))
		base[t.ColIndex("$parent")] = rec.Parent
		var reps []*xmltree.Node
		fill(base, rec, &reps)
		if len(reps) == 0 {
			rows = append(rows, base)
		}
		for _, rep := range reps {
			row := append([]string(nil), base...)
			fill(row, rep, nil)
			rows = append(rows, row)
		}
	}
	return rows
}

// planSchema puts the repeated element between two siblings and makes one
// of them optional, so a scan that appended repeats (instead of placing
// them) or mislaid an absent column would show.
func planSchema() *schema.Schema {
	return schema.MustNew(schema.Elem("root",
		schema.Rep(schema.Elem("p",
			schema.Elem("a"),
			schema.Rep(schema.Elem("rep", schema.Elem("x"), schema.Opt(schema.Elem("y")))),
			schema.Opt(schema.Elem("b", schema.Elem("c"))),
		))))
}

// planDoc builds count p records; record i has i%4 repeats, and every
// third lacks its optional b (and every other repeat its y).
func planDoc(count int) *xmltree.Node {
	leaf := func(name, text string) *xmltree.Node { return &xmltree.Node{Name: name, Text: text} }
	doc := &xmltree.Node{Name: "root"}
	for i := 0; i < count; i++ {
		p := &xmltree.Node{Name: "p"}
		p.AddKid(leaf("a", fmt.Sprintf("a%d", i)))
		for r := 0; r < i%4; r++ {
			rep := &xmltree.Node{Name: "rep"}
			rep.AddKid(leaf("x", fmt.Sprintf("x%d.%d", i, r)))
			if r%2 == 0 {
				rep.AddKid(leaf("y", "y"))
			}
			p.AddKid(rep)
		}
		if i%3 != 0 {
			b := &xmltree.Node{Name: "b"}
			b.AddKid(leaf("c", ""))
			p.AddKid(b)
		}
		doc.AddKid(p)
	}
	core.AssignIntIDs(doc)
	return doc
}

// ScanFragment ∘ Load is the identity on instances, and both halves agree
// with the name-driven reference: for flat tables (one fragment per
// element), for a denormalised table with one internal repetition in the
// middle of its parent's kids, and with optional elements absent.
func TestScanLoadRoundTripMatchesReference(t *testing.T) {
	sch := planSchema()
	denorm, err := core.FromPartition(sch, "denorm", [][]string{{"root"}, {"p", "a", "rep", "x", "y", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	layouts := map[string]*core.Fragmentation{
		"flat":         core.MostFragmented(sch),
		"denormalised": denorm,
		"customer-S":   mustPaperS(t),
	}
	for name, fr := range layouts {
		doc := planDoc(13)
		if fr.Schema != sch {
			doc = customerDoc()
		}
		st, err := NewStore(fr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		insts, err := core.FromDocument(fr, doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range fr.Fragments {
			in := insts[f.Name]
			if err := st.Load(in); err != nil {
				t.Fatalf("%s: load %q: %v", name, f.Name, err)
			}
			tb := st.Table(f.Name)
			var rows [][]string
			for i := 0; i < tb.Len(); i++ {
				rows = append(rows, tb.rows[i])
			}
			if want := shredRef(st, in); !reflect.DeepEqual(rows, want) {
				t.Errorf("%s: fragment %q shredded to\n%v\nreference:\n%v", name, f.Name, rows, want)
			}
			got, err := st.ScanFragment(f.Name)
			if err != nil {
				t.Fatalf("%s: scan %q: %v", name, f.Name, err)
			}
			ref, err := scanFragmentRef(st, f.Name)
			if err != nil {
				t.Fatalf("%s: reference scan %q: %v", name, f.Name, err)
			}
			if len(got.Records) != len(in.Records) || len(ref) != len(in.Records) {
				t.Fatalf("%s: fragment %q: scanned %d records, reference %d, loaded %d", name, f.Name, len(got.Records), len(ref), len(in.Records))
			}
			for i, rec := range in.Records {
				if !xmltree.Equal(got.Records[i], rec) {
					t.Errorf("%s: fragment %q record %d changed through the store:\n got %s\nwant %s", name, f.Name, i,
						xmltree.Marshal(got.Records[i], xmltree.WriteOptions{EmitIDs: true}), xmltree.Marshal(rec, xmltree.WriteOptions{EmitIDs: true}))
				}
				if !xmltree.Equal(got.Records[i], ref[i]) {
					t.Errorf("%s: fragment %q record %d differs from the reference scan", name, f.Name, i)
				}
			}
		}
	}
}

func mustPaperS(t *testing.T) *core.Fragmentation {
	t.Helper()
	fr, err := core.PaperSFragmentation(schema.CustomerInfo())
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// Load refuses a record that carries an element outside its fragment, or
// one element twice, in the words it always has.
func TestLoadRejectsMalformedRecords(t *testing.T) {
	sch := planSchema()
	fr, err := core.FromPartition(sch, "denorm", [][]string{{"root"}, {"p", "a", "rep", "x", "y", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	pFrag := fr.FragmentOf("p")
	rec := func(kids ...*xmltree.Node) *core.Instance {
		return &core.Instance{Frag: pFrag, Records: []*xmltree.Node{{Name: "p", ID: "2", Parent: "1", Kids: kids}}}
	}
	cases := []struct {
		what string
		in   *core.Instance
		want string
	}{
		{"unexpected element", rec(&xmltree.Node{Name: "a", ID: "3"}, &xmltree.Node{Name: "zz", ID: "4"}),
			fmt.Sprintf("relstore: record for %q contains unexpected element %q", pFrag.Name, "zz")},
		{"unexpected element inside a repeat", rec(&xmltree.Node{Name: "rep", ID: "3", Kids: []*xmltree.Node{{Name: "root", ID: "4"}}}),
			fmt.Sprintf("relstore: record for %q contains unexpected element %q", pFrag.Name, "root")},
		{"repeated element", rec(&xmltree.Node{Name: "a", ID: "3"}, &xmltree.Node{Name: "a", ID: "4"}),
			fmt.Sprintf("relstore: record for %q repeats element %q", pFrag.Name, "a")},
		{"repeated element inside a repeat", rec(&xmltree.Node{Name: "rep", ID: "3", Kids: []*xmltree.Node{{Name: "x", ID: "4"}, {Name: "x", ID: "5"}}}),
			fmt.Sprintf("relstore: record for %q repeats element %q", pFrag.Name, "x")},
		{"wrong root", &core.Instance{Frag: pFrag, Records: []*xmltree.Node{{Name: "a", ID: "2"}}},
			fmt.Sprintf("relstore: record root %q does not match fragment root %q", "a", "p")},
	}
	for _, c := range cases {
		st, err := NewStore(fr)
		if err != nil {
			t.Fatal(err)
		}
		err = st.Load(c.in)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Load error = %v, want %q", c.what, err, c.want)
		}
		if st.Rows() != 0 {
			t.Errorf("%s: a refused instance left %d rows behind", c.what, st.Rows())
		}
	}
}

// CreateIndex cuts its slots, per-key first and last rows and per-row
// chain out of one array. Lookups return rows in row order whatever the
// keys' interleaving — with seven interleaved keys, a key per row, or one
// key for every row — and Inserts after the build grow the per-key and
// per-row arrays past their cut without touching a neighbour's.
func TestCreateIndexSharedPostings(t *testing.T) {
	for _, c := range []struct {
		name string
		key  func(i int) string
	}{
		{"interleaved", func(i int) string { return fmt.Sprintf("k%d", i%7) }},
		{"unique", func(i int) string { return fmt.Sprintf("k%d", i) }},
		{"single", func(int) string { return "k0" }},
	} {
		tb, _ := NewTable("t", []string{"k", "v"})
		var rows [][]string
		for i := 0; i < 60; i++ {
			rows = append(rows, []string{c.key(i), fmt.Sprint(i)})
		}
		if err := tb.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		want := func(key string) [][]string {
			var out [][]string
			for i := 0; i < tb.Len(); i++ {
				if tb.rows[i][0] == key {
					out = append(out, tb.rows[i])
				}
			}
			return out
		}
		check := func(when string) {
			t.Helper()
			// Every key the table holds, and k90, which it never does.
			for k := 0; k <= 90; k++ {
				key := fmt.Sprintf("k%d", k)
				got, err := tb.Lookup("k", key)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want(key)) {
					t.Errorf("%s, %s: Lookup(%s) = %v, want %v", c.name, when, key, got, want(key))
				}
			}
		}
		check("after the build")
		for i := 60; i < 90; i++ {
			if err := tb.Insert([]string{fmt.Sprintf("k%d", i%8), fmt.Sprint(i)}); err != nil {
				t.Fatal(err)
			}
		}
		check("after inserts into built postings")
	}
}
