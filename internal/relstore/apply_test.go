package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/reliable"
	"xdx/internal/schema"
	"xdx/internal/telgen"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// churnDocs mutates docs in place the way a source's updates do: of the
// instances of repeated elements, about frac/3 each are deleted, cloned
// under fresh IDs beside their originals, and moved, keeping their IDs,
// under another instance of their parent's element; as many instances of
// other elements swap parents with a namesake; and as many text leaves are
// rewritten. Surviving instances keep their IDs.
func churnDocs(sch *schema.Schema, docs []*xmltree.Node, rng *rand.Rand, frac float64, round int) {
	type slot struct{ parent, n *xmltree.Node }
	var reps, singles []slot
	var leaves []*xmltree.Node
	var walk func(p, n *xmltree.Node)
	walk = func(p, n *xmltree.Node) {
		switch {
		case p == nil:
		case sch.ByName(n.Name).Repeated:
			reps = append(reps, slot{p, n})
		default:
			singles = append(singles, slot{p, n})
		}
		if len(n.Kids) == 0 && n.Text != "" {
			leaves = append(leaves, n)
		}
		for _, k := range n.Kids {
			walk(n, k)
		}
	}
	for _, doc := range docs {
		walk(nil, doc)
	}
	per := max(1, int(frac*float64(len(reps))/3))
	perm := rng.Perm(len(reps))
	for _, i := range perm[:per] {
		s := reps[i]
		s.parent.Kids = slices.DeleteFunc(s.parent.Kids, func(k *xmltree.Node) bool { return k == s.n })
	}
	next := 0
	var fresh func(n *xmltree.Node, parent string) *xmltree.Node
	fresh = func(n *xmltree.Node, parent string) *xmltree.Node {
		next++
		c := &xmltree.Node{Name: n.Name, Text: n.Text, ID: fmt.Sprintf("n%d.%d", round, next), Parent: parent}
		for _, k := range n.Kids {
			c.Kids = append(c.Kids, fresh(k, c.ID))
		}
		return c
	}
	for _, i := range perm[per:min(2*per, len(perm))] {
		s := reps[i]
		at := slices.Index(s.parent.Kids, s.n) + 1
		s.parent.Kids = slices.Insert(s.parent.Kids, at, fresh(s.n, s.parent.ID))
	}
	parents := map[string][]*xmltree.Node{}
	for _, r := range reps {
		parents[r.n.Name] = append(parents[r.n.Name], r.parent)
	}
	for _, i := range perm[min(2*per, len(perm)):min(3*per, len(perm))] {
		s := reps[i]
		ps := parents[s.n.Name]
		if to := ps[rng.Intn(len(ps))]; to != s.parent && slices.Contains(s.parent.Kids, s.n) {
			s.parent.Kids = slices.DeleteFunc(s.parent.Kids, func(k *xmltree.Node) bool { return k == s.n })
			s.n.Parent = to.ID
			core.PlaceKid(sch, to, s.n)
		}
	}
	namesakes := map[string][]slot{}
	for _, sl := range singles {
		namesakes[sl.n.Name] = append(namesakes[sl.n.Name], sl)
	}
	for _, i := range rng.Perm(len(singles))[:min(per, len(singles))] {
		a := singles[i]
		b := namesakes[a.n.Name][rng.Intn(len(namesakes[a.n.Name]))]
		ia, ib := slices.Index(a.parent.Kids, a.n), slices.Index(b.parent.Kids, b.n)
		if a.parent != b.parent && ia >= 0 && ib >= 0 {
			a.parent.Kids[ia], b.parent.Kids[ib] = b.n, a.n
			a.n.Parent, b.n.Parent = b.parent.ID, a.parent.ID
		}
	}
	for _, i := range rng.Perm(len(leaves))[:min(per, len(leaves))] {
		leaves[i].Text = fmt.Sprintf("round %d", round)
	}
}

// stripLeafIDs drops the IDs a shipment drops (see the wire codecs): a
// text leaf's, unless it roots a record of an edge fragment.
func stripLeafIDs(edges *core.Fragmentation, n *xmltree.Node) {
	if len(n.Kids) == 0 && n.Text != "" && edges.FragmentOf(n.Name).Root != n.Name {
		n.ID = ""
	}
	for _, k := range n.Kids {
		stripLeafIDs(edges, k)
	}
}

// edgeInstances cuts docs by the edge fragmentation, as a source ships
// them.
func edgeInstances(t testing.TB, edges *core.Fragmentation, docs []*xmltree.Node) map[string]*core.Instance {
	t.Helper()
	out := map[string]*core.Instance{}
	for _, doc := range docs {
		insts, err := core.FromDocument(edges, doc)
		if err != nil {
			t.Fatal(err)
		}
		for name, in := range insts {
			if out[name] == nil {
				out[name] = &core.Instance{Frag: in.Frag}
			}
			out[name].Records = append(out[name].Records, in.Records...)
		}
	}
	return out
}

// deltaEdits diffs the after shipment against the before one the way the
// source does (reliable.DiffShipment) and returns the edits it ships.
func deltaEdits(t testing.TB, edges *core.Fragmentation, before, after []*xmltree.Node) []Edit {
	t.Helper()
	prev, _ := reliable.HashShipment(edgeInstances(t, edges, before))
	d := reliable.DiffShipment(edgeInstances(t, edges, after), prev)
	var out []Edit
	for _, f := range edges.Fragments {
		out = append(out, Edit{Frag: f, Records: d.Ship[f.Name].Records, Tombs: d.Tombs[f.Name]})
	}
	return out
}

// loadDocs loads docs into a fresh store over layout and indexes it, as a
// full exchange leaves a target.
func loadDocs(t testing.TB, layout *core.Fragmentation, docs []*xmltree.Node) *Store {
	t.Helper()
	st, err := NewStore(layout)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		if err := st.LoadDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	return st
}

// canonStore renders every stored record, and the records of each table,
// sorted stably by parent and ID: what two stores holding the same data
// share whatever order their keyed rows are in. ID-less siblings keep their
// order, which is document order.
func canonStore(t testing.TB, st *Store) string {
	t.Helper()
	less := func(a, b string) bool { return len(a) < len(b) || len(a) == len(b) && a < b }
	byKey := func(ns []*xmltree.Node) {
		sort.SliceStable(ns, func(i, j int) bool {
			if ns[i].Parent != ns[j].Parent {
				return less(ns[i].Parent, ns[j].Parent)
			}
			return less(ns[i].ID, ns[j].ID)
		})
	}
	var canon func(b *strings.Builder, n *xmltree.Node)
	canon = func(b *strings.Builder, n *xmltree.Node) {
		fmt.Fprintf(b, "<%s id=%q parent=%q>%s", n.Name, n.ID, n.Parent, n.Text)
		byKey(n.Kids)
		for _, k := range n.Kids {
			canon(b, k)
		}
		b.WriteString("</>")
	}
	var b strings.Builder
	for _, name := range st.Tables() {
		in, err := st.ScanFragment(name)
		if err != nil {
			t.Fatal(err)
		}
		byKey(in.Records)
		fmt.Fprintf(&b, "%s: %d\n", name, len(in.Records))
		for _, rec := range in.Records {
			canon(&b, rec)
			b.WriteString("\n")
		}
	}
	return b.String()
}

func cloneDocs(docs []*xmltree.Node) []*xmltree.Node {
	out := make([]*xmltree.Node, len(docs))
	for i, d := range docs {
		out[i] = d.Clone()
	}
	return out
}

// A delta applied as row edits leaves the store holding what a reload of
// the churned documents does, round after round, over layouts that cut a
// shipped record across several tables (LF records into MF, leaves ID-less
// there), that gather several edges' records into one (MF into LF, S into
// T), and that store a record as several rows (T into S's Line, one row per
// feature). Every delete and insert lands as row edits, so the rows the
// apply touches grow with the churn, not with the store.
func TestApplyDeltaMatchesReload(t *testing.T) {
	xsch, tsch := xmark.Schema(), telgen.Schema()
	paperS, err := core.PaperSFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	paperT, err := core.PaperTFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	auction := []*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 200_000, Seed: 3})}
	customers := telgen.Customers(telgen.Config{Customers: 100, Seed: 3})
	for _, c := range []struct {
		name          string
		sch           *schema.Schema
		edges, layout *core.Fragmentation
		docs          []*xmltree.Node
	}{
		{"xmark MF to LF", xsch, core.MostFragmented(xsch), core.LeastFragmented(xsch), auction},
		{"xmark LF to MF", xsch, core.LeastFragmented(xsch), core.MostFragmented(xsch), auction},
		{"telgen S to T", tsch, paperS, paperT, customers},
		{"telgen T to S", tsch, paperT, paperS, customers},
	} {
		t.Run(c.name, func(t *testing.T) {
			docs := cloneDocs(c.docs)
			for _, d := range docs {
				stripLeafIDs(c.edges, d)
			}
			got := loadDocs(t, c.layout, docs)
			got.SetBase("s", "e", "0")
			rng := rand.New(rand.NewSource(1))
			prevRows := 0
			for round, frac := range []float64{0.01, 0.1, 0.5, 0.1} {
				before := cloneDocs(docs)
				churnDocs(c.sch, docs, rng, frac, round+1)
				for _, d := range docs {
					stripLeafIDs(c.edges, d)
				}
				base, next := fmt.Sprint(round), fmt.Sprint(round+1)
				n, err := got.ApplyDelta("s", "e", base, next, deltaEdits(t, c.edges, before, docs))
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if b := got.Base("s", "e"); b != next {
					t.Errorf("round %d: the rows hold base %q after the apply, want %q", round, b, next)
				}
				if want := canonStore(t, loadDocs(t, c.layout, docs)); canonStore(t, got) != want {
					t.Fatalf("round %d (churn %.0f%%): the edited store differs from a reload", round, frac*100)
				}
				if round < 3 && n <= prevRows {
					t.Errorf("round %d (churn %.0f%%): %d rows edited, want more than the %d of the churn before", round, frac*100, n, prevRows)
				}
				if round == 0 && 20*n >= got.Rows() {
					t.Errorf("1%% churn edited %d of %d rows, want under 5%%", n, got.Rows())
				}
				prevRows = n
			}
		})
	}
}

// A delta that does not fit the rows fails with ErrStale, leaves every
// row, slot and index as it was, and leaves the stream without a base: one
// diffed against a snapshot the rows do not hold, a tombstone for a record
// the store lacks, a record whose parent it lacks, and a tombstone that
// leaves a record — of its own table or another — without its parent. A
// record that is no instance of its edge's fragment fails too, before
// anything looks it up.
func TestApplyDeltaRefusesStaleDelta(t *testing.T) {
	sch := telgen.Schema()
	paperS, _ := core.PaperSFragmentation(sch)
	paperT, _ := core.PaperTFragmentation(sch)
	docs := telgen.Customers(telgen.Config{Customers: 3, Seed: 5})
	st := loadDocs(t, paperT, docs)
	line := paperS.FragmentOf("Line")
	order, service := paperS.FragmentOf("Order"), paperS.FragmentOf("Service")
	lineRec := func(parent string) *xmltree.Node {
		return &xmltree.Node{Name: "Line", ID: "x1", Parent: parent, Kids: []*xmltree.Node{{Name: "TelNo", Text: "555"}}}
	}
	want := canonStore(t, st)
	slots := map[string]int{}
	for _, name := range st.Tables() {
		slots[name] = len(st.Table(name).rows)
	}
	for _, c := range []struct {
		name      string
		edits     []Edit
		malformed bool
		unheld    bool
	}{
		{"diffed against a snapshot the rows do not hold", []Edit{{Frag: line, Records: []*xmltree.Node{lineRec(docs[0].Kids[1].Kids[0].ID)}}}, false, true},
		{"tombstone of a missing record", []Edit{{Frag: line, Tombs: []string{"nope"}}}, false, false},
		{"record under a missing parent", []Edit{{Frag: line, Records: []*xmltree.Node{lineRec("nope")}}}, false, false},
		{"missing parent after a good record", []Edit{
			{Frag: line, Records: []*xmltree.Node{lineRec(docs[0].Kids[1].Kids[0].ID), lineRec("nope")}},
		}, false, false},
		{"order tombstoned, its service kept", []Edit{{Frag: order, Tombs: []string{docs[1].Kids[1].ID}}}, false, false},
		{"service tombstoned, its lines kept", []Edit{{Frag: service, Tombs: []string{docs[1].Kids[1].Kids[0].ID}}}, false, false},
		{"element outside the schema", []Edit{{Frag: line, Records: []*xmltree.Node{{Name: "Line", ID: "x2", Parent: docs[0].Kids[1].Kids[0].ID,
			Kids: []*xmltree.Node{{Name: "Bogus", Text: "x"}}}}}}, true, false},
	} {
		if !c.unheld {
			st.SetBase("s", "e", "held")
		}
		_, err := st.ApplyDelta("s", "e", "held", "next", c.edits)
		if err == nil || errors.Is(err, ErrStale) == c.malformed {
			t.Errorf("%s: err = %v, want an error that is ErrStale: %v", c.name, err, !c.malformed)
		}
		if b := st.Base("s", "e"); b != "" {
			t.Errorf("%s: the refused delta left base %q", c.name, b)
		}
		if canonStore(t, st) != want {
			t.Errorf("%s: the refused delta changed the rows", c.name)
		}
		for name, n := range slots {
			if got := len(st.Table(name).rows); got != n || st.Table(name).ngone != 0 {
				t.Errorf("%s: table %s has %d slots (%d gone), want %d and none", c.name, name, got, st.Table(name).ngone, n)
			}
		}
	}
}

// Load and Clear drop every stream's base; reads, Stats and BuildIndexes
// keep them, and a delta on one stream keeps another stream's.
func TestLoadAndClearDropEveryBase(t *testing.T) {
	sch := telgen.Schema()
	fr, _ := core.PaperTFragmentation(sch)
	st, _ := NewStore(fr)
	docs := telgen.Customers(telgen.Config{Customers: 2, Seed: 1})
	hold := func() {
		st.SetBase("a", "e", "A")
		st.SetBase("b", "e", "B")
	}
	held := func(what, a, b string) {
		t.Helper()
		if ga, gb := st.Base("a", "e"), st.Base("b", "e"); ga != a || gb != b {
			t.Errorf("after %s: bases %q and %q, want %q and %q", what, ga, gb, a, b)
		}
	}
	hold()
	if err := st.LoadDocument(docs[0]); err != nil {
		t.Fatal(err)
	}
	held("a Load", "", "")
	hold()
	if err := st.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	st.Stats()
	if _, err := st.ScanFragment(fr.Fragments[0].Name); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(fr.Fragments[0].Name); err != nil {
		t.Fatal(err)
	}
	held("reads and an index build", "A", "B")
	if st.Base("a", "other epoch") != "" {
		t.Error("a base answers for an epoch it was not built under")
	}
	if _, err := st.ApplyDelta("a", "e", "A", "A2", nil); err != nil {
		t.Fatal(err)
	}
	held("a delta on stream a", "A2", "B")
	st.Clear()
	held("a Clear", "", "")
}

// Deleted rows leave Scan, Len and the index lookups at once, and compact
// drops their slots once they outnumber the live rows, rebuilding the
// indexes.
func TestTableDeleteAndCompact(t *testing.T) {
	tb, _ := NewTable("t", []string{"k", "v"})
	for i := 0; i < 10; i++ {
		if err := tb.Insert([]string{fmt.Sprint("k", i%3), fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.rowsWith("k", "k1"); !slices.Equal(got, []int{1, 4, 7}) {
		t.Fatalf("rowsWith(k1) = %v", got)
	}
	tb.delete(4)
	tb.compact()
	if got := tb.rowsWith("k", "k1"); !slices.Equal(got, []int{1, 7}) || tb.Len() != 9 || len(tb.rows) != 10 {
		t.Fatalf("after one delete: rowsWith(k1) = %v, Len %d, slots %d", got, tb.Len(), len(tb.rows))
	}
	for _, i := range []int{0, 1, 2, 3, 5} {
		tb.delete(i)
	}
	tb.compact()
	var vs []string
	for _, r := range tb.rows {
		vs = append(vs, r[1])
	}
	if got := tb.rowsWith("k", "k1"); !slices.Equal(got, []int{1}) || tb.Len() != 4 || len(tb.rows) != 4 || !slices.Equal(vs, []string{"6", "7", "8", "9"}) {
		t.Fatalf("after compaction: rowsWith(k1) = %v, Len %d, slots %d, rows %v", got, tb.Len(), len(tb.rows), vs)
	}
}

// BenchmarkApplyDelta applies a 1 % churn delta, shipped as MF records, to
// the 2.5 MB XMark document's LF store, warm: the store is the one a full
// load and an earlier delta left, and every iteration edits it back and
// forth between two documents. Allocations and bytes must scale with the
// churn, not the store.
func BenchmarkApplyDelta(b *testing.B) {
	sch := xmark.Schema()
	edges, layout := core.MostFragmented(sch), core.LeastFragmented(sch)
	a := []*xmltree.Node{xmark.Generate(xmark.Config{TargetBytes: 2_500_000, Seed: 1})}
	churned := cloneDocs(a)
	churnDocs(sch, churned, rand.New(rand.NewSource(1)), 0.01, 1)
	fwd, back := deltaEdits(b, edges, a, churned), deltaEdits(b, edges, churned, a)
	st := loadDocs(b, layout, a)
	apply := func(edits []Edit) {
		// The apply splices the shipped records in; give it copies.
		cp := make([]Edit, len(edits))
		for i, ed := range edits {
			cp[i] = Edit{Frag: ed.Frag, Tombs: ed.Tombs}
			for _, r := range ed.Records {
				cp[i].Records = append(cp[i].Records, r.Clone())
			}
		}
		st.SetBase("s", "e", "b")
		b.StartTimer()
		if _, err := st.ApplyDelta("s", "e", "b", "n", cp); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
	b.StopTimer()
	apply(fwd)
	apply(back)
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			apply(fwd)
		} else {
			apply(back)
		}
	}
}
