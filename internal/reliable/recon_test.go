package reliable

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"xdx/internal/core"
	"xdx/internal/hashtab"
	"xdx/internal/relstore"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

func reconRec(id, text string) *xmltree.Node {
	return &xmltree.Node{Name: "item", ID: id, Kids: []*xmltree.Node{{Name: "v", Text: text}}}
}

func reconShipment(edge string, recs ...*xmltree.Node) map[string]*core.Instance {
	return map[string]*core.Instance{edge: {Records: recs}}
}

func TestHashRecordSensitivity(t *testing.T) {
	base := HashRecord(reconRec("a", "1"))
	if HashRecord(reconRec("a", "1")) != base {
		t.Error("hash not deterministic")
	}
	for name, mut := range map[string]*xmltree.Node{
		"text":   reconRec("a", "2"),
		"id":     reconRec("b", "1"),
		"name":   {Name: "item2", ID: "a", Kids: []*xmltree.Node{{Name: "v", Text: "1"}}},
		"kid":    {Name: "item", ID: "a", Kids: []*xmltree.Node{{Name: "v", Text: "1"}, {Name: "w"}}},
		"attr":   {Name: "item", ID: "a", Attrs: []xmltree.Attr{{Name: "x", Value: "y"}}, Kids: []*xmltree.Node{{Name: "v", Text: "1"}}},
		"parent": {Name: "item", ID: "a", Parent: "p", Kids: []*xmltree.Node{{Name: "v", Text: "1"}}},
	} {
		if HashRecord(mut) == base {
			t.Errorf("%s change did not change hash", name)
		}
	}
	// Shape boundaries must not alias: one kid with text "ab" vs text "a"
	// plus sibling content.
	a := &xmltree.Node{Name: "n", Kids: []*xmltree.Node{{Name: "k", Text: "ab"}}}
	b := &xmltree.Node{Name: "n", Kids: []*xmltree.Node{{Name: "k", Text: "a"}, {Name: "b"}}}
	if HashRecord(a) == HashRecord(b) {
		t.Error("sibling boundary aliased")
	}
}

// Every field is hashed on its own and folded in order, so over seeded
// random records each of these changes the hash: bytes moved between
// adjacent fields (name and ID, ID and PARENT, an attribute's name and
// value), an attribute added or two swapped, two kids swapped, text moved
// into a kid, and a kid count changed over the same bytes (a node's second
// kid moved under its first).
func TestHashRecordFoldsEachField(t *testing.T) {
	rng := rand.New(rand.NewSource(20040330))
	str := func() string {
		b := make([]byte, 1+rng.Intn(8))
		rng.Read(b)
		return string(b)
	}
	var gen func(depth int) *xmltree.Node
	gen = func(depth int) *xmltree.Node {
		n := &xmltree.Node{Name: str(), ID: str(), Parent: str(), Text: str()}
		for i := 2 + rng.Intn(2); i > 0; i-- {
			n.Attrs = append(n.Attrs, xmltree.Attr{Name: str(), Value: str()})
		}
		if depth < 3 {
			for i := 2 + rng.Intn(3); i > 0; i-- {
				n.Kids = append(n.Kids, gen(depth+1))
			}
		}
		return n
	}
	shift := func(a, b *string) { *a, *b = *a+(*b)[:1], (*b)[1:] } // one byte from b's head to a's tail
	for _, c := range []struct {
		name string
		mut  func(n *xmltree.Node)
	}{
		{"byte moved from ID to name", func(n *xmltree.Node) { shift(&n.Name, &n.ID) }},
		{"byte moved from PARENT to ID", func(n *xmltree.Node) { shift(&n.ID, &n.Parent) }},
		{"byte moved from attribute value to name", func(n *xmltree.Node) { shift(&n.Attrs[0].Name, &n.Attrs[0].Value) }},
		{"attribute added", func(n *xmltree.Node) { n.Attrs = append(n.Attrs, xmltree.Attr{Name: "x", Value: ""}) }},
		{"attributes swapped", func(n *xmltree.Node) { n.Attrs[0], n.Attrs[1] = n.Attrs[1], n.Attrs[0] }},
		{"kids swapped", func(n *xmltree.Node) { n.Kids[0], n.Kids[1] = n.Kids[1], n.Kids[0] }},
		{"text moved into a kid", func(n *xmltree.Node) {
			n.Kids[0].Text = n.Text + n.Kids[0].Text
			n.Text = ""
		}},
		{"kid count changed over the same bytes", func(n *xmltree.Node) {
			last := n.Kids[0]
			for len(last.Kids) > 0 {
				last = last.Kids[len(last.Kids)-1]
			}
			last.Kids = append(last.Kids, n.Kids[1])
			n.Kids = append(n.Kids[:1], n.Kids[2:]...)
		}},
	} {
		for i := 0; i < 200; i++ {
			rec := gen(0)
			want := HashRecord(rec)
			if HashRecord(rec) != want {
				t.Fatalf("record %d: hash not deterministic", i)
			}
			c.mut(rec)
			if HashRecord(rec) == want {
				t.Fatalf("record %d: %s left the hash at %#x", i, c.name, want)
			}
		}
	}
}

func TestHashRecordAllocatesNothing(t *testing.T) {
	rec := &xmltree.Node{Name: "item", ID: "1.2", Parent: "1", Attrs: []xmltree.Attr{{Name: "x", Value: "y"}}}
	for i := 0; i < 12; i++ {
		rec.AddKid(reconRec("1.2."+strconv.Itoa(i), "text"))
	}
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() { sink += HashRecord(rec) }); allocs != 0 {
		t.Errorf("HashRecord allocates %.0f times per record, want 0", allocs)
	}
	_ = sink
}

// idHash is one (record ID, content hash) pair of an edgeOf fixture.
type idHash struct {
	id string
	h  uint64
}

// edgeOf builds an edge's hashes from (id, hash) pairs, as a render files them.
func edgeOf(pairs ...idHash) EdgeHashes {
	var e EdgeHashes
	for _, p := range pairs {
		e.file(hashtab.Hash(p.id), p.id, p.h)
	}
	return e
}

// keptHash reads the hash an index entry filed for id on edge, or 0.
func keptHash(kept *ReconEntry, edge, id string) uint64 {
	if kept == nil {
		return 0
	}
	e := kept.Edges[edge]
	if p := e.find(hashtab.Hash(id), id); p >= 0 {
		return e.Hashes[p]
	}
	return 0
}

func TestHashShipmentFlagsMissingIDs(t *testing.T) {
	edges, ok := HashShipment(reconShipment("e", reconRec("a", "1"), reconRec("b", "2")))
	if !ok || len(edges["e"].IDs) != 2 {
		t.Fatalf("complete shipment hashed as %v ok=%v", edges, ok)
	}
	if _, ok := HashShipment(reconShipment("e", &xmltree.Node{Name: "item"})); ok {
		t.Error("ID-less record reported as reconcilable")
	}
}

func TestDiffShipment(t *testing.T) {
	base, _ := HashShipment(reconShipment("e", reconRec("a", "1"), reconRec("b", "2"), reconRec("c", "3")))
	// a unchanged, b updated, c deleted, d added.
	d := DiffShipment(reconShipment("e", reconRec("a", "1"), reconRec("b", "20"), reconRec("d", "4")), base)
	if d.Records != 2 {
		t.Fatalf("Records = %d, want 2 (update+add)", d.Records)
	}
	got := map[string]bool{}
	for _, r := range d.Ship["e"].Records {
		got[r.ID] = true
	}
	if !got["b"] || !got["d"] || got["a"] {
		t.Fatalf("shipped %v, want b and d only", got)
	}
	if d.Tombstones != 1 || len(d.Tombs["e"]) != 1 || d.Tombs["e"][0] != "c" {
		t.Fatalf("tombstones %v, want [c]", d.Tombs)
	}
}

func TestDiffShipmentNoChange(t *testing.T) {
	ship := reconShipment("e", reconRec("a", "1"))
	base, _ := HashShipment(ship)
	d := DiffShipment(ship, base)
	if d.Records != 0 || d.Tombstones != 0 {
		t.Fatalf("no-op churn produced %d records %d tombstones", d.Records, d.Tombstones)
	}
	if in := d.Ship["e"]; in == nil || len(in.Records) != 0 {
		t.Fatal("edge must still announce itself with an empty instance")
	}
}

func TestDiffShipmentVanishedEdge(t *testing.T) {
	base := map[string]EdgeHashes{"gone": edgeOf(idHash{"x", 1}, idHash{"y", 2}), "empty": edgeOf()}
	d := DiffShipment(reconShipment("e", reconRec("a", "1")), base)
	if len(d.Tombs["gone"]) != 2 || d.Tombs["gone"][0] != "x" {
		t.Fatalf("vanished edge tombstones %v", d.Tombs)
	}
	if _, ok := d.Tombs["empty"]; ok {
		t.Error("empty vanished edge produced tombstones")
	}
}

func TestReconIndexEpochGuard(t *testing.T) {
	r := NewReconIndex()
	if kept := r.Render("s", "e1", "s0", "", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 1})}); kept != nil {
		t.Fatal("cold index reported warm")
	}
	if kept := r.Render("s", "e2", "s1", "s0", nil); kept != nil {
		t.Fatal("epoch mismatch reported warm")
	}
	if kept := r.Render("s", "e1", "s1", "s0", nil); kept == nil || keptHash(kept, "e", "a") != 1 {
		t.Fatal("recorded entry not visible")
	}
	if kept := r.Render("s", "e1", "s2", "", nil); kept != nil {
		t.Fatal("an empty base matched an entry")
	}
}

// TestReconIndexKeepsHeldBase: a shipment rendered against base s0 keeps
// s0 diffable, so when its delivery fails the next exchange still diffs
// against what the target holds; once the target names the newer entry,
// the older one goes.
func TestReconIndexKeepsHeldBase(t *testing.T) {
	r := NewReconIndex()
	r.Render("s", "e", "s0", "", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 1})})
	r.Render("s", "e", "s1", "s0", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 2})})
	if held := r.Held("s", "e", "s0"); held == nil || keptHash(held, "e", "a") != 1 {
		t.Fatalf("Held(s0) after a failed delivery: %v", held)
	}
	if kept := r.Render("s", "e", "s2", "s0", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 3})}); kept == nil || keptHash(kept, "e", "a") != 1 {
		t.Fatalf("held base s0 after a failed delivery: kept=%v hash %d, want 1", kept != nil, keptHash(kept, "e", "a"))
	}
	if kept := r.Render("s", "e", "s3", "s2", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 4})}); kept == nil || keptHash(kept, "e", "a") != 3 {
		t.Fatalf("delivered s2: kept=%v hash %d, want 3", kept != nil, keptHash(kept, "e", "a"))
	}
	for _, gone := range []string{"s0", "s1"} {
		if r.Held("s", "e", gone) != nil {
			t.Errorf("Held(%s) found an entry neither held nor newest", gone)
		}
		if kept := r.Render("s", "e", "s9", gone, nil); kept != nil {
			t.Errorf("entry %s, neither held nor newest, survived", gone)
		}
	}
}

// TestReconIndexReusedSessionGoesCold: a render whose session id is the
// held base's (an agency that restarted its session counter) must neither
// diff against that base nor overwrite it — were its delivery to fail, the
// target would still hold the old snapshot under the same name. The key
// goes cold until a fresh full ship lands.
func TestReconIndexReusedSessionGoesCold(t *testing.T) {
	r := NewReconIndex()
	r.Render("s", "e", "s0", "", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 1})})
	if kept := r.Render("s", "e", "s0", "s0", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 2})}); kept != nil {
		t.Fatal("a render under the held base's own id diffed against it")
	}
	if kept := r.Render("s", "e", "s1", "s0", nil); kept != nil {
		t.Fatalf("the reused id's entry stayed diffable (hash %d)", keptHash(kept, "e", "a"))
	}
	// A diff read s2's entry, then s2 was reused and refiled before the
	// diff's own render: the entry that render keeps is not the one read,
	// which is how the source knows to ship cold.
	r.Render("s", "e", "s2", "", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 3})})
	read := r.Held("s", "e", "s2")
	r.Render("s", "e", "s2", "s2", nil)
	r.Render("s", "e", "s2", "", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 4})})
	if kept := r.Render("s", "e", "s3", "s2", nil); kept == nil || kept == read || keptHash(kept, "e", "a") != 4 {
		t.Fatalf("refiled s2: kept=%v same as read=%v", kept != nil, kept == read)
	}
}

// TestReconIndexEpochsApart: one source feeding the same service name to
// two targets (two epochs) keeps both targets' bases.
func TestReconIndexEpochsApart(t *testing.T) {
	r := NewReconIndex()
	r.Render("s", "toA", "a0", "", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 1})})
	r.Render("s", "toB", "b0", "", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 2})})
	if kept := r.Render("s", "toA", "a1", "a0", nil); kept == nil || keptHash(kept, "e", "a") != 1 {
		t.Errorf("target A's base: kept=%v", kept != nil)
	}
	if kept := r.Render("s", "toB", "b1", "b0", nil); kept == nil || keptHash(kept, "e", "a") != 2 {
		t.Errorf("target B's base: kept=%v", kept != nil)
	}
}

// TestReconIndexConcurrent: a source serves one stream's exchanges from
// several goroutines at once; every render against the held base reads
// the entry filed for it, whole, and keeps the very entry Held returned.
func TestReconIndexConcurrent(t *testing.T) {
	r := NewReconIndex()
	r.Render("s", "e", "s0", "", map[string]EdgeHashes{"e": edgeOf(idHash{"a", 0})})
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := "s" + strconv.Itoa(g*1000+i)
				held := r.Held("s", "e", "s0")
				if kept := r.Render("s", "e", id, "s0", map[string]EdgeHashes{"e": edgeOf(idHash{"a", uint64(g)})}); kept == nil || kept != held || keptHash(kept, "e", "a") != 0 {
					t.Errorf("goroutine %d: the kept base read kept=%v same=%v", g, kept != nil, kept == held)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// refHashShipment and refDiffShipment are the map-based reconciliation
// the one-pass DiffShipment replaced: each record hashed in both, the
// base and fresh sets held in Go maps. TestDiffShipmentMatchesReference
// holds the pass to their output.
func refHashShipment(out map[string]*core.Instance) (map[string]map[string]uint64, bool) {
	edges := make(map[string]map[string]uint64, len(out))
	complete := true
	for key, in := range out {
		eh := make(map[string]uint64, len(in.Records))
		for _, rec := range in.Records {
			if rec.ID == "" {
				complete = false
				continue
			}
			eh[rec.ID] = HashRecord(rec)
		}
		edges[key] = eh
	}
	return edges, complete
}

func refDiffShipment(out map[string]*core.Instance, base map[string]map[string]uint64) *Delta {
	d := &Delta{Ship: make(map[string]*core.Instance, len(out)), Tombs: make(map[string][]string)}
	for key, in := range out {
		prev := base[key]
		kept := &core.Instance{Frag: in.Frag}
		fresh := make(map[string]bool, len(in.Records))
		for _, rec := range in.Records {
			fresh[rec.ID] = true
			if h, ok := prev[rec.ID]; ok && h == HashRecord(rec) {
				continue
			}
			kept.Records = append(kept.Records, rec)
		}
		d.Ship[key] = kept
		d.Records += len(kept.Records)
		var dead []string
		for id := range prev {
			if !fresh[id] {
				dead = append(dead, id)
			}
		}
		if len(dead) > 0 {
			sort.Strings(dead)
			d.Tombs[key] = dead
			d.Tombstones += len(dead)
		}
	}
	for key, prev := range base {
		if _, live := out[key]; live || len(prev) == 0 {
			continue
		}
		dead := make([]string, 0, len(prev))
		for id := range prev {
			dead = append(dead, id)
		}
		sort.Strings(dead)
		d.Tombs[key] = dead
		d.Tombstones += len(dead)
	}
	return d
}

// asMap reads an edge's columns back as the reference's map, failing on
// an ID filed twice or one its table does not find.
func asMap(t *testing.T, key string, e EdgeHashes) map[string]uint64 {
	t.Helper()
	if len(e.IDs) != len(e.Hashes) {
		t.Fatalf("edge %s: %d IDs, %d hashes", key, len(e.IDs), len(e.Hashes))
	}
	m := make(map[string]uint64, len(e.IDs))
	for p, id := range e.IDs {
		if _, dup := m[id]; dup {
			t.Fatalf("edge %s: ID %q filed twice", key, id)
		}
		if q := e.find(hashtab.Hash(id), id); q != p {
			t.Fatalf("edge %s: ID %q at %d, table finds %d", key, id, p, q)
		}
		m[id] = e.Hashes[p]
	}
	return m
}

// churnShipment draws a multi-edge shipment. With a previous shipment it
// derives the next one from it: per edge, records kept, changed, deleted,
// added or duplicated under an existing ID, order permuted, whole edges
// emptied or gone, and new edges appearing. Every so often a record has
// no ID.
func churnShipment(rng *rand.Rand, prev map[string]*core.Instance) map[string]*core.Instance {
	rec := func() *xmltree.Node {
		id := ""
		if rng.Intn(40) > 0 {
			id = "r" + strconv.Itoa(rng.Intn(60))
		}
		return reconRec(id, strconv.Itoa(rng.Intn(4)))
	}
	out := map[string]*core.Instance{}
	for key, in := range prev {
		switch rng.Intn(10) {
		case 0:
			continue // vanished
		case 1:
			out[key] = &core.Instance{} // emptied
			continue
		}
		next := &core.Instance{}
		for _, r := range in.Records {
			switch rng.Intn(8) {
			case 0: // deleted
			case 1: // changed
				next.Records = append(next.Records, reconRec(r.ID, "changed"+strconv.Itoa(rng.Intn(3))))
			case 2: // duplicated under its ID, same or other content
				next.Records = append(next.Records, r, reconRec(r.ID, strconv.Itoa(rng.Intn(2))))
			default:
				next.Records = append(next.Records, r)
			}
		}
		for i := rng.Intn(6); i > 0; i-- {
			next.Records = append(next.Records, rec())
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(next.Records), func(i, j int) {
				next.Records[i], next.Records[j] = next.Records[j], next.Records[i]
			})
		}
		out[key] = next
	}
	added := rng.Intn(3)
	if prev == nil {
		added += 1 + rng.Intn(5)
	}
	for ; added > 0; added-- {
		in := &core.Instance{}
		for j := rng.Intn(30); j > 0; j-- {
			in.Records = append(in.Records, rec())
		}
		out["e"+strconv.Itoa(rng.Intn(8))] = in
	}
	return out
}

// TestDiffShipmentMatchesReference: over seeded multi-edge shipments, the
// one-pass DiffShipment ships the same records in the same order, the
// same tombstones and counts, flags the same shipments unkeyed, and files
// the same hash for every ID as the map-based reference.
func TestDiffShipmentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20040330))
	var ship map[string]*core.Instance
	for round := 0; round < 400; round++ {
		if round%25 == 0 {
			ship = nil // start a new stream
		}
		next := churnShipment(rng, ship)
		var base map[string]EdgeHashes
		var refBase map[string]map[string]uint64
		if ship != nil {
			base, _ = HashShipment(ship)
			refBase, _ = refHashShipment(ship)
		}
		d := DiffShipment(next, base)
		want := refDiffShipment(next, refBase)
		refFresh, complete := refHashShipment(next)

		if len(d.Ship) != len(want.Ship) {
			t.Fatalf("round %d: ships %d edges, reference %d", round, len(d.Ship), len(want.Ship))
		}
		for key, w := range want.Ship {
			got := d.Ship[key]
			if got == nil || !slices.Equal(got.Records, w.Records) {
				t.Fatalf("round %d edge %s: ships %v, reference %v", round, key, recIDs(got), recIDs(w))
			}
			if _, warm := base[key]; !warm && got != next[key] {
				t.Fatalf("round %d edge %s: an edge without a base entry was copied", round, key)
			}
		}
		if !reflect.DeepEqual(d.Tombs, want.Tombs) {
			t.Fatalf("round %d: tombstones %v, reference %v", round, d.Tombs, want.Tombs)
		}
		if d.Records != want.Records || d.Tombstones != want.Tombstones {
			t.Fatalf("round %d: %d records %d tombstones, reference %d and %d",
				round, d.Records, d.Tombstones, want.Records, want.Tombstones)
		}
		if d.Unkeyed != !complete {
			t.Fatalf("round %d: unkeyed %v, reference complete %v", round, d.Unkeyed, complete)
		}
		if len(d.Fresh) != len(refFresh) {
			t.Fatalf("round %d: files %d edges, reference %d", round, len(d.Fresh), len(refFresh))
		}
		for key, w := range refFresh {
			if got := asMap(t, key, d.Fresh[key]); !reflect.DeepEqual(got, w) {
				t.Fatalf("round %d edge %s: filed %v, reference %v", round, key, got, w)
			}
		}
		ship = next
	}
}

func recIDs(in *core.Instance) []string {
	if in == nil {
		return nil
	}
	ids := make([]string, len(in.Records))
	for i, r := range in.Records {
		ids[i] = r.ID
	}
	return ids
}

// BenchmarkDiffShipment is a source's warm reconciliation on a 1 % churn
// round: a 2.5 MB XMark document in the most fragmented layout, scanned
// from relstore (≈ 64k records over 24 edges), diffed against the hashes
// of its previous round, with a third each of the churned records deleted,
// changed and added. Its allocations are per edge, not per record.
func BenchmarkDiffShipment(b *testing.B) {
	fr := core.MostFragmented(xmark.Schema())
	st, err := relstore.NewStore(fr)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.LoadDocument(xmark.Generate(xmark.Config{TargetBytes: 2_500_000, Seed: 1})); err != nil {
		b.Fatal(err)
	}
	prev := map[string]*core.Instance{}
	next := map[string]*core.Instance{}
	for _, f := range fr.Fragments {
		in, err := st.ScanFragment(f.Name)
		if err != nil {
			b.Fatal(err)
		}
		prev[f.Name] = in
		churned := &core.Instance{Frag: in.Frag}
		for i, rec := range in.Records {
			switch i % 300 {
			case 0: // deleted
			case 100: // changed
				c := rec.Clone()
				c.Text += " churned"
				churned.Records = append(churned.Records, c)
			case 200: // kept, and a new record added
				c := rec.Clone()
				c.ID += "n"
				churned.Records = append(churned.Records, rec, c)
			default:
				churned.Records = append(churned.Records, rec)
			}
		}
		next[f.Name] = churned
	}
	base, _ := HashShipment(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := DiffShipment(next, base); d.Records == 0 || d.Tombstones == 0 {
			b.Fatalf("churn diffed to %d records, %d tombstones", d.Records, d.Tombstones)
		}
	}
}
