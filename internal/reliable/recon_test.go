package reliable

import (
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"xdx/internal/core"
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

// refHashRecord is the hash/fnv formulation HashRecord was first written
// as; the inlined FNV-1a must stay bit-identical to it.
func refHashRecord(rec *xmltree.Node) uint64 {
	h := fnv.New64a()
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		for _, f := range []string{n.Name, n.ID, n.Parent, n.Text} {
			h.Write([]byte(f))
			h.Write([]byte{0})
		}
		for _, a := range n.Attrs {
			h.Write([]byte(a.Name + "=" + a.Value))
			h.Write([]byte{0})
		}
		h.Write([]byte(strconv.Itoa(len(n.Kids))))
		h.Write([]byte{1})
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(rec)
	return h.Sum64()
}

func TestHashRecordMatchesFNVReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20040330))
	str := func() string {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	var gen func(depth int) *xmltree.Node
	gen = func(depth int) *xmltree.Node {
		n := &xmltree.Node{Name: str(), ID: str(), Parent: str(), Text: str()}
		for i := rng.Intn(3); i > 0; i-- {
			n.Attrs = append(n.Attrs, xmltree.Attr{Name: str(), Value: str()})
		}
		if depth < 4 {
			for i := rng.Intn(13); i > 0; i-- { // two-digit kid counts included
				n.Kids = append(n.Kids, gen(depth+1))
			}
		}
		return n
	}
	for i := 0; i < 200; i++ {
		rec := gen(0)
		if got, want := HashRecord(rec), refHashRecord(rec); got != want {
			t.Fatalf("record %d: HashRecord %#x, hash/fnv reference %#x", i, got, want)
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

func TestHashShipmentFlagsMissingIDs(t *testing.T) {
	edges, ok := HashShipment(reconShipment("e", reconRec("a", "1"), reconRec("b", "2")))
	if !ok || len(edges["e"]) != 2 {
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
	base := map[string]EdgeHashes{"gone": {"x": 1, "y": 2}, "empty": {}}
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
	if _, ok := r.Render("s", "e1", "s0", "", map[string]EdgeHashes{"e": {"a": 1}}); ok {
		t.Fatal("cold index reported warm")
	}
	if _, ok := r.Render("s", "e2", "s1", "s0", nil); ok {
		t.Fatal("epoch mismatch reported warm")
	}
	if snap, ok := r.Render("s", "e1", "s1", "s0", nil); !ok || snap["e"]["a"] != 1 {
		t.Fatal("recorded entry not visible")
	}
	if _, ok := r.Render("s", "e1", "s2", "", nil); ok {
		t.Fatal("an empty base matched an entry")
	}
}

// TestReconIndexKeepsHeldBase: a shipment rendered against base s0 keeps
// s0 diffable, so when its delivery fails the next exchange still diffs
// against what the target holds; once the target names the newer entry,
// the older one goes.
func TestReconIndexKeepsHeldBase(t *testing.T) {
	r := NewReconIndex()
	r.Render("s", "e", "s0", "", map[string]EdgeHashes{"e": {"a": 1}})
	r.Render("s", "e", "s1", "s0", map[string]EdgeHashes{"e": {"a": 2}})
	if snap, ok := r.Render("s", "e", "s2", "s0", map[string]EdgeHashes{"e": {"a": 3}}); !ok || snap["e"]["a"] != 1 {
		t.Fatalf("held base s0 after a failed delivery: ok=%v hash %d, want 1", ok, snap["e"]["a"])
	}
	if snap, ok := r.Render("s", "e", "s3", "s2", map[string]EdgeHashes{"e": {"a": 4}}); !ok || snap["e"]["a"] != 3 {
		t.Fatalf("delivered s2: ok=%v hash %d, want 3", ok, snap["e"]["a"])
	}
	for _, gone := range []string{"s0", "s1"} {
		if _, ok := r.Render("s", "e", "s9", gone, nil); ok {
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
	r.Render("s", "e", "s0", "", map[string]EdgeHashes{"e": {"a": 1}})
	if _, ok := r.Render("s", "e", "s0", "s0", map[string]EdgeHashes{"e": {"a": 2}}); ok {
		t.Fatal("a render under the held base's own id diffed against it")
	}
	if snap, ok := r.Render("s", "e", "s1", "s0", nil); ok {
		t.Fatalf("the reused id's entry stayed diffable (hash %d)", snap["e"]["a"])
	}
}

// TestReconIndexEpochsApart: one source feeding the same service name to
// two targets (two epochs) keeps both targets' bases.
func TestReconIndexEpochsApart(t *testing.T) {
	r := NewReconIndex()
	r.Render("s", "toA", "a0", "", map[string]EdgeHashes{"e": {"a": 1}})
	r.Render("s", "toB", "b0", "", map[string]EdgeHashes{"e": {"a": 2}})
	if snap, ok := r.Render("s", "toA", "a1", "a0", nil); !ok || snap["e"]["a"] != 1 {
		t.Errorf("target A's base: ok=%v", ok)
	}
	if snap, ok := r.Render("s", "toB", "b1", "b0", nil); !ok || snap["e"]["a"] != 2 {
		t.Errorf("target B's base: ok=%v", ok)
	}
}

// TestReconIndexConcurrent: a source serves one stream's exchanges from
// several goroutines at once; every render against the held base reads
// the entry filed for it, whole.
func TestReconIndexConcurrent(t *testing.T) {
	r := NewReconIndex()
	r.Render("s", "e", "s0", "", map[string]EdgeHashes{"e": {"a": 0}})
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := "s" + strconv.Itoa(g*1000+i)
				if snap, ok := r.Render("s", "e", id, "s0", map[string]EdgeHashes{"e": {"a": uint64(g)}}); !ok || snap["e"]["a"] != 0 {
					t.Errorf("goroutine %d: the kept base read ok=%v", g, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
