package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// copySplit is Split as it used to run: every projected record a fresh
// copy of the input's nodes, nested subtrees rooted in other parts emitted
// before the record that held them, the input only read. Unlike the old
// Split it keeps each node's generic attributes, as the cutting Split
// does.
func copySplit(in *core.Instance, parts []*core.Fragment) [][]*xmltree.Node {
	partOf, index := map[string]int{}, map[string]int{}
	for i, p := range parts {
		index[p.Root] = i
		for e := range p.Elems {
			partOf[e] = i
		}
	}
	out := make([][]*xmltree.Node, len(parts))
	var walk func(n *xmltree.Node) *xmltree.Node
	walk = func(n *xmltree.Node) *xmltree.Node {
		cp := &xmltree.Node{Name: n.Name, ID: n.ID, Parent: n.Parent, Text: n.Text, Attrs: n.Attrs}
		for _, k := range n.Kids {
			kc := walk(k)
			if partOf[k.Name] == partOf[n.Name] {
				cp.AddKid(kc)
			} else {
				out[index[k.Name]] = append(out[index[k.Name]], kc)
			}
		}
		return cp
	}
	for _, rec := range in.Records {
		cp := walk(rec)
		out[index[rec.Name]] = append(out[index[rec.Name]], cp)
	}
	return out
}

// balancedDoc is a random document over sch, every repeated element
// occurring up to three times, integer IDs assigned.
func balancedDoc(sch *schema.Schema, rng *rand.Rand) *xmltree.Node {
	var build func(n *schema.Node) *xmltree.Node
	build = func(n *schema.Node) *xmltree.Node {
		e := &xmltree.Node{Name: n.Name}
		if n.IsLeaf() {
			e.Text = fmt.Sprintf("v%d", rng.Intn(1000))
		}
		for _, c := range n.Children {
			reps := 1
			if c.Repeated {
				reps = rng.Intn(4)
			}
			for i := 0; i < reps; i++ {
				e.AddKid(build(c))
			}
		}
		return e
	}
	doc := build(sch.Root())
	core.AssignIntIDs(doc)
	return doc
}

// withAttrs gives about a third of doc's nodes a generic attribute.
func withAttrs(doc *xmltree.Node, rng *rand.Rand) *xmltree.Node {
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if rng.Intn(3) == 0 {
			n.SetAttr("a", fmt.Sprintf("g%d", rng.Intn(1000)))
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(doc)
	return doc
}

// splitCase is one Split input: an instance and the parts that partition
// its fragment.
type splitCase struct {
	what  string
	in    *core.Instance
	parts []*core.Fragment
}

// splitCases splits doc two ways: its LF instances each into the MF
// fragments inside them (many records per input), and the whole document
// into a random fragmentation (one record holding everything).
func splitCases(t *testing.T, sch *schema.Schema, doc *xmltree.Node, rng *rand.Rand) []splitCase {
	t.Helper()
	lf, mf := core.LeastFragmented(sch), core.MostFragmented(sch)
	insts, err := core.FromDocument(lf, doc)
	if err != nil {
		t.Fatal(err)
	}
	var cases []splitCase
	for _, f := range lf.Fragments {
		var parts []*core.Fragment
		for _, p := range mf.Fragments {
			if f.Elems[p.Root] {
				parts = append(parts, p)
			}
		}
		cases = append(cases, splitCase{"LF " + f.Name + " into MF", insts[f.Name], parts})
	}
	whole, err := core.NewFragment(sch, "", sch.Names())
	if err != nil {
		t.Fatal(err)
	}
	fr := core.Random(sch, rng, 2+rng.Intn(len(sch.Names())-1))
	doc = doc.Clone()
	cases = append(cases, splitCase{fmt.Sprintf("document into %d random fragments", fr.Len()),
		&core.Instance{Frag: whole, Records: []*xmltree.Node{doc}}, fr.Fragments})
	return cases
}

// sameRecords fails unless got lists want's records, in order, generic
// attributes included.
func sameRecords(t *testing.T, what string, got []*core.Instance, want [][]*xmltree.Node) {
	t.Helper()
	for i := range want {
		if len(got[i].Records) != len(want[i]) {
			t.Fatalf("%s: part %s has %d records, the copy %d", what, got[i].Frag.Name, len(got[i].Records), len(want[i]))
		}
		for j, rec := range want[i] {
			g := xmltree.Marshal(got[i].Records[j], xmltree.WriteOptions{EmitAllIDs: true})
			w := xmltree.Marshal(rec, xmltree.WriteOptions{EmitAllIDs: true})
			if !xmltree.Equal(got[i].Records[j], rec) || g != w {
				t.Fatalf("%s: part %s record %d = %s, the copy %s", what, got[i].Frag.Name, j, g, w)
			}
		}
	}
}

// Split cuts the records it is given in place: over seeded XMark and
// balanced documents, a third of whose nodes carry a generic attribute, its
// output equals the copying Split's record for record, in the same order
// and attributes kept, and splitting a Clone leaves its origin unchanged.
func TestSplitCutMatchesCopy(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs := map[*schema.Schema]*xmltree.Node{
			xmark.Schema(): withAttrs(xmark.Generate(xmark.Config{TargetBytes: 50_000, Seed: seed}), rng),
		}
		for _, sch := range []*schema.Schema{schema.Balanced(2, 3), schema.Balanced(3, 2), schema.Balanced(3, 3)} {
			docs[sch] = withAttrs(balancedDoc(sch, rng), rng)
		}
		for sch, doc := range docs {
			for _, c := range splitCases(t, sch, doc, rng) {
				what := fmt.Sprintf("seed %d, %s", seed, c.what)
				want := copySplit(c.in, c.parts)
				pristine := make([]*xmltree.Node, len(c.in.Records))
				for i, rec := range c.in.Records {
					pristine[i] = rec.Clone()
				}
				got, err := core.Split(sch, c.in.Clone(), c.parts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameRecords(t, what+" (clone)", got, want)
				for i, rec := range c.in.Records {
					if !xmltree.Equal(rec, pristine[i]) {
						t.Fatalf("%s: splitting a Clone changed its origin's record %d", what, i)
					}
				}
				got, err = core.Split(sch, c.in, c.parts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameRecords(t, what+" (owned)", got, want)
			}
		}
	}
}
