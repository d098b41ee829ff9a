package core

// Chained-combine micro-benchmark: a wide root with k repeated leaf
// children, fragmented one fragment per child, merged back with k Combines.
// The legacy Combine re-indexed the whole accumulated parent instance on
// every call — O(k·N) node visits for the chain — while the incremental
// join index visits each node once. combineRewalk below is a verbatim copy
// of the legacy operator so one benchmark run yields both sides of the
// comparison.

import (
	"fmt"
	"sort"
	"testing"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// chainFixture builds a schema root -> a1*..ak*, a fragmentation with one
// fragment per element, and a document with reps records per child. With
// spread, the children hang one each under reps repeated mid elements
// instead (root -> mid* -> a1..ak), so every attach lands on a different
// parent instance and a per-attach allocation cannot hide behind one big
// amortised kid slice.
func chainFixture(b *testing.B, k, reps int, spread bool) (*Fragmentation, *xmltree.Node) {
	b.Helper()
	root := schema.Elem("root")
	hub, hubs := root, 1
	parts := [][]string{{"root"}}
	if spread {
		hub, hubs = schema.Elem("mid"), reps
		root.Children = append(root.Children, schema.Rep(hub))
		parts[0] = append(parts[0], "mid")
	}
	for i := 1; i <= k; i++ {
		name := fmt.Sprintf("a%d", i)
		child := schema.Elem(name)
		if !spread {
			child = schema.Rep(child)
		}
		hub.Children = append(hub.Children, child)
		parts = append(parts, []string{name})
	}
	sch := schema.MustNew(root)
	fr, err := FromPartition(sch, "chain", parts)
	if err != nil {
		b.Fatal(err)
	}
	doc := &xmltree.Node{Name: "root"}
	for h := 0; h < hubs; h++ {
		at := doc
		if spread {
			at = &xmltree.Node{Name: "mid"}
			doc.AddKid(at)
		}
		for i := 1; i <= k; i++ {
			for r := 0; r < reps/hubs; r++ {
				at.AddKid(&xmltree.Node{Name: fmt.Sprintf("a%d", i), Text: "x"})
			}
		}
	}
	AssignIDs(doc)
	return fr, doc
}

func benchChain(b *testing.B, k int, spread bool, combine func(*schema.Schema, *Instance, *Instance) (*Instance, error)) {
	fr, doc := chainFixture(b, k, 200, spread)
	sch := fr.Schema
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sources, err := FromDocument(fr, doc)
		if err != nil {
			b.Fatal(err)
		}
		cur := sources[fr.Fragments[0].Name]
		b.StartTimer()
		for _, f := range fr.Fragments[1:] {
			cur, err = combine(sch, cur, sources[f.Name])
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkChainedCombine(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("incremental/k=%d", k), func(b *testing.B) {
			benchChain(b, k, false, Combine)
		})
		b.Run(fmt.Sprintf("rewalk/k=%d", k), func(b *testing.B) {
			benchChain(b, k, false, combineRewalk)
		})
	}
	// The row scripts/alloc_smoke.sh gates: 8 Combines of 200 one-to-one
	// attaches each, every one under a parent of its own.
	b.Run("spread/k=8", func(b *testing.B) {
		benchChain(b, 8, true, Combine)
	})
}

// combineRewalk is the pre-incremental-index Combine, kept verbatim as the
// benchmark baseline: it rebuilds the hash index over every parent record
// on each call and rebuilds the schema-order map per touched parent.
func combineRewalk(sch *schema.Schema, parent, child *Instance) (*Instance, error) {
	joinElems := sch.Parents(child.Frag.Root)
	if len(joinElems) == 0 {
		return nil, fmt.Errorf("core: cannot combine %q into %q: %q is the schema root", child.Frag.Name, parent.Frag.Name, child.Frag.Root)
	}
	for _, p := range joinElems {
		if !parent.Frag.Elems[p] {
			return nil, fmt.Errorf("core: cannot combine %q into %q: parent element %q of %q missing", child.Frag.Name, parent.Frag.Name, p, child.Frag.Root)
		}
	}
	joinable := make(map[string]bool, len(joinElems))
	for _, e := range joinElems {
		joinable[e] = true
	}
	idx := make(map[string]*xmltree.Node)
	var index func(n *xmltree.Node)
	index = func(n *xmltree.Node) {
		if joinable[n.Name] {
			idx[n.ID] = n
		}
		for _, k := range n.Kids {
			index(k)
		}
	}
	for _, r := range parent.Records {
		index(r)
	}
	touched := make(map[*xmltree.Node]bool)
	for _, rec := range child.Records {
		p := idx[rec.Parent]
		if p == nil {
			return nil, fmt.Errorf("core: combine %q into %q: orphan record %s (parent %s not found)",
				child.Frag.Name, parent.Frag.Name, rec.ID, rec.Parent)
		}
		p.AddKid(rec)
		touched[p] = true
	}
	for p := range touched {
		order := make(map[string]int)
		for i, c := range sch.AllChildren(p.Name) {
			order[c] = i
		}
		sort.SliceStable(p.Kids, func(i, j int) bool {
			return order[p.Kids[i].Name] < order[p.Kids[j].Name]
		})
	}
	merged, err := mergeFragments(sch, parent.Frag, child.Frag)
	if err != nil {
		return nil, err
	}
	return &Instance{Frag: merged, Records: parent.Records}, nil
}

// Sanity: the baseline copy and the incremental operator agree, so the
// benchmark compares equal work.
func TestCombineRewalkMatchesCombine(t *testing.T) {
	sch := customerSchema()
	fr, err := FromPartition(sch, "S", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName", "Line", "TelNo", "Switch", "SwitchID", "Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(combine func(*schema.Schema, *Instance, *Instance) (*Instance, error)) *Instance {
		sources, err := FromDocument(fr, customerDoc())
		if err != nil {
			t.Fatal(err)
		}
		cur := sources[fr.Fragments[0].Name]
		for _, f := range fr.Fragments[1:] {
			cur, err = combine(sch, cur, sources[f.Name])
			if err != nil {
				t.Fatal(err)
			}
		}
		return cur
	}
	a, bst := run(Combine), run(combineRewalk)
	if a.Rows() != bst.Rows() {
		t.Fatalf("row mismatch: %d vs %d", a.Rows(), bst.Rows())
	}
	for i := range a.Records {
		if !xmltree.EqualShape(a.Records[i], bst.Records[i]) {
			t.Fatalf("record %d differs between incremental and rewalk combine", i)
		}
	}
}
