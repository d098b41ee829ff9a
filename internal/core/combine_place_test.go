package core

// Combine keeps Definition 3.7's child order by placing each child at its
// schema position as it is attached. The Combine it replaced appended every
// child and then stably re-sorted the kids of every parent it had touched;
// that algorithm is kept here as the reference. The two agree because of
// one invariant, which these tests assert rather than hide behind a
// re-sort: records enter a Combine with every node's kids already in
// schema order. Every producer guarantees it — a store Scan builds kids by
// walking the schema, a shipment decoder rebuilds what such a producer
// encoded, Split projects kids in their input order, and a Combine (by
// induction) hands on what it placed.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// combineSortRef is the reference: append each child under its parent
// instance, then stably sort the kids of every touched parent into schema
// order. It mutates parent's records and embeds child's, so callers hand it
// clones.
func combineSortRef(sch *schema.Schema, parent, child *Instance) (*Instance, error) {
	type nodeKey struct{ name, id string }
	idx := make(map[nodeKey]*xmltree.Node)
	var index func(n *xmltree.Node)
	index = func(n *xmltree.Node) {
		idx[nodeKey{name: n.Name, id: n.ID}] = n
		for _, k := range n.Kids {
			index(k)
		}
	}
	for _, r := range parent.Records {
		index(r)
	}
	touched := make(map[*xmltree.Node]bool)
	for _, rec := range child.Records {
		var p *xmltree.Node
		for _, je := range sch.Parents(rec.Name) {
			if p = idx[nodeKey{name: je, id: rec.Parent}]; p != nil {
				break
			}
		}
		if p == nil {
			return nil, fmt.Errorf("reference combine: orphan %s %s (parent %s)", rec.Name, rec.ID, rec.Parent)
		}
		p.AddKid(rec)
		index(rec)
		touched[p] = true
	}
	for p := range touched {
		order := sch.ChildOrderMap(p.Name)
		sort.SliceStable(p.Kids, func(i, j int) bool { return order[p.Kids[i].Name] < order[p.Kids[j].Name] })
	}
	merged, err := mergeFragments(sch, parent.Frag, child.Frag)
	if err != nil {
		return nil, err
	}
	return &Instance{Frag: merged, Records: parent.Records}, nil
}

// assertSchemaOrder fails the test if any node of the instance has kids out
// of schema order — the invariant placement rests on.
func assertSchemaOrder(t *testing.T, sch *schema.Schema, in *Instance, what string) {
	t.Helper()
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		order := sch.ChildOrderMap(n.Name)
		for i, k := range n.Kids {
			if i > 0 && order[k.Name] < order[n.Kids[i-1].Name] {
				t.Fatalf("%s: %s %s has %s after %s: kids out of schema order", what, n.Name, n.ID, k.Name, n.Kids[i-1].Name)
			}
			walk(k)
		}
	}
	for _, r := range in.Records {
		walk(r)
	}
}

func equalInstances(a, b *Instance) bool {
	if len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if !xmltree.Equal(a.Records[i], b.Records[i]) {
			return false
		}
	}
	return true
}

// randomDocAllParents is randomDoc for schemas with multi-parent elements:
// it follows AllChildren, so XMark's item occurs under all six regions, not
// only its primary one.
func randomDocAllParents(sch *schema.Schema, rng *rand.Rand, maxRep int) *xmltree.Node {
	var build func(name string) *xmltree.Node
	build = func(name string) *xmltree.Node {
		e := &xmltree.Node{Name: name}
		kids := sch.AllChildren(name)
		if len(kids) == 0 {
			e.Text = fmt.Sprintf("v%d", rng.Intn(1000))
		}
		for _, c := range kids {
			reps := 1
			if sch.ByName(c).Repeated {
				reps = rng.Intn(maxRep + 1) // zero occurrences too
			}
			for i := 0; i < reps; i++ {
				e.AddKid(build(c))
			}
		}
		return e
	}
	doc := build(sch.Root().Name)
	AssignIntIDs(doc)
	return doc
}

// placementCases are the schemas the placement tests draw from: balanced
// trees of repeated elements, the paper's CustomerInfo, and the Figure 7
// auction DTD XMark documents conform to, whose item has six parents.
func placementCases() map[string]*schema.Schema {
	return map[string]*schema.Schema{
		"balanced-2x3": schema.Balanced(2, 3),
		"balanced-3x2": schema.Balanced(3, 2),
		"customer":     schema.CustomerInfo(),
		"auction":      schema.Auction(),
	}
}

// Combine by placement equals the append-then-sort reference, whatever
// order the fragments of a random fragmentation are merged back in
// (top-down, bottom-up, out of schema order), over Clones of the
// fragments' instances — whose origins must come through untouched.
func TestCombinePlacementMatchesSortReference(t *testing.T) {
	for name, sch := range placementCases() {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			doc := randomDocAllParents(sch, rng, 3)
			fr := Random(sch, rng, 2+rng.Intn(len(sch.Names())-1))
			origin, err := FromDocument(fr, doc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			var pristine, owned, ref []*Instance
			for _, f := range fr.Fragments {
				in := origin[f.Name]
				pristine = append(pristine, in.Clone())
				owned = append(owned, in.Clone())
				ref = append(ref, in.Clone())
			}
			what := fmt.Sprintf("%s seed %d (%d fragments)", name, seed, len(fr.Fragments))
			for len(owned) > 1 {
				// Any structurally legal (parent, child) pair may go next.
				var pairs [][2]int
				for i := range owned {
					for j := range owned {
						if i != j && combinableFrags(sch, owned[i].Frag, owned[j].Frag) {
							pairs = append(pairs, [2]int{i, j})
						}
					}
				}
				if len(pairs) == 0 {
					t.Fatalf("%s: no combinable pair among %d instances", what, len(owned))
				}
				pc := pairs[rng.Intn(len(pairs))]
				p, c := pc[0], pc[1]
				assertSchemaOrder(t, sch, owned[p], what+": parent input")
				assertSchemaOrder(t, sch, owned[c], what+": child input")
				for _, pool := range []*[]*Instance{&owned, &ref} {
					combine := Combine
					if pool == &ref {
						combine = combineSortRef
					}
					merged, err := combine(sch, (*pool)[p], (*pool)[c])
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					(*pool)[p] = merged
					*pool = append((*pool)[:c], (*pool)[c+1:]...)
				}
				if p > c {
					p--
				}
				if !equalInstances(owned[p], ref[p]) {
					t.Fatalf("%s: Combine differs from the reference", what)
				}
			}
			if len(owned[0].Records) != 1 || !xmltree.Equal(owned[0].Records[0], doc) {
				t.Errorf("%s: the merged fragments are not the document", what)
			}
			for i, f := range fr.Fragments {
				if !equalInstances(origin[f.Name], pristine[i]) {
					t.Errorf("%s: Combine over a Clone mutated its origin %q", what, f.Name)
				}
			}
		}
	}
}

// Execute, over programs generated for random fragmentation pairs, writes
// exactly what splitting the document by the target fragmentation yields —
// an oracle that never runs a Combine — record for record, child order
// included.
func TestExecutorsPlaceChildrenInSchemaOrder(t *testing.T) {
	byID := func(in *Instance) map[string]*xmltree.Node {
		m := make(map[string]*xmltree.Node, len(in.Records))
		for _, r := range in.Records {
			m[r.ID] = r
		}
		return m
	}
	for name, sch := range placementCases() {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			doc := randomDocAllParents(sch, rng, 3)
			src := Random(sch, rng, 2+rng.Intn(len(sch.Names())-1))
			tgt := Random(sch, rng, 1+rng.Intn(4))
			m, err := NewMapping(src, tgt)
			if err != nil {
				t.Fatal(err)
			}
			progs, err := generate(m, maxTreesPerTarget, 4)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			want, err := FromDocument(tgt, doc)
			if err != nil {
				t.Fatal(err)
			}
			for pi, g := range progs {
				srcs, err := FromDocument(src, doc)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Execute(g, sch, srcs)
				if err != nil {
					t.Fatalf("%s seed %d program %d: %v", name, seed, pi, err)
				}
				for _, f := range tgt.Fragments {
					got := res.Written[f.Name]
					if got == nil || got.Rows() != want[f.Name].Rows() {
						t.Fatalf("%s seed %d program %d: fragment %q: wrote %v, want %d records", name, seed, pi, f.Name, got, want[f.Name].Rows())
					}
					gotByID := byID(got)
					for _, w := range want[f.Name].Records {
						if !xmltree.Equal(gotByID[w.ID], w) {
							t.Fatalf("%s seed %d program %d: fragment %q record %s differs from the split document", name, seed, pi, f.Name, w.ID)
						}
					}
				}
			}
		}
	}
}

// 4,096 one-to-one child records attach for a constant number of heap
// objects plus the arena's slab refills — not one grown kid slice per
// attach, which is what appending to exact-capacity kid slices cost.
func TestCombineAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are not exact under -race")
	}
	sch := schema.MustNew(schema.Elem("root",
		schema.Rep(schema.Elem("mid", schema.Elem("a"), schema.Elem("b")))))
	fr, err := FromPartition(sch, "one-to-one", [][]string{{"root", "mid", "a"}, {"b"}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	doc := &xmltree.Node{Name: "root"}
	for i := 0; i < n; i++ {
		doc.AddKid(&xmltree.Node{Name: "mid", Kids: []*xmltree.Node{{Name: "a", Text: "x"}, {Name: "b", Text: "y"}}})
	}
	AssignIntIDs(doc)
	// Every Combine consumes its inputs, so each measured run (and
	// AllocsPerRun's warm-up) gets a fixture of its own, indexed up front
	// the way a chained Combine inherits its parent's index.
	const runs = 3
	var fixtures [][2]*Instance
	for i := 0; i <= runs; i++ {
		insts, err := FromDocument(fr, doc)
		if err != nil {
			t.Fatal(err)
		}
		parent, child := insts[fr.Fragments[0].Name], insts[fr.Fragments[1].Name]
		if child.Rows() != n {
			t.Fatalf("fixture has %d child records, want %d", child.Rows(), n)
		}
		parent.ensureIndex(sch)
		fixtures = append(fixtures, [2]*Instance{parent, child})
	}
	allocs := testing.AllocsPerRun(runs, func() {
		f := fixtures[0]
		fixtures = fixtures[1:]
		merged, err := Combine(sch, f[0], f[1])
		if err != nil || len(merged.Records[0].Kids[n-1].Kids) != 2 {
			t.Fatalf("combine: %v", err)
		}
	})
	if allocs > 64 {
		t.Errorf("Combine of %d one-to-one child records made %.0f allocations, want a constant plus slab refills (<= 64)", n, allocs)
	}
	t.Logf("%d attaches: %.0f allocations", n, allocs)
}
