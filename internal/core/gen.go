package core

import (
	"fmt"
	"sort"
	"strings"
)

// Enumeration caps: §4.2 notes exhaustive generation is prohibitive for
// large schemas; these keep it usable while leaving the enumeration
// exhaustive for the paper-scale inputs.
const (
	maxTreesPerTarget = 2000 // combine orderings per target fragment
	maxPrograms       = 5000 // programs from the product across targets
)

// skeleton is the intermediate graph G1 of §4.2 in symbolic form: scans,
// splits and the fragments each target is built from, before combine
// ordering.
type skeleton struct {
	m *Mapping
	// sources lists the source fragments in order.
	sources []*Fragment
	// pieces[s.Name] are the split outputs of source fragment s (nil when s
	// is consumed whole).
	pieces map[string][]*Fragment
	// contribs[t.Name] are the fragments contributed to target t: source
	// fragments consumed whole and split pieces.
	contribs map[string][]*Fragment
}

// buildSkeleton computes G0 plus the Split augmentation step of §4.2.
func buildSkeleton(m *Mapping) (*skeleton, error) {
	sk := &skeleton{
		m:        m,
		pieces:   make(map[string][]*Fragment),
		contribs: make(map[string][]*Fragment),
	}
	targetOf := func(f *Fragment) *Fragment {
		// All elements of a piece lie in one target fragment by
		// construction; use the root.
		return m.Target.FragmentOf(f.Root)
	}
	for _, s := range m.Source.Fragments {
		ps, err := m.Pieces(s)
		if err != nil {
			return nil, err
		}
		if len(ps) == 1 && ps[0] == s {
			t := targetOf(s)
			sk.contribs[t.Name] = append(sk.contribs[t.Name], s)
		} else {
			sk.pieces[s.Name] = ps
			for _, p := range ps {
				t := targetOf(p)
				sk.contribs[t.Name] = append(sk.contribs[t.Name], p)
			}
		}
		sk.sources = append(sk.sources, s)
	}
	return sk, nil
}

// mergeTree is a binary combine ordering over a target's contributed
// fragments. A leaf holds an index into them; an internal node is
// Combine(left, right) with right inlined into left.
type mergeTree struct {
	leaf        int // contributed fragment index, -1 for internal nodes
	left, right *mergeTree
	frag        *Fragment // fragment produced by this subtree
	parents     []string  // every schema parent of frag's root, resolved per leaf
}

func (t *mergeTree) signature() string {
	if t.leaf >= 0 {
		return fmt.Sprintf("p%d", t.leaf)
	}
	return "(" + t.left.signature() + "+" + t.right.signature() + ")"
}

// combinable reports whether Combine(a, b) is legal: every possible schema
// parent of b's root lies inside a (the paper's parent/child join
// condition, strengthened for multi-parent elements so no record can be
// orphaned). The merged fragment keeps a's root.
func combinable(a, b *mergeTree) bool {
	if len(b.parents) == 0 {
		return false
	}
	for _, p := range b.parents {
		if !a.frag.Elems[p] {
			return false
		}
	}
	return true
}

// enumerateTrees returns up to cap distinct combine orderings for the two
// or more fragments contributed to one target. The first returned tree is
// the canonical greedy-left ordering (combine in schema pre-order of piece
// roots), which matches the shapes drawn in Figure 8.
func (sk *skeleton) enumerateTrees(contribs []*Fragment, cap int) ([]*mergeTree, error) {
	leaves := make([]*mergeTree, len(contribs))
	for i, c := range contribs {
		leaves[i] = &mergeTree{leaf: i, frag: c, parents: sk.m.Source.Schema.Parents(c.Root)}
	}
	var out []*mergeTree
	seenResult := make(map[string]bool)
	seenState := make(map[string]bool)
	var rec func(cur []*mergeTree) error
	rec = func(cur []*mergeTree) error {
		if len(out) >= cap {
			return nil
		}
		if len(cur) == 1 {
			sig := cur[0].signature()
			if !seenResult[sig] {
				seenResult[sig] = true
				out = append(out, cur[0])
			}
			return nil
		}
		sigs := make([]string, len(cur))
		for i, t := range cur {
			sigs[i] = t.signature()
		}
		sort.Strings(sigs)
		state := strings.Join(sigs, "|")
		if seenState[state] {
			return nil
		}
		seenState[state] = true
		merged := false
		for i := 0; i < len(cur) && len(out) < cap; i++ {
			for j := 0; j < len(cur) && len(out) < cap; j++ {
				if i == j {
					continue
				}
				a, b := cur[i], cur[j]
				if !combinable(a, b) {
					continue
				}
				mergedFrag, err := mergeFragments(sk.m.Source.Schema, a.frag, b.frag)
				if err != nil {
					return err
				}
				node := &mergeTree{leaf: -1, left: a, right: b, frag: mergedFrag, parents: a.parents}
				next := make([]*mergeTree, 0, len(cur)-1)
				for k, t := range cur {
					if k != i && k != j {
						next = append(next, t)
					}
				}
				// Keep pre-order determinism: the merged node takes the
				// earlier position.
				pos := i
				if j < i {
					pos = j
				}
				next = append(next, nil)
				copy(next[pos+1:], next[pos:])
				next[pos] = node
				merged = true
				if err := rec(next); err != nil {
					return err
				}
			}
		}
		if !merged {
			return fmt.Errorf("core: contributed fragments cannot be combined into one fragment (disconnected pieces)")
		}
		return nil
	}
	if err := rec(leaves); err != nil {
		return nil, err
	}
	return out, nil
}

// assemble builds a concrete program Graph from the skeleton and one chosen
// combine ordering per target (keyed by target fragment name; targets with
// a single contributed fragment need no entry).
func (sk *skeleton) assemble(trees map[string]*mergeTree) (*Graph, error) {
	g := NewGraph()
	scanOps := make(map[string]*Op, len(sk.sources))
	producer := make(map[string]producerRef) // piece name -> op and fragment
	for _, s := range sk.sources {
		scanOps[s.Name] = g.AddOp(OpScan, s)
	}
	for _, s := range sk.sources {
		ps := sk.pieces[s.Name]
		if ps == nil {
			producer[s.Name] = producerRef{op: scanOps[s.Name], frag: s}
			continue
		}
		split := g.AddOp(OpSplit, s, ps...)
		g.Connect(scanOps[s.Name], split, s)
		for _, p := range ps {
			producer[p.Name] = producerRef{op: split, frag: p}
		}
	}
	for _, t := range sk.m.Target.Fragments {
		contribs := sk.contribs[t.Name]
		var src producerRef
		if len(contribs) == 1 {
			src = producer[contribs[0].Name]
		} else {
			tree := trees[t.Name]
			if tree == nil {
				return nil, fmt.Errorf("core: missing combine ordering for target %q", t.Name)
			}
			op, frag, err := sk.emitTree(g, tree, contribs, producer)
			if err != nil {
				return nil, err
			}
			src = producerRef{op: op, frag: frag}
		}
		if !src.frag.SameElems(t) {
			return nil, fmt.Errorf("core: target %q assembled from %q which does not match", t.Name, src.frag.Name)
		}
		w := g.AddOp(OpWrite, t)
		g.Connect(src.op, w, src.frag)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

type producerRef struct {
	op   *Op
	frag *Fragment
}

func (sk *skeleton) emitTree(g *Graph, t *mergeTree, contribs []*Fragment, producer map[string]producerRef) (*Op, *Fragment, error) {
	if t.leaf >= 0 {
		ref, ok := producer[contribs[t.leaf].Name]
		if !ok {
			return nil, nil, fmt.Errorf("core: no producer for piece %q", contribs[t.leaf].Name)
		}
		return ref.op, ref.frag, nil
	}
	lop, lfrag, err := sk.emitTree(g, t.left, contribs, producer)
	if err != nil {
		return nil, nil, err
	}
	rop, rfrag, err := sk.emitTree(g, t.right, contribs, producer)
	if err != nil {
		return nil, nil, err
	}
	c := g.AddOp(OpCombine, t.frag)
	g.Connect(lop, c, lfrag)
	g.Connect(rop, c, rfrag)
	return c, t.frag, nil
}

// GeneratePrograms enumerates data-transfer programs for the mapping, one
// per combination of combine orderings (§4.2), up to the enumeration caps.
// The first program uses the canonical ordering for every target.
func GeneratePrograms(m *Mapping) ([]*Graph, error) {
	return generate(m, maxTreesPerTarget, maxPrograms)
}

// generate enumerates up to progs programs, the product of each target's
// combine orderings in order, with up to trees orderings per target.
func generate(m *Mapping, trees, progs int) ([]*Graph, error) {
	sk, err := buildSkeleton(m)
	if err != nil {
		return nil, err
	}
	type targetTrees struct {
		name  string
		trees []*mergeTree
	}
	var multi []targetTrees
	for _, t := range sk.m.Target.Fragments {
		contribs := sk.contribs[t.Name]
		if len(contribs) <= 1 {
			continue
		}
		ts, err := sk.enumerateTrees(contribs, trees)
		if err != nil {
			return nil, fmt.Errorf("core: target %q: %w", t.Name, err)
		}
		multi = append(multi, targetTrees{name: t.Name, trees: ts})
	}
	choice := make(map[string]*mergeTree, len(multi))
	var out []*Graph
	var product func(i int) error
	product = func(i int) error {
		if i == len(multi) {
			g, err := sk.assemble(choice)
			if err != nil {
				return err
			}
			out = append(out, g)
			return nil
		}
		for _, tr := range multi[i].trees {
			if len(out) >= progs {
				return nil
			}
			choice[multi[i].name] = tr
			if err := product(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := product(0); err != nil {
		return nil, err
	}
	return out, nil
}

// CanonicalProgram builds the first program GeneratePrograms returns: the
// first (pre-order, left-deep) combine ordering for every target — the
// shape of Figure 8.
func CanonicalProgram(m *Mapping) (*Graph, error) {
	progs, err := generate(m, 1, 1)
	if err != nil {
		return nil, err
	}
	return progs[0], nil
}

// GreedyProgram builds one program by adding combines cheapest-first
// (§4.3), costing each candidate as if executed at the source.
func GreedyProgram(m *Mapping, provider *StatsProvider) (*Graph, error) {
	sk, err := buildSkeleton(m)
	if err != nil {
		return nil, err
	}
	choice := make(map[string]*mergeTree)
	for _, t := range m.Target.Fragments {
		contribs := sk.contribs[t.Name]
		if len(contribs) <= 1 {
			continue
		}
		cur := make([]*mergeTree, len(contribs))
		for i, c := range contribs {
			cur[i] = &mergeTree{leaf: i, frag: c, parents: m.Source.Schema.Parents(c.Root)}
		}
		for len(cur) > 1 {
			bestI, bestJ := -1, -1
			bestCost := 0.0
			for i := range cur {
				for j := range cur {
					if i == j || !combinable(cur[i], cur[j]) {
						continue
					}
					c := provider.CompCost(OpCombine, provider.FragBytes(cur[i].frag)+provider.FragBytes(cur[j].frag), nil, LocSource)
					if bestI < 0 || c < bestCost {
						bestI, bestJ, bestCost = i, j, c
					}
				}
			}
			if bestI < 0 {
				return nil, fmt.Errorf("core: greedy: target %q contributed fragments cannot be combined", t.Name)
			}
			mergedFrag, err := mergeFragments(m.Source.Schema, cur[bestI].frag, cur[bestJ].frag)
			if err != nil {
				return nil, err
			}
			node := &mergeTree{leaf: -1, left: cur[bestI], right: cur[bestJ], frag: mergedFrag, parents: cur[bestI].parents}
			next := cur[:0:0]
			for k, tr := range cur {
				if k != bestI && k != bestJ {
					next = append(next, tr)
				}
			}
			cur = append(next, node)
		}
		choice[t.Name] = cur[0]
	}
	return sk.assemble(choice)
}
