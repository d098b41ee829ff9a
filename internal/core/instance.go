package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"xdx/internal/hashtab"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// Instance is a fragment instance (Definition 3.2): a sequence of element
// trees, each conforming to the fragment's subtree and carrying ID/PARENT
// on its root.
type Instance struct {
	// Frag is the fragment this instance conforms to.
	Frag *Fragment
	// Records are the fragment's element trees in document order.
	Records []*xmltree.Node

	// idx is the persistent join index over the interior element instances
	// of every record, keyed by (element name, ID). It is built lazily by
	// Combine and updated incrementally as records are attached, so a chain
	// of k Combines indexes each node once instead of re-walking the
	// growing merged instance k times. Leaf elements can never be a join
	// parent, so they are excluded via interior.
	idx *joinIndex
	// interior filters idx: the schema's interior-element set, captured
	// when the index is first built.
	interior map[string]bool
}

// joinIndex files entries by their nodes' (name, ID): the name keeps apart
// elements whose stores assigned colliding IDs. The hash covers the ID
// alone, so attach hashes a PARENT once for every possible parent element.
type joinIndex struct {
	tab     hashtab.Table
	entries []*xmltree.Node
}

// find returns the position of (name, id)'s entry, h being id's hash, or -1.
func (x *joinIndex) find(h uint64, name, id string) int {
	return x.tab.Find(h, func(p int) bool { return x.entries[p].ID == id && x.entries[p].Name == name })
}

// Rows returns the number of records.
func (in *Instance) Rows() int { return len(in.Records) }

// Clone returns a deep copy of the instance, every record copied into one
// arena, for a caller that hands out records it keeps: Combine and Split
// consume their inputs, so they may run over the copy while the origin
// stays as it was. The copy carries no join index.
func (in *Instance) Clone() *Instance {
	var arena xmltree.Arena
	recs := make([]*xmltree.Node, len(in.Records))
	for i, r := range in.Records {
		recs[i] = r.CloneInto(&arena)
	}
	return &Instance{Frag: in.Frag, Records: recs}
}

// ensureIndex builds the join index over all current records if absent.
func (in *Instance) ensureIndex(sch *schema.Schema) {
	if in.idx != nil {
		return
	}
	in.idx = &joinIndex{}
	in.interior = sch.InteriorElems()
	for _, r := range in.Records {
		in.indexTree(r)
	}
}

// indexTree adds index entries for every interior node of the subtree. A
// node whose name and ID are already filed repoints that entry in place:
// the node indexed last wins.
func (in *Instance) indexTree(n *xmltree.Node) {
	if x := in.idx; in.interior[n.Name] {
		h := hashtab.Hash(n.ID)
		if p := x.find(h, n.Name, n.ID); p >= 0 {
			x.entries[p] = n
		} else {
			x.tab.Add(h, func(p int) uint64 { return hashtab.Hash(x.entries[p].ID) })
			x.entries = hashtab.Append(x.entries, n)
		}
	}
	for _, k := range n.Kids {
		in.indexTree(k)
	}
}

// AssignIDs walks a document tree assigning Dewey identifiers ("1",
// "1.2", "1.2.1", ...) to ID fields and wiring PARENT fields, in the style
// of the LDAP DN identifiers of §1.1. Existing IDs are overwritten.
func AssignIDs(doc *xmltree.Node) {
	var walk func(n *xmltree.Node, id, parent string)
	walk = func(n *xmltree.Node, id, parent string) {
		n.ID = id
		n.Parent = parent
		for i, k := range n.Kids {
			walk(k, id+"."+strconv.Itoa(i+1), id)
		}
	}
	walk(doc, "1", "")
}

// AssignIntIDs walks a document assigning compact sequential integer
// identifiers ("1", "2", ...) and wiring PARENT fields — the integer keys
// of the paper's relational feeds. Use AssignIDs when Dewey identifiers
// are wanted (e.g. LDAP DNs).
func AssignIntIDs(doc *xmltree.Node) {
	next := 0
	var walk func(n *xmltree.Node, parent string)
	walk = func(n *xmltree.Node, parent string) {
		next++
		n.ID = strconv.Itoa(next)
		n.Parent = parent
		for _, k := range n.Kids {
			walk(k, n.ID)
		}
	}
	walk(doc, "")
}

// Combine implements Definition 3.7: it inlines the child instance into the
// parent instance by attaching each child record under the parent-fragment
// element instance whose ID matches the record's PARENT, recovering
// document order of children from the schema. The result is a new Instance
// over the merged fragment; parent's records are mutated in place (the
// operation "modifies the input fragment f1").
//
// Both inputs must already have every node's kids in schema order; Combine
// places each child among them and does not re-sort. A store scan builds
// kids by walking the schema whatever order the loaded document had, a
// shipment decoder rebuilds what a scan encoded, Split and FromDocument keep
// the order of their input, and the endpoint checks a virtual fragment with
// ValidateInstance. An instance from anywhere else — a hand-built one, or
// FromDocument over a document not known to conform — needs ValidateInstance
// first, or its out-of-order kids stay out of order.
func Combine(sch *schema.Schema, parent, child *Instance) (*Instance, error) {
	joins, err := joinElems(sch, parent.Frag, child.Frag)
	if err != nil {
		return nil, err
	}
	parent.ensureIndex(sch)
	j := &joiner{parent: parent, joinElems: joins}
	for _, rec := range child.Records {
		if !j.attach(rec) {
			return nil, fmt.Errorf("core: combine %q into %q: orphan record %s (parent %s not found)",
				child.Frag.Name, parent.Frag.Name, rec.ID, rec.Parent)
		}
	}
	merged, err := mergeFragments(sch, parent.Frag, child.Frag)
	if err != nil {
		return nil, err
	}
	return &Instance{Frag: merged, Records: parent.Records, idx: parent.idx, interior: parent.interior}, nil
}

// joiner incrementally attaches child records into a parent instance: the
// hash-join core of Combine. It reuses (and maintains) the parent
// instance's persistent join index, so probing and indexing cost is
// proportional to the new data, not to the accumulated merged instance.
type joiner struct {
	parent    *Instance
	joinElems []joinElem
	// arena batches the kid slices attach grows: every attach past a
	// node's capacity needs a longer slice, and each lives exactly as long
	// as the merged instance it ends up in. A joiner is single-goroutine,
	// which is what an arena requires.
	arena xmltree.Arena
}

// joinElem is one possible schema parent of the child fragment's root,
// with everything attach needs to place a child under an instance of it
// resolved once per Combine instead of once per node.
type joinElem struct {
	name string
	// order ranks the element's possible children (schema.ChildOrderMap);
	// rank is the child root's own position in it.
	order map[string]int
	rank  int
}

// joinElems validates and resolves the join of childFrag into parentFrag
// (Definition 3.7's "specific join conditions"): every possible schema
// parent of the child's root, in schema order, must lie inside the parent
// fragment — for multi-parent elements such as XMark's item all six
// regions must be present or some records would be orphaned.
func joinElems(sch *schema.Schema, parentFrag, childFrag *Fragment) ([]joinElem, error) {
	parents := sch.Parents(childFrag.Root)
	if len(parents) == 0 {
		return nil, fmt.Errorf("core: cannot combine %q into %q: %q is the schema root", childFrag.Name, parentFrag.Name, childFrag.Root)
	}
	joins := make([]joinElem, len(parents))
	for i, p := range parents {
		if !parentFrag.Elems[p] {
			return nil, fmt.Errorf("core: cannot combine %q into %q: parent element %q of %q missing", childFrag.Name, parentFrag.Name, p, childFrag.Root)
		}
		order := sch.ChildOrderMap(p)
		joins[i] = joinElem{name: p, order: order, rank: order[childFrag.Root]}
	}
	return joins, nil
}

// attach joins one child record under the parent element instance whose ID
// matches the record's PARENT, embedding the record itself in the parent
// tree. It reports false when no parent instance matches, which Combine
// reports as an orphan.
func (j *joiner) attach(rec *xmltree.Node) bool {
	idx, h, p := j.parent.idx, hashtab.Hash(rec.Parent), -1
	var je *joinElem
	for i := range j.joinElems {
		if p = idx.find(h, j.joinElems[i].name, rec.Parent); p >= 0 {
			je = &j.joinElems[i]
			break
		}
	}
	if je == nil {
		return false
	}
	placeKid(idx.entries[p], rec, je.order, je.rank, &j.arena)
	j.parent.indexTree(rec)
	return true
}

// placeKid inserts child among p's kids at the position the XML Schema
// dictates (Definition 3.7): after every kid that ranks at or below rank in
// order, p's child ranking, which is where appending and then stably
// sorting would leave it. It rests on p's kids already being in schema
// order — every Scan, shipment decoder, Split and earlier Combine hands
// records over that way. The common case, a last kid that is a same-named
// sibling or ranks no higher, is one string compare (and at most one rank
// lookup) and an append; only a child that belongs before the last kid
// searches for its slot. A full kid slice moves into the arena, first cut
// to the element's schema fan-out, instead of regrowing on the heap once
// per attach.
func placeKid(p, child *xmltree.Node, order map[string]int, rank int, arena *xmltree.Arena) {
	kids := p.Kids
	at := len(kids)
	if at > 0 && kids[at-1].Name != child.Name && order[kids[at-1].Name] > rank {
		at = sort.Search(at-1, func(i int) bool { return order[kids[i].Name] > rank })
	}
	if len(kids) == cap(kids) {
		kids = append(arena.Kids(max(2*len(kids), len(order))), kids...)
	}
	p.Kids = slices.Insert(kids, at, child)
}

// PlaceKid inserts child among p's kids where Combine attaches a record:
// at its schema position, after every kid of its rank or below.
func PlaceKid(sch *schema.Schema, p, child *xmltree.Node) {
	order := sch.ChildOrderMap(p.Name)
	placeKid(p, child, order, order[child.Name], nil)
}

// mergeFragments returns the fragment covering the union of a and b, rooted
// at a's root.
func mergeFragments(sch *schema.Schema, a, b *Fragment) (*Fragment, error) {
	elems := make([]string, 0, len(a.Elems)+len(b.Elems))
	for e := range a.Elems {
		elems = append(elems, e)
	}
	for e := range b.Elems {
		elems = append(elems, e)
	}
	return NewFragment(sch, "", elems)
}

// Split implements Definition 3.8: it projects the input instance into the
// given disjoint fragments, which must partition the input fragment's
// elements. Each projected record keeps the ID/PARENT pair of its root so
// that parent/child relationships dictated by the XML Schema are preserved.
//
// Split consumes its input: it cuts each record in place, detaching every
// subtree rooted in another part from its parent's kids, so the projected
// records are the input's own nodes.
func Split(sch *schema.Schema, in *Instance, parts []*Fragment) ([]*Instance, error) {
	sp, err := newSplitter(in.Frag, parts)
	if err != nil {
		return nil, err
	}
	out := make(map[*Fragment][]*xmltree.Node, len(parts))
	for _, rec := range in.Records {
		p := sp.rootOf[rec.Name]
		if p == nil {
			return nil, fmt.Errorf("core: split of %q: record root %q is not a part root", in.Frag.Name, rec.Name)
		}
		sp.cut(rec, out)
		out[p] = append(out[p], rec)
	}
	res := make([]*Instance, len(parts))
	for i, p := range parts {
		res[i] = &Instance{Frag: p, Records: out[p]}
	}
	return res, nil
}

// splitter cuts records into disjoint fragments: the projection core of
// Split. Partition validation happens once at construction; cut then
// handles records one at a time.
type splitter struct {
	partOf map[string]*Fragment
	rootOf map[string]*Fragment
}

// newSplitter verifies that parts partition the input fragment's elements.
func newSplitter(inFrag *Fragment, parts []*Fragment) (*splitter, error) {
	seen := make(map[string]string)
	for _, p := range parts {
		for e := range p.Elems {
			if !inFrag.Elems[e] {
				return nil, fmt.Errorf("core: split of %q: part %q references %q outside the input", inFrag.Name, p.Name, e)
			}
			if prev, dup := seen[e]; dup {
				return nil, fmt.Errorf("core: split of %q: element %q in both %q and %q", inFrag.Name, e, prev, p.Name)
			}
			seen[e] = p.Name
		}
	}
	if len(seen) != len(inFrag.Elems) {
		return nil, fmt.Errorf("core: split of %q: parts cover %d of %d elements", inFrag.Name, len(seen), len(inFrag.Elems))
	}
	sp := &splitter{
		partOf: make(map[string]*Fragment),
		rootOf: make(map[string]*Fragment),
	}
	for _, p := range parts {
		sp.rootOf[p.Root] = p
		for e := range p.Elems {
			sp.partOf[e] = p
		}
	}
	return sp, nil
}

// cut detaches from n's subtree, in place, every kid rooted in a part
// other than its parent's, appending each detached subtree to out (keyed by
// part) once its own subtree is cut. Nested subtrees thus come out before
// the subtree that held them, and the caller appends the record itself
// last: the record order Split has always produced.
func (sp *splitter) cut(n *xmltree.Node, out map[*Fragment][]*xmltree.Node) {
	myPart := sp.partOf[n.Name]
	kept := n.Kids[:0]
	for _, k := range n.Kids {
		if len(k.Kids) > 0 {
			sp.cut(k, out)
		}
		if sp.partOf[k.Name] == myPart {
			kept = append(kept, k)
		} else {
			p := sp.rootOf[k.Name]
			out[p] = append(out[p], k)
		}
	}
	clear(n.Kids[len(kept):])
	n.Kids = kept
}

// FromDocument extracts the instance of every fragment of fr from a full
// document (which must conform to fr's schema, child order included, and
// carry instance IDs, e.g. via AssignIDs; it is not checked here —
// ValidateInstance does). It is the reference implementation of a source
// Scan and is also how documents are loaded in tests.
func FromDocument(fr *Fragmentation, doc *xmltree.Node) (map[string]*Instance, error) {
	whole, err := NewFragment(fr.Schema, "", fr.Schema.Names())
	if err != nil {
		return nil, err
	}
	in := &Instance{Frag: whole, Records: []*xmltree.Node{doc.Clone()}}
	if len(fr.Fragments) == 1 && fr.Fragments[0].SameElems(whole) {
		return map[string]*Instance{fr.Fragments[0].Name: {Frag: fr.Fragments[0], Records: in.Records}}, nil
	}
	parts, err := Split(fr.Schema, in, fr.Fragments)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Instance, len(parts))
	for _, p := range parts {
		out[p.Frag.Name] = p
	}
	return out, nil
}

// Document reassembles a full document from per-fragment instances by
// combining every fragment into the root fragment, in schema pre-order.
// It is the inverse of FromDocument and the reference implementation of
// publishing. Like Combine it consumes what it is given: the records of
// insts become the document. Callers that read the same instances again
// pass clones (xdx.Document does); publishing and the oracle pass fresh
// store scans.
func Document(fr *Fragmentation, insts map[string]*Instance) (*xmltree.Node, error) {
	if len(fr.Fragments) == 0 {
		return nil, fmt.Errorf("core: empty fragmentation")
	}
	cur := insts[fr.Fragments[0].Name]
	if cur == nil {
		return nil, fmt.Errorf("core: missing instance for root fragment %q", fr.Fragments[0].Name)
	}
	cur = &Instance{Frag: fr.Fragments[0], Records: cur.Records}
	// Merge fragments in dependency order: a fragment may be combined only
	// once every possible parent element of its root is present (a
	// multi-parent fragment like XMark's item must wait for all regions).
	remaining := append([]*Fragment(nil), fr.Fragments[1:]...)
	for len(remaining) > 0 {
		merged := -1
		for i, f := range remaining {
			ready := true
			for _, p := range fr.Schema.Parents(f.Root) {
				if !cur.Frag.Elems[p] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			child := insts[f.Name]
			if child == nil {
				return nil, fmt.Errorf("core: missing instance for fragment %q", f.Name)
			}
			var err error
			cur, err = Combine(fr.Schema, cur, child)
			if err != nil {
				return nil, err
			}
			merged = i
			break
		}
		if merged < 0 {
			return nil, fmt.Errorf("core: fragments %v cannot be merged (unsatisfiable parent dependencies)", remaining)
		}
		remaining = append(remaining[:merged], remaining[merged+1:]...)
	}
	if len(cur.Records) != 1 {
		return nil, fmt.Errorf("core: document root fragment has %d records, want 1", len(cur.Records))
	}
	return cur.Records[0], nil
}
