package core

import (
	"fmt"
	"sync"

	"xdx/internal/hashtab"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// Keyed is Records built on demand that read their join keys without
// building a record: a row snapshot, a Pick of Keyed records, or a
// CombineRecords view. Each Build builds fresh trees the caller owns, so
// one Keyed may serve several readers.
type Keyed interface {
	Records
	// ParentKey returns record k's PARENT.
	ParentKey(k int) string
	// IDs returns the reader of elem's IDs: it appends those of record k's
	// instances of elem to dst, "" for an instance without one. Resolving
	// elem once lets a chain of views read a key of its first input
	// straight from it.
	IDs(elem string) func(dst []string, k int) []string
}

// combined is Combine (Definition 3.7) of two Keyed inputs as a view. The
// join is resolved when the view is made, into each child's parent record
// and join element; Build then builds a chunk's parent records and places
// their children. It only reads what it holds, so it is safe for
// concurrent use.
type combined struct {
	p, c   Keyed
	pElems map[string]bool // the parent input's elements
	joins  []joinElem
	owner  []int32   // each child's parent record
	first  []int32   // parent record k's children are kids[first[k]:first[k+1]]
	kids   []viewKid // c: child position; je: the join element it hangs under
}

type viewKid struct{ c, je int32 }

// CombineRecords joins child (of fragment cFrag) into parent (of pFrag) as
// a view, building neither input's records. Its records are those Combine
// makes of the same inputs' trees, kid for kid, and it fails where Combine
// fails, an orphan included, with the same error. A child hangs under the
// instance of its PARENT's (element, ID) that Combine's join index files
// last. Data whose IDs repeat within one record is the one gap: where two
// children of one record of a view carry the same (element, ID), the view
// joins under the later in document order, Combine under the later child.
func CombineRecords(sch *schema.Schema, pFrag *Fragment, parent Keyed, cFrag *Fragment, child Keyed) (Keyed, error) {
	joins, err := joinElems(sch, pFrag, cFrag)
	if err != nil {
		return nil, err
	}
	// (join element, ID) → parent record, the instance filed last winning.
	type entry struct {
		id    string
		je, k int32
	}
	var tab hashtab.Table
	np := parent.Len()
	tab.Init(np, 0)
	ents := make([]entry, 0, np)
	find := func(je int, h uint64, id string) int {
		return tab.Find(h, func(e int) bool { return ents[e].je == int32(je) && ents[e].id == id })
	}
	var ids []string
	for je := range joins {
		ids = fileKeys(parent, joins[je].name, ids, func(k int32, id string) {
			h := hashtab.Hash(id)
			if at := find(je, h, id); at >= 0 {
				ents[at].k = k
			} else {
				tab.Add(h, func(e int) uint64 { return hashtab.Hash(ents[e].id) })
				ents = hashtab.Append(ents, entry{id, int32(je), k})
			}
		})
	}
	// A child hangs under the first join element that files its PARENT; a
	// counting sort buckets the children by parent record.
	owner := make([]int32, child.Len()) // each child's entry, then its record
	first := make([]int32, np+2)
	for ci := range owner {
		pk, at := child.ParentKey(ci), -1
		h := hashtab.Hash(pk)
		for je := 0; je < len(joins) && at < 0; je++ {
			at = find(je, h, pk)
		}
		if at < 0 {
			id := append(child.IDs(cFrag.Root)(ids[:0], ci), "")[0]
			return nil, fmt.Errorf("core: combine %q into %q: orphan record %s (parent %s not found)", cFrag.Name, pFrag.Name, id, pk)
		}
		owner[ci] = int32(at)
		first[ents[at].k+2]++
	}
	for k := 2; k < len(first); k++ {
		first[k] += first[k-1]
	}
	kids := make([]viewKid, len(owner))
	for ci, at := range owner {
		e := ents[at]
		kids[first[e.k+1]] = viewKid{int32(ci), e.je}
		first[e.k+1]++
		owner[ci] = e.k
	}
	return &combined{p: parent, c: child, pElems: pFrag.Elems, joins: joins, owner: owner, first: first[:np+1], kids: kids}, nil
}

// fileKeys calls file with the record and ID of each of r's instances of
// elem, in the order Combine's join index files them: record by record,
// except that a view files its children's instances after its parent
// input's, child by child, as Combine attaches them. It returns ids, the
// scratch it reads them into.
func fileKeys(r Keyed, elem string, ids []string, file func(k int32, id string)) []string {
	var owner []int32
	if v, ok := r.(*combined); ok {
		if v.pElems[elem] {
			return fileKeys(v.p, elem, ids, file)
		}
		r, owner = v.c, v.owner
	}
	read := r.IDs(elem)
	for i := range r.Len() {
		k := int32(i)
		if owner != nil {
			k = owner[i]
		}
		ids = read(ids[:0], i)
		for _, id := range ids {
			file(k, id)
		}
	}
	return ids
}

// Len implements Records.
func (v *combined) Len() int { return v.p.Len() }

// ParentKey implements Keyed.
func (v *combined) ParentKey(k int) string { return v.p.ParentKey(k) }

// IDs implements Keyed: an element of the parent input is read straight
// off it, one of the child input off each child of the record.
func (v *combined) IDs(elem string) func(dst []string, k int) []string {
	if v.pElems[elem] {
		return v.p.IDs(elem)
	}
	read := v.c.IDs(elem)
	return func(dst []string, k int) []string {
		for _, vk := range v.kids[v.first[k]:v.first[k+1]] {
			dst = read(dst, int(vk.c))
		}
		return dst
	}
}

// viewScratch is a Build's pooled scratch: the child record being placed,
// and the join element instances of the chunk's records by record, name
// and ID.
type viewScratch struct {
	built []*xmltree.Node
	nodes map[viewNode]*xmltree.Node
}

type viewNode struct {
	k        int
	name, id string
}

var viewScratches = sync.Pool{New: func() any { return &viewScratch{nodes: map[viewNode]*xmltree.Node{}} }}

// Build implements Records: parent records [i, j) with their children
// placed, all carved from a.
func (v *combined) Build(dst []*xmltree.Node, i, j int, a *xmltree.Arena) ([]*xmltree.Node, error) {
	at := len(dst)
	dst, err := v.p.Build(dst, i, j, a)
	if err != nil {
		return dst, err
	}
	sc := viewScratches.Get().(*viewScratch)
	defer sc.release()
	for k := i; k < j; k++ {
		kids := v.kids[v.first[k]:v.first[k+1]]
		if len(kids) > 0 {
			v.file(sc.nodes, k, dst[at+k-i])
		}
		for _, vk := range kids {
			if sc.built, err = v.c.Build(sc.built[:0], int(vk.c), int(vk.c)+1, a); err != nil {
				return dst, err
			}
			rec, je := sc.built[0], &v.joins[vk.je]
			p := sc.nodes[viewNode{k, je.name, rec.Parent}]
			if p == nil {
				return dst, fmt.Errorf("core: combine view: record %d holds no %s %s", k, je.name, rec.Parent)
			}
			placeKid(p, rec, je.order, je.rank, a)
		}
	}
	return dst, nil
}

// file files n's join element instances as record k's, the last in
// pre-order winning.
func (v *combined) file(nodes map[viewNode]*xmltree.Node, k int, n *xmltree.Node) {
	for i := range v.joins {
		if v.joins[i].name == n.Name {
			nodes[viewNode{k, n.Name, n.ID}] = n
			break
		}
	}
	for _, kid := range n.Kids {
		v.file(nodes, k, kid)
	}
}

// release drops what sc points into an arena at and pools it.
func (sc *viewScratch) release() {
	clear(sc.built[:cap(sc.built)])
	clear(sc.nodes)
	viewScratches.Put(sc)
}
