package relstore

import (
	"errors"
	"fmt"
	"slices"

	"xdx/internal/core"
	"xdx/internal/xmltree"
)

// Edit is one shipped edge's part of a delta: the records of fragment Frag
// it ships, new or changed, and the IDs of those it tombstones.
type Edit struct {
	Frag    *core.Fragment
	Records []*xmltree.Node
	Tombs   []string
}

// ErrStale marks a delta that does not fit the stored rows: they do not
// hold the snapshot it was diffed against, or it tombstones a record the
// store lacks, ships one whose parent it lacks, or leaves a stored record
// without its parent.
var ErrStale = errors.New("relstore: delta does not fit the stored rows")

// ApplyDelta lands a delta of stream, diffed against the snapshot session
// base left under plan epoch, as row edits, files the rows as session
// next's snapshot, and returns how many rows it deleted plus how many it
// inserted. Each stored record (a layout fragment's instance) that the
// delta touches is rebuilt from its rows, the edge's old part of it is cut
// out, the shipped record, cut by the layout, is spliced in at its schema
// position, and the tree is shredded back in place of the record's rows,
// which the indexes follow row by row. The base is checked and taken and
// every edit resolved under the store lock before a row changes, so a
// delta that does not fit leaves the rows as they were. Any error leaves
// the stream without the base it names: of two deltas against one base
// only the first lands, and one that fails leaves the stream cold. The
// shipped records are spliced in, not copied: the caller hands them over.
func (s *Store) ApplyDelta(stream, epoch, base, next string, edits []Edit) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if held, ok := s.bases[stream]; !ok || held != (streamBase{epoch, base}) {
		return 0, fmt.Errorf("%w: the rows do not hold stream %s's snapshot %s at epoch %s", ErrStale, stream, base, epoch)
	}
	delete(s.bases, stream)
	for _, ed := range edits {
		// The records come off the wire: each must be an instance of its
		// edge's fragment before anything looks it up by element.
		if err := core.ValidateInstance(s.Layout.Schema, &core.Instance{Frag: ed.Frag, Records: ed.Records}); err != nil {
			return 0, err
		}
	}
	ap := &applier{s: s, scan: fragScan{arena: &xmltree.Arena{}}, loaded: map[slotKey]*workRec{}, nodes: map[nodeKey]nodeAt{}}
	// Parents first, so a record finds a parent shipped beside it; all
	// tombstones before any record, so a record that moved away from a
	// tombstoned parent is still found by its ID.
	pos := map[string]int{}
	for i, e := range s.Layout.Schema.Names() {
		pos[e] = i
	}
	slices.SortStableFunc(edits, func(a, b Edit) int { return pos[a.Frag.Root] - pos[b.Frag.Root] })
	for _, ed := range edits {
		for _, id := range ed.Tombs {
			if x, ok := ap.find(ed.Frag.Root, id); ok {
				ap.cut(ed.Frag, x)
			} else {
				ap.stale("no %s %s to tombstone", ed.Frag.Root, id)
			}
		}
	}
	for _, ed := range edits {
		for _, rec := range ed.Records {
			ap.ship(ed.Frag, rec)
		}
	}
	ap.settle()
	shred := map[string]*shredder{}
	for _, w := range ap.recs {
		if w.dirty && w.root != nil && ap.err == nil {
			if shred[w.table] == nil {
				// Slabs of a few rows: a delta rewrites few records a table.
				shred[w.table] = s.descs[w.table].shredder(len(s.tables[w.table].Cols), 16)
			}
			w.rows, ap.err = shred[w.table].record(w.root, nil)
		}
	}
	if ap.err != nil {
		return 0, ap.err
	}
	n := 0
	for _, w := range ap.recs {
		if !w.dirty {
			continue
		}
		t := s.tables[w.table]
		for i := w.start; i < w.end; i++ {
			t.delete(i)
		}
		for _, r := range w.rows {
			_ = t.Insert(r) // the shredder cut r to the table's width
		}
		n += w.end - w.start + len(w.rows)
	}
	for _, w := range ap.recs {
		s.tables[w.table].compact()
	}
	s.bases[stream] = streamBase{epoch, next}
	return n, nil
}

// nodeKey names an element instance, slotKey a stored record by its table
// and first row slot.
type nodeKey struct{ name, id string }
type slotKey struct {
	table string
	start int
}

// nodeAt is where an element instance sits among the records under edit.
type nodeAt struct {
	n, parent *xmltree.Node // parent is nil for a record's root
	rec       *workRec
}

// workRec is a record under edit: the row slots [start, end) it replaces
// (none for a new one), its tree (nil once deleted), whether the delta
// changed it, and the rows shredded from it.
type workRec struct {
	table      string
	start, end int
	root       *xmltree.Node
	dirty      bool
	rows       [][]string
}

// applier is one ApplyDelta's records under edit, the keyed instances the
// delta cut out, and its first error.
type applier struct {
	s      *Store
	scan   fragScan
	recs   []*workRec
	loaded map[slotKey]*workRec
	nodes  map[nodeKey]nodeAt // the keyed element instances of recs
	// orphans are kids of other edges that lost their parent to a cut, in
	// cut order; gone are the keyed instances cut out. settle settles both.
	orphans, gone []*xmltree.Node
	err           error
}

func (ap *applier) fail(err error) {
	if ap.err == nil {
		ap.err = err
	}
}

func (ap *applier) stale(format string, args ...any) {
	ap.fail(fmt.Errorf("%w: "+format, append([]any{ErrStale}, args...)...))
}

func (ap *applier) table(e string) string { return ap.s.Layout.FragmentOf(e).Name }

// find locates element instance (e, id), loading the record that holds it
// through the index on e's identifier column — built on first use unless e
// roots its table. An instance the delta cut out is not found.
func (ap *applier) find(e, id string) (nodeAt, bool) {
	if x, ok := ap.nodes[nodeKey{e, id}]; ok || id == "" {
		return x, ok
	}
	name := ap.table(e)
	t := ap.s.tables[name]
	for _, i := range t.rowsWith(t.Cols[ap.s.descs[name].plan[e].idCol], id) {
		ap.load(name, i)
	}
	x, ok := ap.nodes[nodeKey{e, id}]
	return x, ok
}

// parent locates the instance named id of one of e's parent elements.
func (ap *applier) parent(e, id string) (nodeAt, bool) {
	for _, pe := range ap.s.Layout.Schema.Parents(e) {
		if p, ok := ap.find(pe, id); ok {
			return p, true
		}
	}
	return nodeAt{}, false
}

// load rebuilds the stored record that row slot i belongs to, once.
func (ap *applier) load(name string, i int) *workRec {
	t, d := ap.s.tables[name], ap.s.descs[name]
	start, end := d.span(t, i)
	w := ap.loaded[slotKey{name, start}]
	if w == nil {
		w = &workRec{table: name, start: start, end: end}
		ap.loaded[slotKey{name, start}] = w
		ap.recs = append(ap.recs, w)
		var err error
		if w.root, err = ap.scan.record(d, t.rows[start:end]); err != nil {
			ap.fail(err)
		} else {
			ap.index(w.root, nil, w, false)
		}
	}
	return w
}

// index files n and its subtree as instances of w under parent, and opens
// the kids the layout stores in other tables as records of their own. A
// stored instance (!fresh) the delta already shipped anew, as part of a
// record that moved it, stays filed under its new version.
func (ap *applier) index(n, parent *xmltree.Node, w *workRec, fresh bool) {
	if _, held := ap.nodes[nodeKey{n.Name, n.ID}]; n.ID != "" && (fresh || !held) {
		ap.nodes[nodeKey{n.Name, n.ID}] = nodeAt{n, parent, w}
	}
	kids := n.Kids[:0]
	for _, k := range n.Kids {
		if name := ap.table(k.Name); name != w.table {
			k.Parent = n.ID
			ap.add(name, k)
		} else {
			kids = append(kids, k)
			ap.index(k, n, w, fresh)
		}
	}
	n.Kids = kids
}

// add opens a record of table name rooted at root.
func (ap *applier) add(name string, root *xmltree.Node) {
	w := &workRec{table: name, root: root, dirty: true}
	ap.recs = append(ap.recs, w)
	ap.index(root, nil, w, true)
}

// cut takes out the part of edge fragment f at x: x leaves its parent, or
// its record goes; its kids outside f are orphaned until their parent comes
// back; and f's records in other tables under the part go too, found
// through the parent index, which reaches ID-less leaf roots.
func (ap *applier) cut(f *core.Fragment, x nodeAt) {
	x.rec.dirty = true
	if x.parent == nil {
		x.rec.root = nil
	} else {
		x.parent.Kids = slices.DeleteFunc(x.parent.Kids, func(k *xmltree.Node) bool { return k == x.n })
	}
	var drop func(n *xmltree.Node)
	drop = func(n *xmltree.Node) {
		if key := (nodeKey{n.Name, n.ID}); n.ID != "" {
			if ap.nodes[key].n == n {
				delete(ap.nodes, key)
			}
			ap.gone = append(ap.gone, n)
		}
		for _, k := range n.Kids {
			if f.Elems[k.Name] {
				drop(k)
			} else {
				k.Parent = n.ID
				ap.orphans = append(ap.orphans, k)
			}
		}
		for _, c := range ap.s.Layout.Schema.AllChildren(n.Name) {
			if name := ap.table(c); f.Elems[c] && name != x.rec.table && n.ID != "" {
				for _, i := range ap.s.tables[name].rowsWith("$parent", n.ID) {
					if w := ap.load(name, i); w.root != nil {
						ap.cut(f, nodeAt{w.root, nil, w})
					}
				}
			}
		}
	}
	drop(x.n)
}

// ship splices in one shipped record of edge fragment f in place of its
// old version, if the store holds one — under its parent, or under another
// it moved away from.
func (ap *applier) ship(f *core.Fragment, rec *xmltree.Node) {
	if ap.err != nil {
		return
	}
	parent, found := ap.parent(rec.Name, rec.Parent)
	if !found && rec.Parent != "" {
		ap.stale("no parent %s for %s %s", rec.Parent, rec.Name, rec.ID)
		return
	}
	if x, ok := ap.find(rec.Name, rec.ID); ok {
		ap.cut(f, x)
	}
	if name := ap.table(rec.Name); rec.Name == ap.s.descs[name].frag.Root {
		ap.add(name, rec)
	} else {
		ap.place(parent, rec)
	}
}

// place inserts n among p's kids where Combine would, and files it.
func (ap *applier) place(p nodeAt, n *xmltree.Node) {
	core.PlaceKid(ap.s.Layout.Schema, p.n, n)
	p.rec.dirty = true
	ap.index(n, p.n, p.rec, true)
}

// settle moves each orphan still standing over to its parent's new
// version, and fails the delta when a parent is not back, or when a keyed
// instance that is not back leaves a record of another table behind.
func (ap *applier) settle() {
	for _, k := range ap.orphans {
		if k.ID != "" && ap.nodes[nodeKey{k.Name, k.ID}].n != k {
			continue // cut since
		}
		if p, ok := ap.parent(k.Name, k.Parent); ok {
			ap.place(p, k)
		} else {
			ap.stale("%s %s lost its parent %s", k.Name, k.ID, k.Parent)
		}
	}
	for _, n := range ap.gone {
		if _, back := ap.nodes[nodeKey{n.Name, n.ID}]; back {
			continue
		}
		for _, c := range ap.s.Layout.Schema.AllChildren(n.Name) {
			if name := ap.table(c); name != ap.table(n.Name) {
				for _, i := range ap.s.tables[name].rowsWith("$parent", n.ID) {
					if w := ap.load(name, i); w.root != nil {
						ap.stale("%s %s lost its parent %s", w.root.Name, w.root.ID, n.ID)
					}
				}
			}
		}
	}
}
