package relstore

import (
	"fmt"
	"slices"
	"sync"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// Store maps a fragmentation onto relational tables: one table per
// fragment. Columns are, per member element in schema pre-order, an
// identifier column "<elem>$id" and — for leaf elements — a text column
// "<elem>$txt", plus "$parent" holding the foreign key to the parent
// fragment instance. This captures document structure through keys exactly
// as the paper's schemas S, MF and LF do.
//
// A fragment with no internal repetition stores one row per fragment-root
// instance. A fragment with exactly one internally repeated subtree — such
// as §1.1's denormalized LINE_FEATURE relation, one row per (line, feature)
// pair — stores one row per repeated-subtree instance (or a single row with
// empty repeat columns when none exist). Fragments with more than one
// internal repetition are rejected.
type Store struct {
	// Layout is the fragmentation the store is organized by.
	Layout *core.Fragmentation

	mu     sync.RWMutex
	tables map[string]*Table
	descs  map[string]*tableDesc
	// gen counts the bulk changes to the rows — every Clear and Load —
	// which a delta's row edits do not bump.
	gen uint64
}

// tableDesc records how a fragment maps onto its table.
type tableDesc struct {
	frag *core.Fragment
	// rootElems are the fragment elements outside the repeated subtree, in
	// schema pre-order.
	rootElems []string
	// repRoot is the internally repeated element ("" when the fragment is
	// flat); repElems its subtree within the fragment, in pre-order.
	repRoot  string
	repElems []string

	// The column plan, compiled once by columns so that scanning and
	// shredding index rows by position instead of looking "<elem>$id" up
	// per cell: every member element's plan by name, and those of the
	// fragment root and of repRoot (nil when the fragment is flat).
	plan      map[string]*elemPlan
	root, rep *elemPlan
}

// parentCol is the position of "$parent", the first column of every table.
const parentCol = 0

// elemPlan is where one member element lives in a row.
type elemPlan struct {
	name string
	// idCol is the "<elem>$id" column; txtCol the "<elem>$txt" column, or
	// -1 for an interior element.
	idCol, txtCol int
	// kids are the element's in-fragment children in schema order.
	kids []*elemPlan
}

// NewStore creates an empty store laid out per fr.
func NewStore(fr *core.Fragmentation) (*Store, error) {
	s := &Store{
		Layout: fr,
		tables: make(map[string]*Table, fr.Len()),
		descs:  make(map[string]*tableDesc, fr.Len()),
	}
	for _, f := range fr.Fragments {
		desc, err := describeFragment(fr.Schema, f)
		if err != nil {
			return nil, err
		}
		t, err := NewTable(f.Name, desc.columns(fr.Schema))
		if err != nil {
			return nil, err
		}
		s.tables[f.Name] = t
		s.descs[f.Name] = desc
	}
	return s, nil
}

// describeFragment analyses internal repetition.
func describeFragment(sch *schema.Schema, f *core.Fragment) (*tableDesc, error) {
	d := &tableDesc{frag: f}
	for _, e := range sch.Names() {
		if !f.Elems[e] || e == f.Root {
			continue
		}
		repeated := sch.ByName(e).Repeated || len(sch.Parents(e)) > 1
		if !repeated {
			continue
		}
		if d.repRoot != "" {
			return nil, fmt.Errorf("relstore: fragment %q repeats both %q and %q internally; at most one denormalized repetition is supported", f.Name, d.repRoot, e)
		}
		if len(sch.Parents(e)) > 1 {
			return nil, fmt.Errorf("relstore: fragment %q denormalizes multi-parent element %q; not supported", f.Name, e)
		}
		d.repRoot = e
	}
	inRep := func(e string) bool {
		if d.repRoot == "" {
			return false
		}
		if e == d.repRoot {
			return true
		}
		return sch.IsAncestor(d.repRoot, e)
	}
	for _, e := range sch.Names() {
		if !f.Elems[e] {
			continue
		}
		if inRep(e) {
			if e != d.repRoot && (sch.ByName(e).Repeated || len(sch.Parents(e)) > 1) {
				return nil, fmt.Errorf("relstore: fragment %q has nested repetition under %q", f.Name, d.repRoot)
			}
			d.repElems = append(d.repElems, e)
		} else {
			d.rootElems = append(d.rootElems, e)
		}
	}
	return d, nil
}

// columns lays the table's columns out and compiles the column plan.
func (d *tableDesc) columns(sch *schema.Schema) []string {
	cols := []string{parentCol: "$parent"}
	d.plan = make(map[string]*elemPlan, len(d.rootElems)+len(d.repElems))
	for _, elems := range [][]string{d.rootElems, d.repElems} {
		for _, e := range elems {
			p := &elemPlan{name: e, idCol: len(cols), txtCol: -1}
			cols = append(cols, e+"$id")
			if sch.ByName(e).IsLeaf() {
				p.txtCol = len(cols)
				cols = append(cols, e+"$txt")
			}
			d.plan[e] = p
		}
	}
	for e, p := range d.plan {
		for _, c := range sch.AllChildren(e) {
			if kp := d.plan[c]; kp != nil {
				p.kids = append(p.kids, kp)
			}
		}
	}
	d.root, d.rep = d.plan[d.frag.Root], d.plan[d.repRoot]
	return cols
}

// Table returns the table backing the named fragment, or nil.
func (s *Store) Table(fragName string) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[fragName]
}

// Tables returns the fragment names in layout order.
func (s *Store) Tables() []string {
	out := make([]string, 0, len(s.tables))
	for _, f := range s.Layout.Fragments {
		out = append(out, f.Name)
	}
	return out
}

// Load shreds a fragment instance into its table (the store-side Write of
// Definition 3.9). The instance's fragment must match a layout fragment by
// element set.
func (s *Store) Load(in *core.Instance) error {
	name := s.layoutName(in.Frag)
	if name == "" {
		return fmt.Errorf("relstore: no layout fragment matching %q", in.Frag.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	t := s.tables[name]
	d := s.descs[name]
	sh := d.shredder(len(t.Cols), rowSlabRows)
	rows := make([][]string, 0, len(in.Records))
	var err error
	for _, rec := range in.Records {
		if rows, err = sh.record(rec, rows); err != nil {
			return err
		}
	}
	return t.BulkLoad(rows)
}

func (s *Store) layoutName(f *core.Fragment) string {
	for _, lf := range s.Layout.Fragments {
		if lf.SameElems(f) {
			return lf.Name
		}
	}
	return ""
}

// rowSlabRows sizes the shared backing arrays rowSlab carves rows from:
// large enough to amortize the allocation across a load, small enough not
// to overcommit on tiny instances.
const rowSlabRows = 256

// rowSlab carves fixed-width rows out of large shared backing arrays.
// Rows of one Load are retained — and later dropped — together by their
// table, so sharing backing slabs leaks nothing, and shredding stops
// paying one allocation per row.
type rowSlab struct {
	buf         []string
	width, rows int // a row's columns, a slab's rows
}

func (sl *rowSlab) row() []string {
	if len(sl.buf) < sl.width {
		sl.buf = make([]string, sl.width*sl.rows)
	}
	r := sl.buf[:sl.width:sl.width]
	sl.buf = sl.buf[sl.width:]
	return r
}

// shredder returns a shredder for rows of width columns, carved rows at a
// time out of shared slabs.
func (d *tableDesc) shredder(width, rows int) *shredder {
	return &shredder{d: d, slab: rowSlab{width: width, rows: rows}, base: make([]string, width)}
}

// shredder flattens record trees into table rows. One shredder serves a
// whole Load: the base scratch row and the rep list are reused across
// records, and finished rows come from the shared slab, so the per-record
// allocation count is (amortized) zero.
type shredder struct {
	d    *tableDesc
	slab rowSlab
	base []string // scratch for the non-repeated part, cleared per record
	reps []*xmltree.Node
}

// record flattens one record tree and appends its rows.
func (sh *shredder) record(rec *xmltree.Node, rows [][]string) ([][]string, error) {
	if rec.Name != sh.d.frag.Root {
		return nil, fmt.Errorf("relstore: record root %q does not match fragment root %q", rec.Name, sh.d.frag.Root)
	}
	clear(sh.base)
	sh.reps = sh.reps[:0]
	sh.base[parentCol] = rec.Parent
	if err := sh.walkBase(rec); err != nil {
		return nil, err
	}
	if len(sh.reps) == 0 {
		row := sh.slab.row()
		copy(row, sh.base)
		return append(rows, row), nil
	}
	for _, rep := range sh.reps {
		row := sh.slab.row()
		copy(row, sh.base)
		if err := sh.walkRep(row, rep); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (sh *shredder) fill(row []string, n *xmltree.Node) error {
	p := sh.d.plan[n.Name]
	if p == nil {
		return fmt.Errorf("relstore: record for %q contains unexpected element %q", sh.d.frag.Name, n.Name)
	}
	if row[p.idCol] != "" {
		return fmt.Errorf("relstore: record for %q repeats element %q", sh.d.frag.Name, n.Name)
	}
	id := n.ID
	if id == "" {
		id = "-"
	}
	row[p.idCol] = id
	if p.txtCol >= 0 {
		row[p.txtCol] = n.Text
	}
	return nil
}

// walkBase fills the scratch row from the non-repeated part of the tree,
// collecting repeated-subtree roots for walkRep.
func (sh *shredder) walkBase(n *xmltree.Node) error {
	if n.Name == sh.d.repRoot {
		sh.reps = append(sh.reps, n)
		return nil
	}
	if err := sh.fill(sh.base, n); err != nil {
		return err
	}
	for _, k := range n.Kids {
		if err := sh.walkBase(k); err != nil {
			return err
		}
	}
	return nil
}

func (sh *shredder) walkRep(row []string, n *xmltree.Node) error {
	if err := sh.fill(row, n); err != nil {
		return err
	}
	for _, k := range n.Kids {
		if err := sh.walkRep(row, k); err != nil {
			return err
		}
	}
	return nil
}

// ScanFragment materializes the instance of the named layout fragment from
// its table (the store-side Scan of Definition 3.6): a Snapshot of its
// rows, every record built.
func (s *Store) ScanFragment(fragName string) (*core.Instance, error) {
	f := s.Layout.ByName(fragName)
	if f == nil {
		return nil, fmt.Errorf("relstore: unknown fragment %q", fragName)
	}
	r, err := s.Snapshot(fragName)
	if err != nil {
		return nil, err
	}
	// All records of one scan share an arena: the instance is the decode
	// unit, so its nodes live and die together. The row count bounds what
	// it will hold, so a ten-row table does not cut minimum-size slabs.
	a := &xmltree.Arena{}
	a.Reserve(len(r.rows)*len(r.d.plan), 0)
	recs, err := r.Build(make([]*xmltree.Node, 0, r.Len()), 0, r.Len(), a)
	if err != nil {
		return nil, err
	}
	return &core.Instance{Frag: f, Records: recs}, nil
}

// Rows is a snapshot of one layout fragment's stored records: the live
// rows as they stood, which stay as they are however the table changes
// after (see Table), and for a denormalized fragment where each record's
// rows start. It builds records on demand, exactly as ScanFragment's, and
// is safe for concurrent use. It implements core.Records.
type Rows struct {
	d    *tableDesc
	rows [][]string
	at   []int32 // record k spans rows[at[k]:at[k+1]]; nil when flat
}

// Snapshot takes a snapshot of the named layout fragment's rows. A table
// without deleted slots shares its row slice, and record bounds are
// offsets, so the snapshot holds no pointer of its own.
func (s *Store) Snapshot(fragName string) (*Rows, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, d := s.tables[fragName], s.descs[fragName]
	if t == nil {
		return nil, fmt.Errorf("relstore: unknown fragment %q", fragName)
	}
	r := &Rows{d: d}
	if t.ngone == 0 {
		r.rows = t.rows[:len(t.rows):len(t.rows)]
		if d.rep == nil {
			return r, nil
		}
	}
	if d.rep != nil {
		r.at = []int32{0}
	}
	n := int32(0)
	for i := 0; i < len(t.rows); {
		if t.isGone(i) {
			i++
			continue
		}
		_, end := d.span(t, i)
		if t.ngone > 0 {
			r.rows = append(r.rows, t.rows[i:end]...)
		}
		if n += int32(end - i); d.rep != nil {
			r.at = append(r.at, n)
		}
		i = end
	}
	return r, nil
}

// Len implements core.Records.
func (r *Rows) Len() int {
	if r.at != nil {
		return len(r.at) - 1
	}
	return len(r.rows)
}

// Build implements core.Records: it rebuilds records [i, j) from their
// rows into a.
func (r *Rows) Build(dst []*xmltree.Node, i, j int, a *xmltree.Arena) ([]*xmltree.Node, error) {
	sc := fragScan{arena: a}
	for k := i; k < j; k++ {
		start, end := k, k+1
		if r.at != nil {
			start, end = int(r.at[k]), int(r.at[k+1])
		}
		rec, err := sc.record(r.d, r.rows[start:end])
		if err != nil {
			return dst, err
		}
		dst = append(dst, rec)
	}
	return dst, nil
}

// span returns the row slots [start, end) of the record that row i belongs
// to: the row alone in a flat fragment — whose roots may all be ID-less
// leaves — and the live rows around it sharing its root identifier in a
// denormalized one, which Load and the delta apply store contiguously.
func (d *tableDesc) span(t *Table, i int) (start, end int) {
	start, end = i, i+1
	if d.rep == nil {
		return start, end
	}
	same := func(j int) bool {
		return j >= 0 && j < len(t.rows) && !t.isGone(j) && t.rows[j][d.root.idCol] == t.rows[i][d.root.idCol]
	}
	for same(start - 1) {
		start--
	}
	for same(end) {
		end++
	}
	return start, end
}

// fragScan rebuilds record trees from the rows of one fragment's table.
type fragScan struct {
	rep   *elemPlan      // the repeated subtree's plan, nil for a flat fragment
	arena *xmltree.Arena // where the trees are built; nil builds on the heap
	// attach is the current record's attachment point for repeated
	// subtrees (nil until build meets it) and repAt the position among its
	// kids where the next one goes: the slot the schema gives repRoot,
	// after the repeats already placed there.
	attach *xmltree.Node
	repAt  int
}

// record rebuilds one record from its rows: the base part from the first,
// and one instance of the repeated subtree from each row that has one.
func (sc *fragScan) record(d *tableDesc, rows [][]string) (*xmltree.Node, error) {
	if rows[0][d.root.idCol] == "" {
		return nil, fmt.Errorf("relstore: row has empty identifier for %q", d.frag.Root)
	}
	sc.rep, sc.attach = d.rep, nil
	rec := sc.build(d.root, rows[0], rows[0][parentCol])
	for _, row := range rows {
		if d.rep == nil || row[d.rep.idCol] == "" {
			continue // flat fragment, or a root instance without repeated children
		}
		if sc.attach == nil {
			return nil, fmt.Errorf("relstore: fragment %q: no attachment point for %q", d.frag.Name, d.repRoot)
		}
		sc.attach.Kids = slices.Insert(sc.attach.Kids, sc.repAt, sc.build(d.rep, row, sc.attach.ID))
		sc.repAt++
	}
	return rec, nil
}

// build reconstructs p's subtree from row by the compiled column plan, or
// returns nil when the (optional) element is absent. Building the base part
// stops at the repeated subtree, whose instances the scan attaches per row,
// and records where they go.
func (sc *fragScan) build(p *elemPlan, row []string, parentID string) *xmltree.Node {
	id := row[p.idCol]
	if id == "" {
		return nil
	}
	if id == "-" {
		id = ""
	}
	n := sc.arena.New()
	n.Name, n.ID, n.Parent = p.name, id, parentID
	if p.txtCol >= 0 {
		n.Text = row[p.txtCol]
	}
	if len(p.kids) > 0 {
		n.Kids = sc.arena.Kids(len(p.kids))
	}
	for _, kp := range p.kids {
		if kp == sc.rep {
			sc.attach, sc.repAt = n, len(n.Kids)
			continue
		}
		if k := sc.build(kp, row, id); k != nil {
			n.Kids = append(n.Kids, k)
		}
	}
	return n
}

// BuildIndexes creates hash indexes on the root identifier and the parent
// foreign key of every table — the paper's "update indexes at the target"
// step (Table 4).
func (s *Store) BuildIndexes() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.Layout.Fragments {
		t := s.tables[f.Name]
		if _, err := t.CreateIndex(f.Root + "$id"); err != nil {
			return err
		}
		if _, err := t.CreateIndex("$parent"); err != nil {
			return err
		}
	}
	return nil
}

// Generation counts the store's bulk changes, Clear and Load; a delta's
// row edits leave it be. A holder of a snapshot of the rows can tell by it
// that someone else reloaded them.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Rows returns the total number of rows across all tables.
func (s *Store) Rows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, t := range s.tables {
		n += t.Len()
	}
	return n
}

// Clear drops all rows and indexes, keeping the layout ("the target
// database was initially empty", §5).
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	for name, t := range s.tables {
		nt, _ := NewTable(t.Name, t.Cols)
		s.tables[name] = nt
	}
}

// LoadDocument shreds a whole document into the store by splitting it per
// the layout; a convenience for fixtures and tests.
func (s *Store) LoadDocument(doc *xmltree.Node) error {
	insts, err := core.FromDocument(s.Layout, doc)
	if err != nil {
		return err
	}
	for _, f := range s.Layout.Fragments {
		if err := s.Load(insts[f.Name]); err != nil {
			return err
		}
	}
	return nil
}

// Stats computes per-element cardinalities and average serialized sizes
// from the stored data, which back the endpoint's cost interface.
func (s *Store) Stats() (card, bytes map[string]float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	card = make(map[string]float64)
	bytes = make(map[string]float64)
	for _, f := range s.Layout.Fragments {
		t := s.tables[f.Name]
		d := s.descs[f.Name]
		for e := range f.Elems {
			n := 0
			var sz float64
			idCol, txtCol := d.plan[e].idCol, d.plan[e].txtCol
			lastRoot := ""
			rootCol := d.root.idCol
			inRep := slices.Contains(d.repElems, e)
			for i, row := range t.rows {
				if row[idCol] == "" || t.isGone(i) {
					continue
				}
				// Base-part values repeat across denormalized rows; count
				// them once per root instance.
				if !inRep && d.repRoot != "" {
					if row[rootCol] == lastRoot {
						continue
					}
				}
				if !inRep {
					lastRoot = row[rootCol]
				}
				n++
				sz += float64(2*len(e) + 5)
				if txtCol >= 0 {
					sz += float64(len(row[txtCol]))
				}
			}
			card[e] = float64(n)
			if n > 0 {
				bytes[e] = sz / float64(n)
			} else {
				bytes[e] = float64(2*len(e) + 5)
			}
		}
	}
	return card, bytes
}
