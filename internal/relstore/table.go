// Package relstore is an in-memory relational engine standing in for the
// MySQL back-ends of the paper's experiments (§5). It provides tables,
// bulk loading, hash indexes and hash joins with realistic relative costs:
// joins dominate scans, and index builds are separate, measurable steps.
//
// A Store maps a fragmentation onto a table layout: one table per fragment,
// one row per fragment-root instance, with identifier and text columns for
// every member element. This mirrors how the paper's relational schemas S,
// MF and LF capture document structure through keys and foreign keys.
package relstore

import (
	"fmt"
	"sort"

	"xdx/internal/hashtab"
)

// Table is an in-memory relation.
type Table struct {
	// Name is the table name.
	Name string
	// Cols are the column names, in declaration order.
	Cols []string

	colIdx  map[string]int
	rows    [][]string
	indexes map[string]*Index
	// gone marks deleted rows (nil until the first delete) and ngone counts
	// them. A deleted row keeps its slot and values, so the index chains
	// through it hold, until compact drops the slots of a table that is
	// more than half gone.
	gone  []bool
	ngone int
}

// NewTable creates an empty table with the given columns.
func NewTable(name string, cols []string) (*Table, error) {
	t := &Table{Name: name, Cols: append([]string(nil), cols...), colIdx: make(map[string]int), indexes: make(map[string]*Index)}
	for i, c := range cols {
		if _, dup := t.colIdx[c]; dup {
			return nil, fmt.Errorf("relstore: table %q: duplicate column %q", name, c)
		}
		t.colIdx[c] = i
	}
	return t, nil
}

// ColIndex returns the position of col, or -1.
func (t *Table) ColIndex(col string) int {
	i, ok := t.colIdx[col]
	if !ok {
		return -1
	}
	return i
}

// Insert appends one row, adding it to every index; the row length must
// match the column count.
func (t *Table) Insert(row []string) error {
	if len(row) != len(t.Cols) {
		return fmt.Errorf("relstore: table %q: row has %d values, want %d", t.Name, len(row), len(t.Cols))
	}
	t.rows = append(t.rows, row)
	for _, idx := range t.indexes {
		idx.add(t.rows, len(t.rows)-1)
	}
	return nil
}

// BulkLoad appends rows without per-row index maintenance; indexes are
// dropped and must be rebuilt, mirroring the paper's load-then-index steps
// (Table 4). An empty table takes rows itself rather than a copy, so the
// caller hands the slice over and must not use it again.
func (t *Table) BulkLoad(rows [][]string) error {
	for _, r := range rows {
		if len(r) != len(t.Cols) {
			return fmt.Errorf("relstore: table %q: row has %d values, want %d", t.Name, len(r), len(t.Cols))
		}
	}
	clear(t.indexes)
	if len(t.rows) > 0 {
		rows = append(t.rows, rows...)
	}
	t.rows = rows
	return nil
}

// Len returns the number of live rows.
func (t *Table) Len() int { return len(t.rows) - t.ngone }

// isGone reports whether row slot i holds a deleted row.
func (t *Table) isGone(i int) bool { return i < len(t.gone) && t.gone[i] }

// delete marks row slot i deleted.
func (t *Table) delete(i int) {
	if len(t.gone) < len(t.rows) {
		t.gone = append(t.gone, make([]bool, len(t.rows)-len(t.gone))...)
	}
	t.gone[i] = true
	t.ngone++
}

// compact drops the slots of deleted rows once they outnumber the live
// ones, and rebuilds every index over what is left: its cost is linear in
// the table, so each delete pays for it once, however long the table lives.
func (t *Table) compact() {
	if 2*t.ngone <= len(t.rows) {
		return
	}
	live := make([][]string, 0, t.Len())
	for i, r := range t.rows {
		if !t.isGone(i) {
			live = append(live, r)
		}
	}
	t.rows, t.gone, t.ngone = live, nil, 0
	for col := range t.indexes {
		t.CreateIndex(col)
	}
}

// rowsWith returns the live rows whose column col holds key, in row order,
// through col's index, which it builds on first use.
func (t *Table) rowsWith(col, key string) []int {
	idx := t.indexes[col]
	if idx == nil {
		idx, _ = t.CreateIndex(col)
	}
	var out []int
	if k := idx.find(t.rows, hashtab.Hash(key), key); k >= 0 {
		for r := idx.first[k]; r >= 0; r = idx.next[r] {
			if !t.isGone(int(r)) {
				out = append(out, int(r))
			}
		}
	}
	return out
}

// Index is a hash index over one column: tab files key numbers, first and last
// hold each key's first and last row, and next each row's next with its key.
type Index struct {
	Col string

	col               int
	tab               hashtab.Table
	first, last, next []int32
}

// CreateIndex builds (or rebuilds) a hash index over col. The build walks
// every row, which is what makes index creation a distinct measurable step.
// Its slots and arrays come from one allocation sized for a key per row,
// cut so that a later Insert's growth stays out of a neighbour's room.
func (t *Table) CreateIndex(col string) (*Index, error) {
	ci := t.ColIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("relstore: table %q: no column %q", t.Name, col)
	}
	idx := &Index{Col: col, col: ci}
	n := len(t.rows)
	buf := idx.tab.Init(n, 3*n)
	idx.first, idx.last, idx.next = buf[:0:n], buf[n:n:2*n], buf[2*n:2*n:3*n]
	for i := range t.rows {
		idx.add(t.rows, i)
	}
	t.indexes[col] = idx
	return idx, nil
}

// Indexes lists the indexed column names, sorted.
func (t *Table) Indexes() []string {
	var out []string
	for c := range t.indexes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// find returns the number of key, whose hash is h, or -1.
func (idx *Index) find(rows [][]string, h uint64, key string) int {
	return idx.tab.Find(h, func(k int) bool { return rows[idx.first[k]][idx.col] == key })
}

// add indexes row at, every row before it being indexed already.
func (idx *Index) add(rows [][]string, at int) {
	key := rows[at][idx.col]
	h := hashtab.Hash(key)
	idx.next = hashtab.Append(idx.next, -1)
	if k := idx.find(rows, h, key); k >= 0 {
		idx.next[idx.last[k]] = int32(at)
		idx.last[k] = int32(at)
		return
	}
	idx.tab.Add(h, func(k int) uint64 { return hashtab.Hash(rows[idx.first[k]][idx.col]) })
	idx.first = hashtab.Append(idx.first, int32(at))
	idx.last = hashtab.Append(idx.last, int32(at))
}
