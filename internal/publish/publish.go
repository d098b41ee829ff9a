// Package publish implements XML publishing from a relational store (§5.1):
// executing the fragment queries (scans plus combines, the optimized query
// set in the style of Fernandez/Morishima/Suciu), and tagging the resulting
// document tree into XML bytes.
package publish

import (
	"fmt"
	"io"
	"time"

	"xdx/internal/core"
	"xdx/internal/relstore"
	"xdx/internal/xmltree"
)

// Result reports the measurable steps of a publish run: query execution
// (Step 1 of publish&map) and tagging (Step 2).
type Result struct {
	// QueryTime covers scanning the fragments and combining them into the
	// full document tree.
	QueryTime time.Duration
	// TagTime covers serializing the tree to XML.
	TagTime time.Duration
	// Bytes is the size of the published document.
	Bytes int64
	// Combines is how many Combines building the tree ran, and JoinedRows
	// how many child records they attached — the work behind QueryTime,
	// which repeats exactly where the time does not.
	Combines, JoinedRows int
}

// Publish builds the full XML document from the store and writes it to w.
// The store's layout plays the role of the source fragmentation: the fewer
// fragments it has, the fewer combines publishing needs — which is exactly
// the asymmetry Table 2 measures between MF and LF sources.
func Publish(st *relstore.Store, w io.Writer) (Result, error) {
	var res Result
	start := time.Now()
	insts := make(map[string]*core.Instance, st.Layout.Len())
	for i, f := range st.Layout.Fragments {
		in, err := st.ScanFragment(f.Name)
		if err != nil {
			return res, fmt.Errorf("publish: %w", err)
		}
		insts[f.Name] = in
		if i > 0 {
			// core.Document combines every fragment but the root's once.
			res.Combines++
			res.JoinedRows += in.Rows()
		}
	}
	doc, err := core.Document(st.Layout, insts)
	if err != nil {
		return res, fmt.Errorf("publish: %w", err)
	}
	res.QueryTime = time.Since(start)

	start = time.Now()
	cw := &countingWriter{w: w}
	if err := xmltree.Write(cw, doc, xmltree.WriteOptions{}); err != nil {
		return res, fmt.Errorf("publish: tag: %w", err)
	}
	res.TagTime = time.Since(start)
	res.Bytes = cw.n
	return res, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
