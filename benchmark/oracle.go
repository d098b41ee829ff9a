package main

// The paper's own oracle: an optimized exchange must load exactly what
// publish&map loads. After a workload's run the target store is compared
// with publish.Publish -> shred.Shred -> Load of the final source content.

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"xdx/internal/core"
	"xdx/internal/publish"
	"xdx/internal/relstore"
	"xdx/internal/shred"
	"xdx/internal/xmltree"
)

// oracleTimes is what the comparison arm cost, timed once per tenant and
// summed: the publish&map baseline of the paper's Figure 9.
type oracleTimes struct {
	publish, shred, loadIndex time.Duration
}

func (o oracleTimes) total() time.Duration { return o.publish + o.shred + o.loadIndex }

// checkOracle verifies every tenant's target against publish&map of its
// source and returns the baseline's timings.
func (d *deployment) checkOracle() (oracleTimes, error) {
	var sum oracleTimes
	for _, t := range d.tenants {
		pm, err := relstore.NewStore(d.tgtFr)
		if err != nil {
			return sum, err
		}
		var ot oracleTimes
		if d.w.Telecom {
			ot, err = d.publishMapCustomers(t, pm)
		} else {
			ot, err = publishMap(t.srcStore, pm, "")
		}
		if err != nil {
			return sum, fmt.Errorf("oracle %s: %w", t.service, err)
		}
		sum.publish += ot.publish
		sum.shred += ot.shred
		sum.loadIndex += ot.loadIndex
		if d.w.Telecom {
			err = sameRecords(t.tgtStore, pm)
		} else {
			err = sameDocument(t.tgtStore, pm)
		}
		if err != nil {
			return sum, fmt.Errorf("oracle %s: %w", t.service, err)
		}
	}
	return sum, nil
}

// publishMap runs the baseline from src into pm: publish the document,
// shred it per pm's layout, load, index. The shredder mints Dewey IDs from
// "1"; idPrefix, when set, is put in front of every ID so several documents
// can share pm (as telgen prefixes its customers).
func publishMap(src, pm *relstore.Store, idPrefix string) (oracleTimes, error) {
	var ot oracleTimes
	var buf bytes.Buffer
	start := time.Now()
	if _, err := publish.Publish(src, &buf); err != nil {
		return ot, err
	}
	ot.publish = time.Since(start)

	start = time.Now()
	insts, err := shred.Shred(&buf, pm.Layout)
	if err != nil {
		return ot, err
	}
	ot.shred = time.Since(start)
	if idPrefix != "" {
		for _, in := range insts {
			for _, rec := range in.Records {
				prefixIDs(rec, idPrefix)
			}
		}
	}

	start = time.Now()
	for _, f := range pm.Layout.Fragments {
		if err := pm.Load(insts[f.Name]); err != nil {
			return ot, err
		}
	}
	if err := pm.BuildIndexes(); err != nil {
		return ot, err
	}
	ot.loadIndex = time.Since(start)
	return ot, nil
}

// publishMapCustomers publishes each customer of a telecom tenant on its
// own (publishing needs a single document root) and maps them all into pm
// under the IDs telgen gave them: the customer's "c<i>." prefix + the Dewey
// ID the shredder mints.
func (d *deployment) publishMapCustomers(t *tenant, pm *relstore.Store) (oracleTimes, error) {
	var sum oracleTimes
	for _, doc := range t.docs {
		one, err := relstore.NewStore(d.srcFr)
		if err != nil {
			return sum, err
		}
		if err := one.LoadDocument(doc); err != nil {
			return sum, err
		}
		ot, err := publishMap(one, pm, strings.SplitAfterN(doc.ID, ".", 2)[0])
		if err != nil {
			return sum, err
		}
		sum.publish += ot.publish
		sum.shred += ot.shred
		sum.loadIndex += ot.loadIndex
	}
	return sum, nil
}

func prefixIDs(n *xmltree.Node, prefix string) {
	if n.ID != "" {
		n.ID = prefix + n.ID
	}
	if n.Parent != "" {
		n.Parent = prefix + n.Parent
	}
	for _, k := range n.Kids {
		prefixIDs(k, prefix)
	}
}

// assemble reassembles the single document a store holds.
func assemble(st *relstore.Store) (*xmltree.Node, error) {
	insts := make(map[string]*core.Instance, st.Layout.Len())
	for _, f := range st.Layout.Fragments {
		in, err := st.ScanFragment(f.Name)
		if err != nil {
			return nil, err
		}
		insts[f.Name] = in
	}
	return core.Document(st.Layout, insts)
}

// sameDocument compares two single-document stores by reassembling each and
// comparing shapes (the baseline's IDs are freshly minted, so IDs cannot
// match). Repeated siblings of got are first put in integer-ID order: a
// delta patch appends changed records after the retained base, while the
// source keeps them in place — and its in-place order is ID order, since
// inserts mint larger IDs and land at the end of their region.
func sameDocument(got, want *relstore.Store) error {
	g, err := assemble(got)
	if err != nil {
		return fmt.Errorf("target: %w", err)
	}
	w, err := assemble(want)
	if err != nil {
		return fmt.Errorf("publish&map: %w", err)
	}
	sortRepeatedByID(g)
	if !xmltree.EqualShape(g, w) {
		return fmt.Errorf("target document (%d nodes) differs from publish&map (%d nodes)", g.Count(), w.Count())
	}
	return nil
}

func sortRepeatedByID(n *xmltree.Node) {
	repeated := len(n.Kids) > 1
	for _, k := range n.Kids {
		sortRepeatedByID(k)
		repeated = repeated && k.Name == n.Kids[0].Name
	}
	if repeated {
		sort.SliceStable(n.Kids, func(i, j int) bool {
			a, _ := strconv.Atoi(n.Kids[i].ID)
			b, _ := strconv.Atoi(n.Kids[j].ID)
			return a < b
		})
	}
}

// sameRecords compares two stores fragment by fragment as sorted sets of
// records, IDs included where the wire format carries them (record roots:
// ID and PARENT; interior and empty elements: ID; text leaves: none).
func sameRecords(got, want *relstore.Store) error {
	for _, f := range got.Layout.Fragments {
		g, err := canonRecords(got, f.Name)
		if err != nil {
			return err
		}
		w, err := canonRecords(want, f.Name)
		if err != nil {
			return err
		}
		if len(g) != len(w) {
			return fmt.Errorf("fragment %s: target holds %d records, publish&map %d", f.Name, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				return fmt.Errorf("fragment %s: record %d differs:\n target      %s\n publish&map %s", f.Name, i, g[i], w[i])
			}
		}
	}
	return nil
}

func canonRecords(st *relstore.Store, frag string) ([]string, error) {
	in, err := st.ScanFragment(frag)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(in.Records))
	for i, rec := range in.Records {
		var b strings.Builder
		canonRecord(&b, rec, true)
		out[i] = b.String()
	}
	sort.Strings(out)
	return out, nil
}

func canonRecord(b *strings.Builder, n *xmltree.Node, isRoot bool) {
	b.WriteString("<" + n.Name)
	switch {
	case isRoot:
		b.WriteString(" id=" + n.ID + " parent=" + n.Parent)
	case len(n.Kids) > 0 || n.Text == "":
		b.WriteString(" id=" + n.ID)
	}
	b.WriteString(">" + n.Text)
	for _, k := range n.Kids {
		canonRecord(b, k, false)
	}
	b.WriteString("</>")
}
