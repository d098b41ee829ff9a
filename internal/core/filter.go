package core

import (
	"fmt"

	"xdx/internal/xmltree"
)

// filterBatch is how many records FilterSources builds into its scratch
// arena at a time.
const filterBatch = 256

// FilterSources restricts per-fragment source records to the records
// reachable from the root-fragment records accepted by keep. This models
// the paper's service arguments (§3.2): "If the Web service takes arguments
// as input, we assume the source system will filter the data accordingly
// and provide us with the relevant pieces" — e.g. CustomerInfoService
// subsetting customers by state. Descendant fragments are trimmed
// consistently so no combine can encounter an orphan: over a store's rows
// this is derived horizontal fragmentation (Mahboubi & Darmont), a
// predicate on the root table inherited down PARENT.
//
// The sources map is keyed by fragment name, as a store scan or
// FromDocument produces; the returned map has the same keys, each a Pick
// of the records kept (the fragment's records themselves when it keeps
// them all). Records are built a batch at a time into one scratch arena,
// reset between batches, so records built from rows are never all held as
// trees; records held as trees are read where they are.
func FilterSources[R Records](fr *Fragmentation, sources map[string]R, keep func(rec *xmltree.Node) bool) (map[string]Records, error) {
	if len(fr.Fragments) == 0 {
		return nil, fmt.Errorf("core: empty fragmentation")
	}
	srcs := make([]R, len(fr.Fragments))
	kept := make([][]bool, len(fr.Fragments))
	for i, f := range fr.Fragments {
		in, ok := sources[f.Name]
		if !ok {
			return nil, fmt.Errorf("core: filter: missing source instance for %q", f.Name)
		}
		srcs[i], kept[i] = in, make([]bool, in.Len())
	}
	keepIDs := make(map[string]bool)
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.ID != "" {
			keepIDs[n.ID] = true
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	var arena xmltree.Arena
	var batch []*xmltree.Node
	// The root fragment is filtered by the predicate; every other fragment
	// keeps exactly the records whose parent instance survived. A pass
	// visits the fragments in layout order, which decides a record's parent
	// first unless its root element can hang under an element of the same
	// or a later fragment (a multi-parent or recursive element, such as
	// XMark's item under six regions); such a layout repeats the pass until
	// it admits nothing new.
	late := lateParents(fr)
	for pass, more := 0, true; more; pass++ {
		more = false
		for i := range fr.Fragments {
			if pass > 0 && i == 0 {
				continue
			}
			in, n := srcs[i], srcs[i].Len()
			for lo := 0; lo < n; lo += filterBatch {
				var err error
				if batch, err = in.Build(batch[:0], lo, min(n, lo+filterBatch), &arena); err != nil {
					return nil, err
				}
				for k, rec := range batch {
					if kept[i][lo+k] || i == 0 && keep != nil && !keep(rec) || i > 0 && !keepIDs[rec.Parent] {
						continue
					}
					kept[i][lo+k] = true
					more = late
					walk(rec)
				}
				arena.Reset()
			}
		}
	}
	out := make(map[string]Records, len(fr.Fragments))
	for i, f := range fr.Fragments {
		var idx []int
		for k, ok := range kept[i] {
			if ok {
				idx = append(idx, k)
			}
		}
		if len(idx) == len(kept[i]) {
			out[f.Name] = srcs[i]
		} else {
			out[f.Name] = Pick(srcs[i], idx)
		}
	}
	return out, nil
}

// lateParents reports whether some fragment's root element can have a
// parent element in the same fragment or a later one.
func lateParents(fr *Fragmentation) bool {
	at := map[string]int{}
	for i, f := range fr.Fragments {
		for e := range f.Elems {
			at[e] = i
		}
	}
	for i, f := range fr.Fragments[1:] {
		for _, p := range fr.Schema.Parents(f.Root) {
			if at[p] > i {
				return true
			}
		}
	}
	return false
}
