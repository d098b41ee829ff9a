package core

import (
	"fmt"

	"xdx/internal/xmltree"
)

// FilterSources restricts per-fragment source instances to the records
// reachable from the root-fragment records accepted by keep. This models
// the paper's service arguments (§3.2): "If the Web service takes arguments
// as input, we assume the source system will filter the data accordingly
// and provide us with the relevant pieces" — e.g. CustomerInfoService
// subsetting customers by state. Descendant fragments are trimmed
// consistently so no combine can encounter an orphan.
//
// The sources map is keyed by fragment name as produced by FromDocument or
// a store scan; the returned map has the same keys with filtered (shared,
// not copied) records.
func FilterSources(fr *Fragmentation, sources map[string]*Instance, keep func(rec *xmltree.Node) bool) (map[string]*Instance, error) {
	if len(fr.Fragments) == 0 {
		return nil, fmt.Errorf("core: empty fragmentation")
	}
	out := make(map[string]*Instance, len(sources))
	keepIDs := make(map[string]bool)
	admit := func(rec *xmltree.Node) {
		var walk func(n *xmltree.Node)
		walk = func(n *xmltree.Node) {
			if n.ID != "" {
				keepIDs[n.ID] = true
			}
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(rec)
	}
	// The root fragment is filtered by the predicate; every other fragment
	// keeps exactly the records whose parent instance survived. Fragments
	// are visited in pre-order of their roots, which guarantees parents are
	// decided first.
	for i, f := range fr.Fragments {
		in := sources[f.Name]
		if in == nil {
			return nil, fmt.Errorf("core: filter: missing source instance for %q", f.Name)
		}
		kept := &Instance{Frag: in.Frag}
		for _, rec := range in.Records {
			ok := false
			if i == 0 {
				ok = keep == nil || keep(rec)
			} else {
				ok = keepIDs[rec.Parent]
			}
			if ok {
				kept.Records = append(kept.Records, rec)
				admit(rec)
			}
		}
		out[f.Name] = kept
	}
	return out, nil
}
