// Package core implements the paper's primary contribution (§3–§4): XML
// Schema fragments and fragmentations, mappings between fragmentations, the
// four primitive operations (Scan, Combine, Split, Write), data-transfer
// program DAGs, the cost model, and the exhaustive (Cost_Based_Optim) and
// greedy optimizers for combine ordering and distributed placement.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"xdx/internal/schema"
)

// Fragment is a connected region of an XML Schema tree (Definition 3.1):
// a root element plus a set of elements each reachable from the root
// through parent/child edges inside the set. Its instances carry ID and
// PARENT attributes on their root elements.
type Fragment struct {
	// Name identifies the fragment, e.g. "Order_Service".
	Name string
	// Root is the fragment's root element name.
	Root string
	// Elems is the set of schema element names the fragment covers,
	// including Root.
	Elems map[string]bool
}

// NewFragment validates that elems forms a connected region of sch rooted
// at the shallowest element and returns the fragment. If name is empty a
// name is derived from the member elements.
func NewFragment(sch *schema.Schema, name string, elems []string) (*Fragment, error) {
	if len(elems) == 0 {
		return nil, fmt.Errorf("core: fragment with no elements")
	}
	set := make(map[string]bool, len(elems))
	for _, e := range elems {
		if sch.ByName(e) == nil {
			return nil, fmt.Errorf("core: fragment references unknown element %q", e)
		}
		set[e] = true
	}
	root, err := fragmentRoot(sch, set)
	if err != nil {
		return nil, err
	}
	f := &Fragment{Name: name, Root: root, Elems: set}
	if f.Name == "" {
		f.Name = DeriveName(sch, set)
	}
	return f, nil
}

// fragmentRoot finds the unique element of set having no parent inside set,
// and verifies every other member has at least one parent inside set
// (connectedness).
func fragmentRoot(sch *schema.Schema, set map[string]bool) (string, error) {
	var root string
	for e := range set {
		hasParentInside := false
		for _, p := range sch.Parents(e) {
			if set[p] {
				hasParentInside = true
				break
			}
		}
		if !hasParentInside {
			if root != "" {
				return "", fmt.Errorf("core: fragment is disconnected: both %q and %q are roots", root, e)
			}
			root = e
		}
	}
	if root == "" {
		return "", fmt.Errorf("core: fragment has no root (cycle through extra parents?)")
	}
	// Connectedness: everything must be reachable from root within the set.
	reached := map[string]bool{root: true}
	queue := []string{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range sch.AllChildren(cur) {
			if set[c] && !reached[c] {
				reached[c] = true
				queue = append(queue, c)
			}
		}
	}
	if len(reached) != len(set) {
		return "", fmt.Errorf("core: fragment rooted at %q is disconnected", root)
	}
	return root, nil
}

// DeriveName builds a deterministic fragment name from an element set: the
// members in schema pre-order joined by underscores, in the style of the
// paper's ORDER_SERVICE and ITEM_LOCATION_... names.
func DeriveName(sch *schema.Schema, set map[string]bool) string {
	var parts []string
	for _, n := range sch.Names() {
		if set[n] {
			parts = append(parts, n)
		}
	}
	return strings.Join(parts, "_")
}

// Size returns the number of elements the fragment covers.
func (f *Fragment) Size() int { return len(f.Elems) }

// SameElems reports whether two fragments cover exactly the same elements.
func (f *Fragment) SameElems(g *Fragment) bool {
	if len(f.Elems) != len(g.Elems) {
		return false
	}
	for e := range f.Elems {
		if !g.Elems[e] {
			return false
		}
	}
	return true
}

// ElemList returns the covered elements sorted lexicographically.
func (f *Fragment) ElemList() []string {
	out := make([]string, 0, len(f.Elems))
	for e := range f.Elems {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

func (f *Fragment) String() string { return f.Name }

// Fragmentation is a set of fragments of one XML Schema (Definition 3.3).
type Fragmentation struct {
	// Name labels the fragmentation (e.g. "MF", "LF", "T-fragmentation").
	Name string
	// Schema is the fragmented XML Schema.
	Schema *schema.Schema
	// Fragments lists the member fragments in schema pre-order of their
	// roots.
	Fragments []*Fragment

	byElem map[string]*Fragment
}

// NewFragmentation validates frags against Definition 3.4 — every schema
// element defined exactly once, and (for multi-fragment sets) every
// fragment adjacent to a parent or child fragment — and returns the indexed
// fragmentation.
func NewFragmentation(sch *schema.Schema, name string, frags []*Fragment) (*Fragmentation, error) {
	fr := &Fragmentation{Name: name, Schema: sch, byElem: make(map[string]*Fragment)}
	for _, f := range frags {
		for e := range f.Elems {
			if prev := fr.byElem[e]; prev != nil {
				return nil, fmt.Errorf("core: fragmentation %q: element %q defined in both %q and %q", name, e, prev.Name, f.Name)
			}
			fr.byElem[e] = f
		}
	}
	for _, e := range sch.Names() {
		if fr.byElem[e] == nil {
			return nil, fmt.Errorf("core: fragmentation %q: element %q not covered", name, e)
		}
	}
	// Adjacency (Definition 3.4 (ii)).
	if len(frags) > 1 {
		for _, f := range frags {
			if !fr.hasNeighbor(f, frags) {
				return nil, fmt.Errorf("core: fragmentation %q: fragment %q has no parent or child fragment", name, f.Name)
			}
		}
	}
	// Multi-parent elements (e.g. XMark's item under six regions) must be
	// fragment roots unless every one of their parents lives in the same
	// fragment; otherwise splitting a document would produce fragment
	// instances with mixed record roots.
	for _, e := range sch.Names() {
		parents := sch.Parents(e)
		if len(parents) < 2 {
			continue
		}
		f := fr.byElem[e]
		if f.Root == e {
			continue
		}
		for _, p := range parents {
			if !f.Elems[p] {
				return nil, fmt.Errorf("core: fragmentation %q: multi-parent element %q is interior to %q but parent %q is outside", name, e, f.Name, p)
			}
		}
	}
	// Order fragments by pre-order of root for determinism.
	order := make(map[string]int)
	for i, n := range sch.Names() {
		order[n] = i
	}
	sorted := make([]*Fragment, len(frags))
	copy(sorted, frags)
	sort.SliceStable(sorted, func(i, j int) bool { return order[sorted[i].Root] < order[sorted[j].Root] })
	fr.Fragments = sorted
	return fr, nil
}

func (fr *Fragmentation) hasNeighbor(f *Fragment, frags []*Fragment) bool {
	for _, g := range frags {
		if g == f {
			continue
		}
		if fr.isParentOf(f, g) || fr.isParentOf(g, f) {
			return true
		}
	}
	return false
}

// isParentOf reports whether a is a parent fragment of b: some schema
// parent of b's root lies inside a.
func (fr *Fragmentation) isParentOf(a, b *Fragment) bool {
	for _, p := range fr.Schema.Parents(b.Root) {
		if a.Elems[p] {
			return true
		}
	}
	return false
}

// FragmentOf returns the fragment defining element e, or nil.
func (fr *Fragmentation) FragmentOf(e string) *Fragment { return fr.byElem[e] }

// ByName returns the named fragment, or nil.
func (fr *Fragmentation) ByName(name string) *Fragment {
	for _, f := range fr.Fragments {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Len returns the number of fragments.
func (fr *Fragmentation) Len() int { return len(fr.Fragments) }

func (fr *Fragmentation) String() string {
	var parts []string
	for _, f := range fr.Fragments {
		parts = append(parts, f.Name)
	}
	return fr.Name + "{" + strings.Join(parts, ", ") + "}"
}

// FromPartition builds a fragmentation from a partition of element names.
func FromPartition(sch *schema.Schema, name string, parts [][]string) (*Fragmentation, error) {
	var frags []*Fragment
	for _, p := range parts {
		f, err := NewFragment(sch, "", p)
		if err != nil {
			return nil, err
		}
		frags = append(frags, f)
	}
	return NewFragmentation(sch, name, frags)
}

// Trivial returns the default single-fragment fragmentation covering the
// whole schema — what a system that registers no fragmentation implicitly
// uses (publish&map, §1.1).
func Trivial(sch *schema.Schema) *Fragmentation {
	f, err := NewFragment(sch, "", sch.Names())
	if err != nil {
		panic("core: trivial fragmentation: " + err.Error())
	}
	fr, err := NewFragmentation(sch, "XMLSchema", []*Fragment{f})
	if err != nil {
		panic("core: trivial fragmentation: " + err.Error())
	}
	return fr
}

// MostFragmented returns the MF fragmentation of §5: one fragment per
// schema element.
func MostFragmented(sch *schema.Schema) *Fragmentation {
	var frags []*Fragment
	for _, n := range sch.Names() {
		f, err := NewFragment(sch, n, []string{n})
		if err != nil {
			panic("core: MF: " + err.Error())
		}
		frags = append(frags, f)
	}
	fr, err := NewFragmentation(sch, "MF", frags)
	if err != nil {
		panic("core: MF: " + err.Error())
	}
	return fr
}

// LeastFragmented returns the LF fragmentation of §5: fragments start at
// the schema root and at every repeated or multi-parent element; each
// fragment inlines all one-to-one descendants. For the paper's auction DTD
// this yields exactly three fragments.
func LeastFragmented(sch *schema.Schema) *Fragmentation {
	isStart := func(name string) bool {
		n := sch.ByName(name)
		if n.Parent() == nil {
			return true
		}
		if n.Repeated {
			return true
		}
		return len(sch.Parents(name)) > 1
	}
	groups := make(map[string][]string) // start elem -> members
	var startOf func(name string) string
	memo := make(map[string]string)
	startOf = func(name string) string {
		if s, ok := memo[name]; ok {
			return s
		}
		var s string
		if isStart(name) {
			s = name
		} else {
			s = startOf(sch.ParentOf(name))
		}
		memo[name] = s
		return s
	}
	for _, n := range sch.Names() {
		s := startOf(n)
		groups[s] = append(groups[s], n)
	}
	var frags []*Fragment
	for _, n := range sch.Names() {
		members, ok := groups[n]
		if !ok {
			continue
		}
		f, err := NewFragment(sch, "", members)
		if err != nil {
			panic("core: LF: " + err.Error())
		}
		frags = append(frags, f)
	}
	fr, err := NewFragmentation(sch, "LF", frags)
	if err != nil {
		panic("core: LF: " + err.Error())
	}
	return fr
}

// PaperSFragmentation returns the fragmentation induced by the paper's
// relational schema S (§1.1): CUSTOMER, ORDER, SERVICE, the denormalized
// LINE_FEATURE, and SWITCH. The schema must be (or mirror)
// schema.CustomerInfo.
func PaperSFragmentation(sch *schema.Schema) (*Fragmentation, error) {
	return FromPartition(sch, "S-fragmentation", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"},
		{"Switch", "SwitchID"},
	})
}

// PaperTFragmentation returns the paper's T-fragmentation (§3.1):
// Customer, Order_Service, Line_Switch, Feature — the layout of the LDAP
// provisioning system T.
func PaperTFragmentation(sch *schema.Schema) (*Fragmentation, error) {
	return FromPartition(sch, "T-fragmentation", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
}

// Random returns a valid fragmentation with at least k fragments, produced
// by cutting the schema tree at randomly chosen non-root elements (§5.4's
// "randomly selected fragments"). Multi-parent elements are always cut
// (they must be fragment roots), so schemas containing them may yield more
// than k fragments. For single-parent schemas the count is exactly
// min(k, #elements).
func Random(sch *schema.Schema, rng *rand.Rand, k int) *Fragmentation {
	names := sch.Names()
	if k < 1 {
		k = 1
	}
	if k > len(names) {
		k = len(names)
	}
	cuts := map[string]bool{names[0]: true}
	for _, n := range names {
		if len(sch.Parents(n)) > 1 {
			cuts[n] = true
		}
	}
	nonRoot := names[1:]
	// Add random cut points until k fragments are reachable.
	perm := rng.Perm(len(nonRoot))
	for _, i := range perm {
		if len(cuts) >= k {
			break
		}
		cuts[nonRoot[i]] = true
	}
	groups := make(map[string][]string)
	memo := make(map[string]string)
	var startOf func(name string) string
	startOf = func(name string) string {
		if s, ok := memo[name]; ok {
			return s
		}
		var s string
		if cuts[name] {
			s = name
		} else {
			s = startOf(sch.ParentOf(name))
		}
		memo[name] = s
		return s
	}
	for _, n := range names {
		s := startOf(n)
		groups[s] = append(groups[s], n)
	}
	var parts [][]string
	for _, n := range names {
		if members, ok := groups[n]; ok {
			parts = append(parts, members)
		}
	}
	fr, err := FromPartition(sch, fmt.Sprintf("random-%d", k), parts)
	if err != nil {
		panic("core: Random: " + err.Error())
	}
	return fr
}
