// Package schema models XML Schemas and DTDs as trees of named elements,
// the structural substrate of the data-exchange architecture (paper §3.1).
//
// The paper views an XML Schema as a tree whose nodes are elements; a
// fragment is any subtree of that tree. Element names are required to be
// unique across the schema (true of the paper's running examples and of the
// XMark DTD subset of Figure 7), which lets fragments and fragmentations
// reference elements by name alone.
package schema

import (
	"fmt"
	"strings"
	"sync"
)

// Node is one element declaration in a schema tree.
type Node struct {
	// Name is the element name, unique across the schema.
	Name string
	// Repeated reports whether the element may occur more than once under
	// its parent (DTD * or +, XML Schema maxOccurs="unbounded").
	Repeated bool
	// Optional reports whether the element may be absent (DTD ? or *).
	Optional bool
	// Children are the element's child declarations, in document order.
	Children []*Node

	parent *Node
	depth  int
}

// Parent returns the node's parent declaration, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Depth returns the node's depth; the root has depth 0.
func (n *Node) Depth() int { return n.depth }

// IsLeaf reports whether the element has no child elements (it carries
// character data only).
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Schema is a validated, indexed element tree.
//
// An element may be referenced by more than one parent declaration (the
// XMark DTD's item element is a child of all six region elements). Such an
// element appears in the tree once, under its first referencing parent; the
// remaining referencing parents are recorded as extra parents and reported
// by Parents.
type Schema struct {
	root         *Node
	byName       map[string]*Node
	names        []string // pre-order
	extraParents map[string][]string

	orderMu       sync.RWMutex
	orderCache    map[string]map[string]int
	childrenCache map[string][]string
	interiorCache map[string]bool
}

// New validates the element tree rooted at root and builds an indexed
// Schema. It returns an error if any element name appears more than once.
func New(root *Node) (*Schema, error) {
	if root == nil {
		return nil, fmt.Errorf("schema: nil root")
	}
	s := &Schema{root: root, byName: make(map[string]*Node), extraParents: make(map[string][]string)}
	var walk func(n *Node, parent *Node, depth int) error
	walk = func(n *Node, parent *Node, depth int) error {
		if n.Name == "" {
			return fmt.Errorf("schema: element with empty name under %q", parentName(parent))
		}
		if _, dup := s.byName[n.Name]; dup {
			return fmt.Errorf("schema: duplicate element name %q", n.Name)
		}
		n.parent = parent
		n.depth = depth
		s.byName[n.Name] = n
		s.names = append(s.names, n.Name)
		for _, c := range n.Children {
			if err := walk(c, n, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, nil, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNew is like New but panics on error; intended for fixtures.
func MustNew(root *Node) *Schema {
	s, err := New(root)
	if err != nil {
		panic(err)
	}
	return s
}

func parentName(p *Node) string {
	if p == nil {
		return "<root>"
	}
	return p.Name
}

// Root returns the schema's root element.
func (s *Schema) Root() *Node { return s.root }

// ByName returns the element with the given name, or nil.
func (s *Schema) ByName(name string) *Node { return s.byName[name] }

// Names returns all element names in pre-order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Len returns the number of elements in the schema.
func (s *Schema) Len() int { return len(s.names) }

// ParentOf returns the name of the primary parent of the named element, or
// "" for the root or an unknown element.
func (s *Schema) ParentOf(name string) string {
	n := s.byName[name]
	if n == nil || n.parent == nil {
		return ""
	}
	return n.parent.Name
}

// Parents returns all elements that may be the parent of name in a document:
// the primary parent followed by any extra parents (multi-parent elements
// such as XMark's item). The result is empty for the root.
func (s *Schema) Parents(name string) []string {
	var out []string
	if p := s.ParentOf(name); p != "" {
		out = append(out, p)
	}
	out = append(out, s.extraParents[name]...)
	return out
}

// AllChildren returns the names of all elements that may occur as children
// of name in documents: the primary children followed by extra children
// (elements recording name as an extra parent), in declaration order. The
// slice is computed once per element and shared across callers — it must
// not be mutated. (Record reconstruction consults it per node per row, so
// an uncached build dominated fragment scans.)
func (s *Schema) AllChildren(name string) []string {
	s.orderMu.RLock()
	out, ok := s.childrenCache[name]
	s.orderMu.RUnlock()
	if ok {
		return out
	}
	n := s.byName[name]
	if n == nil {
		return nil
	}
	out = []string{}
	for _, c := range n.Children {
		out = append(out, c.Name)
	}
	for _, child := range s.names {
		for _, p := range s.extraParents[child] {
			if p == name {
				out = append(out, child)
			}
		}
	}
	s.orderMu.Lock()
	if s.childrenCache == nil {
		s.childrenCache = make(map[string][]string)
	}
	s.childrenCache[name] = out
	s.orderMu.Unlock()
	return out
}

// ChildOrder returns the position of child among parent's possible children
// (for recovering document order after a Combine), or -1 if child may not
// occur under parent.
func (s *Schema) ChildOrder(parent, child string) int {
	for i, c := range s.AllChildren(parent) {
		if c == child {
			return i
		}
	}
	return -1
}

// ChildOrderMap returns a map from child element name to its position among
// name's possible children (AllChildren order), cached per element — a
// Combine resolves it once per join element and ranks kids by it when a
// child has to be placed before its parent's last kid. The returned map is
// shared across callers and must not be mutated.
func (s *Schema) ChildOrderMap(name string) map[string]int {
	s.orderMu.RLock()
	m := s.orderCache[name]
	s.orderMu.RUnlock()
	if m != nil {
		return m
	}
	m = make(map[string]int)
	for i, c := range s.AllChildren(name) {
		m[c] = i
	}
	s.orderMu.Lock()
	if s.orderCache == nil {
		s.orderCache = make(map[string]map[string]int)
	}
	s.orderCache[name] = m
	s.orderMu.Unlock()
	return m
}

// InteriorElems returns the set of element names that may contain child
// elements in documents (AllChildren non-empty, counting extra children).
// Only these elements can be the join parent of a Combine, so instance join
// indexes restrict themselves to this set. The returned map is cached,
// shared across callers, and must not be mutated.
func (s *Schema) InteriorElems() map[string]bool {
	s.orderMu.RLock()
	m := s.interiorCache
	s.orderMu.RUnlock()
	if m != nil {
		return m
	}
	m = make(map[string]bool)
	for _, name := range s.names {
		if len(s.AllChildren(name)) > 0 {
			m[name] = true
		}
	}
	s.orderMu.Lock()
	s.interiorCache = m
	s.orderMu.Unlock()
	return m
}

// AddExtraParent records that parent may also contain name in documents,
// in addition to name's primary tree position. Both elements must exist.
func (s *Schema) AddExtraParent(name, parent string) error {
	if s.byName[name] == nil {
		return fmt.Errorf("schema: unknown element %q", name)
	}
	if s.byName[parent] == nil {
		return fmt.Errorf("schema: unknown element %q", parent)
	}
	for _, p := range s.Parents(name) {
		if p == parent {
			return nil
		}
	}
	s.extraParents[name] = append(s.extraParents[name], parent)
	s.orderMu.Lock()
	delete(s.orderCache, parent)
	s.interiorCache = nil
	s.orderMu.Unlock()
	return nil
}

// IsAncestor reports whether anc is a proper ancestor of name.
func (s *Schema) IsAncestor(anc, name string) bool {
	n := s.byName[name]
	if n == nil {
		return false
	}
	for p := n.parent; p != nil; p = p.parent {
		if p.Name == anc {
			return true
		}
	}
	return false
}

// String renders the schema as an indented tree, for debugging and golden
// tests.
func (s *Schema) String() string {
	var b strings.Builder
	var walk func(n *Node, indent int)
	walk = func(n *Node, indent int) {
		b.WriteString(strings.Repeat("  ", indent))
		b.WriteString(n.Name)
		if n.Repeated {
			b.WriteString("*")
		} else if n.Optional {
			b.WriteString("?")
		}
		b.WriteString("\n")
		for _, c := range n.Children {
			walk(c, indent+1)
		}
	}
	walk(s.root, 0)
	return b.String()
}

// Elem is a convenience constructor for a schema node.
func Elem(name string, children ...*Node) *Node {
	return &Node{Name: name, Children: children}
}

// Rep marks a node as repeated (maxOccurs unbounded) and returns it.
func Rep(n *Node) *Node { n.Repeated = true; return n }

// Opt marks a node as optional and returns it.
func Opt(n *Node) *Node { n.Optional = true; return n }

// Balanced builds a complete tree of the given depth and fan-out with
// generated element names (root "e0", then "e1"... in pre-order).
// depth 0 yields a single root. Leaf elements carry text; all generated
// non-root elements are repeated, mirroring the simulator setups in §5.4.
func Balanced(depth, fanout int) *Schema {
	if depth < 0 || fanout < 1 {
		panic(fmt.Sprintf("schema: invalid Balanced(%d,%d)", depth, fanout))
	}
	id := 0
	next := func() string { n := fmt.Sprintf("e%d", id); id++; return n }
	var build func(d int) *Node
	build = func(d int) *Node {
		n := &Node{Name: next()}
		if d == 0 {
			return n
		}
		for i := 0; i < fanout; i++ {
			c := build(d - 1)
			c.Repeated = true
			n.Children = append(n.Children, c)
		}
		return n
	}
	return MustNew(build(depth))
}
