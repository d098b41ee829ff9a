// Package ldapstore implements the LDAP-directory substrate of the paper's
// motivating example (§1.1): a tree of entries, each with a distinguished
// name (DN, a Dewey identifier), an object class, and typed attributes.
// A Store adapter maps a fragmentation onto object classes so the directory
// can act as the target system T of a data exchange.
package ldapstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// Class is an LDAP object class: a name plus the attributes an entry of
// this class must contain (the MUST CONTAIN clause of schema T in §1.1).
// DN and objectclass are implicit.
type Class struct {
	Name string
	Must []string
}

// Entry is one node of the directory tree.
type Entry struct {
	// DN is the entry's distinguished name, a Dewey identifier (§1.1
	// equates DN with the Dewey identifier of a node in the tree instance).
	DN string
	// Parent is the DN of the parent entry, "" for a root entry.
	Parent string
	// Class names the entry's object class.
	Class string
	// Attrs hold the entry's attribute values.
	Attrs map[string]string
}

// Directory is an in-memory LDAP-style tree.
type Directory struct {
	mu       sync.RWMutex
	classes  map[string]*Class
	entries  map[string]*Entry
	children map[string][]string
	roots    []string
}

// NewDirectory returns an empty directory with no classes defined.
func NewDirectory() *Directory {
	return &Directory{
		classes:  make(map[string]*Class),
		entries:  make(map[string]*Entry),
		children: make(map[string][]string),
	}
}

// DefineClass registers an object class.
func (d *Directory) DefineClass(name string, must ...string) *Class {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := &Class{Name: name, Must: append([]string(nil), must...)}
	d.classes[name] = c
	return c
}

// Classes lists the defined class names, sorted.
func (d *Directory) Classes() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.classes))
	for n := range d.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Add inserts an entry. Its class must exist, required attributes must be
// present, the DN must be new, and the parent (when set) must exist.
func (d *Directory) Add(e *Entry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.classes[e.Class]
	if c == nil {
		return fmt.Errorf("ldapstore: unknown object class %q", e.Class)
	}
	for _, a := range c.Must {
		if _, ok := e.Attrs[a]; !ok {
			return fmt.Errorf("ldapstore: entry %q of class %q missing attribute %q", e.DN, e.Class, a)
		}
	}
	if e.DN == "" {
		return fmt.Errorf("ldapstore: entry with empty DN")
	}
	if _, dup := d.entries[e.DN]; dup {
		return fmt.Errorf("ldapstore: duplicate DN %q", e.DN)
	}
	if e.Parent != "" {
		if _, ok := d.entries[e.Parent]; !ok {
			return fmt.Errorf("ldapstore: entry %q references missing parent %q", e.DN, e.Parent)
		}
		d.children[e.Parent] = append(d.children[e.Parent], e.DN)
	} else {
		d.roots = append(d.roots, e.DN)
	}
	d.entries[e.DN] = e
	return nil
}

// Lookup returns the entry with the given DN, or nil.
func (d *Directory) Lookup(dn string) *Entry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.entries[dn]
}

// Search returns all entries of the given class in the subtree rooted at
// base (""=whole directory), in depth-first order.
func (d *Directory) Search(base, class string) []*Entry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []*Entry
	var walk func(dn string)
	walk = func(dn string) {
		e := d.entries[dn]
		if e == nil {
			return
		}
		if class == "" || e.Class == class {
			out = append(out, e)
		}
		for _, c := range d.children[dn] {
			walk(c)
		}
	}
	if base == "" {
		for _, r := range d.roots {
			walk(r)
		}
	} else {
		walk(base)
	}
	return out
}

// Len returns the number of entries.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Store adapts a directory to the exchange architecture: each layout
// fragment becomes an object class (named after the fragment root with a
// "_T" suffix, as in §1.1's CUSTOMER_T), whose attributes are the
// fragment's leaf elements.
type Store struct {
	// Dir is the backing directory.
	Dir *Directory
	// Layout is the fragmentation the store consumes.
	Layout *core.Fragmentation

	classOf map[string]string // fragment name -> class name
}

// NewStore builds a directory with one class per layout fragment.
func NewStore(layout *core.Fragmentation) *Store {
	s := &Store{Dir: NewDirectory(), Layout: layout, classOf: make(map[string]string)}
	for _, f := range layout.Fragments {
		var must []string
		for _, e := range layout.Schema.Names() {
			if f.Elems[e] && layout.Schema.ByName(e).IsLeaf() {
				must = append(must, strings.ToUpper(e))
			}
		}
		class := strings.ToUpper(f.Root) + "_T"
		s.Dir.DefineClass(class, must...)
		s.classOf[f.Name] = class
	}
	return s
}

// Load writes a fragment instance into the directory (the LDAP-side Write
// of Definition 3.9). Parents must be loaded before children, which holds
// when fragments arrive in the layout's order.
func (s *Store) Load(in *core.Instance) error {
	f := s.layoutFragment(in.Frag)
	if f == nil {
		return fmt.Errorf("ldapstore: no layout fragment matching %q", in.Frag.Name)
	}
	class := s.classOf[f.Name]
	for _, rec := range in.Records {
		attrs := make(map[string]string)
		collectLeaves(rec, attrs)
		parent := rec.Parent
		if parent != "" && s.Dir.Lookup(parent) == nil {
			// The parent element instance may be interior to another
			// fragment's entry; climb to the nearest loaded ancestor DN.
			parent = s.nearestLoaded(parent)
		}
		if err := s.Dir.Add(&Entry{DN: rec.ID, Parent: parent, Class: class, Attrs: attrs}); err != nil {
			return err
		}
	}
	return nil
}

// nearestLoaded finds the closest ancestor DN present in the directory by
// trimming Dewey components.
func (s *Store) nearestLoaded(dn string) string {
	for {
		i := strings.LastIndexByte(dn, '.')
		if i < 0 {
			return ""
		}
		dn = dn[:i]
		if s.Dir.Lookup(dn) != nil {
			return dn
		}
	}
}

func (s *Store) layoutFragment(f *core.Fragment) *core.Fragment {
	for _, lf := range s.Layout.Fragments {
		if lf.SameElems(f) {
			return lf
		}
	}
	return nil
}

func collectLeaves(n *xmltree.Node, attrs map[string]string) {
	if len(n.Kids) == 0 {
		attrs[strings.ToUpper(n.Name)] = n.Text
	}
	for _, k := range n.Kids {
		collectLeaves(k, attrs)
	}
}

// Scan materializes the instance of a layout fragment from the directory
// (the LDAP-side Scan of Definition 3.6), letting a directory also act as
// the source of an exchange. Each entry of the fragment's class becomes a
// record; the fragment's internal structure is rebuilt from the entry's
// attributes, with interior identifiers derived from the DN.
func (s *Store) Scan(fragName string) (*core.Instance, error) {
	f := s.Layout.ByName(fragName)
	if f == nil {
		return nil, fmt.Errorf("ldapstore: unknown fragment %q", fragName)
	}
	class := s.classOf[fragName]
	sch := s.Layout.Schema
	in := &core.Instance{Frag: f}
	for _, e := range s.Dir.Search("", class) {
		rec := buildFromEntry(sch, f, f.Root, e, e.DN, e.Parent)
		in.Records = append(in.Records, rec)
	}
	return in, nil
}

// buildFromEntry reconstructs the fragment subtree for one entry. The
// entry's own DN identifies the record root; interior elements get derived
// identifiers (dn/elem) since the directory flattens them into attributes.
func buildFromEntry(sch *schema.Schema, f *core.Fragment, elem string, e *Entry, id, parent string) *xmltree.Node {
	n := &xmltree.Node{Name: elem, ID: id, Parent: parent}
	if sch.ByName(elem).IsLeaf() {
		n.Text = e.Attrs[strings.ToUpper(elem)]
	}
	for _, c := range sch.AllChildren(elem) {
		if !f.Elems[c] {
			continue
		}
		n.AddKid(buildFromEntry(sch, f, c, e, id+"/"+c, id))
	}
	return n
}
