// Package xmltree provides the document data plane of the exchange
// architecture: element instance trees, an XML serializer (the "tagger" of
// §5.1), and one streaming SAX-style tokenizer, which the shredder, the
// wire decoders, the SOAP binding and the tree parser all read through. It
// replaces the expat C parser used in the paper.
package xmltree

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"xdx/internal/bufpool"
)

// Node is one element instance in a document or fragment instance.
//
// Every node carries an instance identifier and the identifier of its parent
// instance. Per Definition 3.1 these are serialized as the ID and PARENT
// attributes of fragment roots; on interior nodes they are kept as
// implementation state so that later Combines can locate join partners, but
// they are not serialized.
type Node struct {
	// Name is the element name.
	Name string
	// ID uniquely identifies this element instance (Dewey-style or synthetic).
	ID string
	// Parent is the ID of the parent element instance in the original
	// document, or "" for the document root.
	Parent string
	// Text is the character content of a leaf element.
	Text string
	// Attrs are generic attributes other than ID/PARENT, in document
	// order. They are used by the WSDL layer; the data plane leaves them
	// empty.
	Attrs []Attr
	// Kids are the child element instances, in document order.
	Kids []*Node
}

// Attr is a generic XML attribute.
type Attr struct {
	Name, Value string
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets or replaces an attribute.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// AddKid appends a child instance.
func (n *Node) AddKid(k *Node) { n.Kids = append(n.Kids, k) }

// Count returns the number of element instances in the subtree, including n.
func (n *Node) Count() int {
	c := 1
	for _, k := range n.Kids {
		c += k.Count()
	}
	return c
}

// Clone returns a deep copy of the subtree.
func (n *Node) Clone() *Node { return n.CloneInto(nil) }

// Find returns the first descendant (including n) with the given element
// name, in document order, or nil.
func (n *Node) Find(name string) *Node {
	if n.Name == name {
		return n
	}
	for _, k := range n.Kids {
		if m := k.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// WriteOptions controls serialization.
type WriteOptions struct {
	// EmitIDs serializes the root node's ID and PARENT as attributes
	// (Definition 3.1). Interior nodes never carry them.
	EmitIDs bool
	// EmitAllIDs serializes ID and PARENT on every node. Used when
	// shipping intermediate fragments between systems, where later
	// Combines may join into interior elements (the paper's sorted feeds
	// likewise carry their keys).
	EmitAllIDs bool
	// Indent pretty-prints with two-space indentation when true; the dense
	// form (default) is what is shipped between systems.
	Indent bool
}

// Write serializes the subtree rooted at n to w. This is the "tagger" step
// of XML publishing. The buffered writer in between is pooled: every SOAP
// envelope, session response and journal frame comes through here.
func Write(w io.Writer, n *Node, opts WriteOptions) error {
	bw := bufpool.Writer(w)
	defer bufpool.PutWriter(bw)
	if err := writeNode(bw, n, opts, 0, true); err != nil {
		return err
	}
	return bw.Flush()
}

func writeNode(w *bufio.Writer, n *Node, opts WriteOptions, depth int, isRoot bool) error {
	if opts.Indent && depth > 0 {
		w.WriteByte('\n')
		for i := 0; i < depth; i++ {
			w.WriteString("  ")
		}
	}
	w.WriteByte('<')
	w.WriteString(n.Name)
	if opts.EmitIDs && isRoot {
		w.WriteString(` ID="`)
		escapeTo(w, n.ID)
		w.WriteString(`" PARENT="`)
		escapeTo(w, n.Parent)
		w.WriteString(`"`)
	} else if opts.EmitAllIDs {
		if n.ID != "" {
			w.WriteString(` ID="`)
			escapeTo(w, n.ID)
			w.WriteString(`"`)
		}
		if n.Parent != "" {
			w.WriteString(` PARENT="`)
			escapeTo(w, n.Parent)
			w.WriteString(`"`)
		}
	}
	for _, a := range n.Attrs {
		w.WriteByte(' ')
		w.WriteString(a.Name)
		w.WriteString(`="`)
		escapeTo(w, a.Value)
		w.WriteByte('"')
	}
	if len(n.Kids) == 0 && n.Text == "" {
		w.WriteString("/>")
		return nil
	}
	w.WriteByte('>')
	if n.Text != "" {
		escapeTo(w, n.Text)
	}
	for _, k := range n.Kids {
		if err := writeNode(w, k, opts, depth+1, false); err != nil {
			return err
		}
	}
	if opts.Indent && len(n.Kids) > 0 {
		w.WriteByte('\n')
		for i := 0; i < depth; i++ {
			w.WriteString("  ")
		}
	}
	w.WriteString("</")
	w.WriteString(n.Name)
	w.WriteByte('>')
	return nil
}

// escapeIndex returns the index of the first byte of s that XML content
// must escape, or -1. Each candidate is located with strings.IndexByte so
// runs with nothing to escape — the overwhelmingly common case for keys and
// element text — are found by vectorized scans instead of a byte loop.
func escapeIndex(s string) int {
	first := -1
	for _, c := range [...]byte{'<', '>', '&', '"'} {
		if i := strings.IndexByte(s, c); i >= 0 && (first < 0 || i < first) {
			first = i
		}
	}
	return first
}

func escapeTo(w *bufio.Writer, s string) {
	for len(s) > 0 {
		i := escapeIndex(s)
		if i < 0 {
			w.WriteString(s)
			return
		}
		w.WriteString(s[:i])
		switch s[i] {
		case '<':
			w.WriteString("&lt;")
		case '>':
			w.WriteString("&gt;")
		case '&':
			w.WriteString("&amp;")
		case '"':
			w.WriteString("&quot;")
		}
		s = s[i+1:]
	}
}

// Escape writes s with XML content escaping ('<', '>', '&', '"'), bulk
// writing runs with no escapable bytes. It is the serializer's escaper,
// exported for codecs (the wire layer) that produce XML without building a
// Node tree first.
func Escape(w *bufio.Writer, s string) { escapeTo(w, s) }

// Marshal serializes the subtree to a string, for tests and small payloads.
func Marshal(n *Node, opts WriteOptions) string {
	var b strings.Builder
	Write(&b, n, opts) // a strings.Builder never fails a write
	return b.String()
}

// SerializedSize returns the number of bytes Write would produce with the
// dense form; it is the communication-cost size() function of §4.1 for
// fragment instances shipped in XML format.
func SerializedSize(n *Node, emitIDs bool) int64 {
	return SizeWith(n, WriteOptions{EmitIDs: emitIDs})
}

// SizeWith returns the serialized size under arbitrary options.
func SizeWith(n *Node, opts WriteOptions) int64 {
	cw := &countWriter{}
	Write(cw, n, opts) // a countWriter never fails a write
	return cw.n
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// Parse reads one XML element tree from r: ScanAttrs into a TreeBuilder.
// ID and PARENT attributes restore into every Node's ID/Parent fields, other
// attributes are kept except namespace declarations, and character data is
// attached to the innermost open element. An input without an element, or
// with more than one root, is refused.
func Parse(r io.Reader) (*Node, error) {
	var b TreeBuilder
	if err := ScanAttrs(r, &b); err != nil {
		return nil, err
	}
	if b.root == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	return b.root, nil
}

var errMultipleRoots = fmt.Errorf("xmltree: multiple document roots")

// Equal reports deep equality of two subtrees including IDs; used by tests.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.ID != b.ID || a.Parent != b.Parent || a.Text != b.Text || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !Equal(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

// EqualShape is like Equal but ignores ID/Parent bookkeeping; two trees are
// shape-equal when they serialize to the same document without IDs.
func EqualShape(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.Text != b.Text || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !EqualShape(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}
