package xmltree

import (
	"io"
)

// Handler receives streaming parse events, in the style of the SAX C API the
// paper implemented over expat for shredding (§5.1).
type Handler interface {
	// StartElement is called for each open tag. attrs holds the ID and
	// PARENT attribute values when present ("" otherwise).
	StartElement(name, id, parent string) error
	// Text is called with trimmed, non-empty character data of the current
	// element.
	Text(data string) error
	// EndElement is called for each close tag.
	EndElement(name string) error
}

// Scan streams XML from r into h. It is single-pass and keeps no tree in
// memory, which is what lets the shredder discard state as soon as tuples
// are flushed.
func Scan(r io.Reader, h Handler) error {
	return scanStream(r, idParentAdapter{h})
}

// idParentAdapter narrows AttrHandler events to the Handler interface,
// extracting the ID/PARENT pair the shredder dispatches on.
type idParentAdapter struct{ h Handler }

// StartElement implements AttrHandler.
func (a idParentAdapter) StartElement(name string, attrs []Attr) error {
	var id, parent string
	for _, at := range attrs {
		switch at.Name {
		case "ID":
			id = at.Value
		case "PARENT":
			parent = at.Value
		}
	}
	return a.h.StartElement(name, id, parent)
}

// Text implements AttrHandler.
func (a idParentAdapter) Text(data string) error { return a.h.Text(data) }

// EndElement implements AttrHandler.
func (a idParentAdapter) EndElement(name string) error { return a.h.EndElement(name) }

// AttrHandler receives streaming parse events carrying the full attribute
// list of each element, for consumers that dispatch on attributes beyond
// ID/PARENT (the wire shipment decoder, the SOAP envelope walker).
type AttrHandler interface {
	// StartElement is called for each open tag. attrs holds every generic
	// attribute in document order; namespace declarations are dropped. The
	// slice is reused between calls — copy it to retain it. The values may
	// be retained: they are immutable strings carved from a string slab the
	// scan owns, so a retained value keeps its slab block (at most 16 KiB)
	// alive, and one over 4 KiB is a heap string of its own.
	StartElement(name string, attrs []Attr) error
	// Text is called with trimmed, non-empty character data of the current
	// element.
	Text(data string) error
	// EndElement is called for each close tag.
	EndElement(name string) error
}

// TextBytesHandler is an optional extension of AttrHandler. A handler that
// implements it receives character data as the scanner's raw byte slice
// instead of an allocated string; the slice aliases the scanner's buffers
// and is valid only for the duration of the call — copy (or intern) to
// retain. The shipment decoder uses this to intern repeated leaf values
// and to accumulate base64 chunk bodies without an intermediate string per
// text event. When a handler implements TextBytesHandler the scanner calls
// TextBytes instead of Text; the events and their payloads are otherwise
// identical.
type TextBytesHandler interface {
	TextBytes(data []byte) error
}

// RawHandler is an optional extension of AttrHandler for a consumer that
// forwards an element instead of interpreting it. As soon as an open tag's
// name is read — before its attributes are tokenised — the scanner asks
// StartRaw; a non-nil writer claims the element: its bytes, open tag
// through matching close tag exactly as they stand in the input, are
// written there, EndRaw follows, and no other event is delivered for the
// element or anything inside it. Only tag nesting is tracked while copying;
// names, characters and entities are checked by whoever parses the bytes
// next. A write error aborts the scan.
type RawHandler interface {
	StartRaw(name string) io.Writer
	EndRaw(name string) error
}

// ScanAttrs streams XML from r into h, like Scan but delivering the full
// attribute list of every element. It is single-pass and keeps no tree in
// memory; it is what the zero-materialization wire path parses shipments
// with.
func ScanAttrs(r io.Reader, h AttrHandler) error {
	return scanStream(r, h)
}

// TreeBuilder is an AttrHandler that materializes scanned elements into
// Node trees with the same semantics as Parse: ID and PARENT attributes
// become the Node's identifier fields, any other attribute is kept, and
// trimmed character data accumulates on the innermost open element. It lets
// a streaming consumer (the SOAP server) materialize only the small
// subtrees it needs while larger siblings flow through purpose-built
// handlers.
type TreeBuilder struct {
	roots []*Node
	stack []*Node
}

// StartElement implements AttrHandler.
func (b *TreeBuilder) StartElement(name string, attrs []Attr) error {
	n := &Node{Name: name}
	for _, a := range attrs {
		switch a.Name {
		case "ID":
			n.ID = a.Value
		case "PARENT":
			n.Parent = a.Value
		default:
			n.Attrs = append(n.Attrs, a)
		}
	}
	if len(b.stack) == 0 {
		b.roots = append(b.roots, n)
	} else {
		b.stack[len(b.stack)-1].AddKid(n)
	}
	b.stack = append(b.stack, n)
	return nil
}

// Text implements AttrHandler.
func (b *TreeBuilder) Text(data string) error {
	if len(b.stack) > 0 {
		b.stack[len(b.stack)-1].Text += data
	}
	return nil
}

// EndElement implements AttrHandler.
func (b *TreeBuilder) EndElement(string) error {
	if len(b.stack) > 0 {
		b.stack = b.stack[:len(b.stack)-1]
	}
	return nil
}

// Root returns the first completed tree, or nil if no element finished.
func (b *TreeBuilder) Root() *Node {
	if len(b.roots) == 0 || len(b.stack) != 0 {
		return nil
	}
	return b.roots[0]
}

// FuncHandler adapts three closures into a Handler; nil funcs are no-ops.
type FuncHandler struct {
	Start func(name, id, parent string) error
	Data  func(text string) error
	End   func(name string) error
}

// StartElement implements Handler.
func (f FuncHandler) StartElement(name, id, parent string) error {
	if f.Start == nil {
		return nil
	}
	return f.Start(name, id, parent)
}

// Text implements Handler.
func (f FuncHandler) Text(data string) error {
	if f.Data == nil {
		return nil
	}
	return f.Data(data)
}

// EndElement implements Handler.
func (f FuncHandler) EndElement(name string) error {
	if f.End == nil {
		return nil
	}
	return f.End(name)
}
