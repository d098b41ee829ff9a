package xmltree

// AttrHandler receives streaming parse events, in the style of the SAX C
// API the paper implemented over expat for shredding (§5.1). Each start
// event carries the element's full attribute list.
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

// TreeBuilder is an AttrHandler that materializes one scanned element into
// a Node tree: ID and PARENT attributes become the Node's identifier fields,
// any other attribute is kept, and trimmed character data accumulates on the
// innermost open element. It is how Parse builds a document, and it lets a
// streaming consumer (the SOAP envelope walker) materialize only the small
// subtrees it needs while larger siblings flow through purpose-built
// handlers. A second root element is refused.
type TreeBuilder struct {
	root  *Node
	stack []*Node
}

// StartElement implements AttrHandler.
func (b *TreeBuilder) StartElement(name string, attrs []Attr) error {
	if len(b.stack) == 0 && b.root != nil {
		return errMultipleRoots
	}
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
		b.root = n
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

// Root returns the completed tree, or nil if no element finished.
func (b *TreeBuilder) Root() *Node {
	if len(b.stack) != 0 {
		return nil
	}
	return b.root
}

// FuncHandler adapts three closures into an AttrHandler; nil funcs are
// no-ops.
type FuncHandler struct {
	Start func(name string, attrs []Attr) error
	Data  func(text string) error
	End   func(name string) error
}

// StartElement implements AttrHandler.
func (f FuncHandler) StartElement(name string, attrs []Attr) error {
	if f.Start == nil {
		return nil
	}
	return f.Start(name, attrs)
}

// Text implements AttrHandler.
func (f FuncHandler) Text(data string) error {
	if f.Data == nil {
		return nil
	}
	return f.Data(data)
}

// EndElement implements AttrHandler.
func (f FuncHandler) EndElement(name string) error {
	if f.End == nil {
		return nil
	}
	return f.End(name)
}
