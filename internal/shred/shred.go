// Package shred implements the streaming stack shredder of §5.1: a single
// pass over an XML document that cuts it into the records of a target
// fragmentation, minting instance identifiers along the way and discarding
// parser state as soon as records are complete — the role played by the
// expat-based SAX shredder in the paper.
package shred

import (
	"fmt"
	"io"
	"strconv"

	"xdx/internal/core"
	"xdx/internal/xmltree"
)

// Sink receives completed fragment records as they are flushed.
type Sink func(frag *core.Fragment, rec *xmltree.Node) error

// To streams the document in r into sink, shredded per layout. Every
// element instance receives a fresh Dewey identifier; fragment-root records
// carry their parent instance's identifier in PARENT.
func To(r io.Reader, layout *core.Fragmentation, sink Sink) error {
	type entry struct {
		name string
		id   string
		node *xmltree.Node  // the node in the current fragment record
		frag *core.Fragment // the fragment owning this element
		kids int            // children seen, for Dewey numbering
	}
	// Entries live in a value stack (popped slots are reused on the next
	// push) and record nodes come from an arena, so the shredder allocates
	// per slab rather than per element. The arena spans one document — the
	// shred's decode unit — and slabs whose records have all been flushed
	// and dropped become collectable again, keeping pipelines bounded.
	var stack []entry
	var arena xmltree.Arena
	h := xmltree.FuncHandler{
		Start: func(name string, _ []xmltree.Attr) error {
			frag := layout.FragmentOf(name)
			if frag == nil {
				return fmt.Errorf("shred: element %q not covered by layout %q", name, layout.Name)
			}
			var id, parentID string
			if len(stack) > 0 {
				top := &stack[len(stack)-1]
				top.kids++
				id = top.id + "." + strconv.Itoa(top.kids)
				parentID = top.id
			} else {
				id = "1"
			}
			node := arena.New()
			node.Name, node.ID, node.Parent = name, id, parentID
			if frag.Root != name {
				// Interior element: its document parent must be the open
				// element just below it on the stack, in the same fragment.
				if len(stack) == 0 || stack[len(stack)-1].frag != frag || stack[len(stack)-1].node == nil {
					return fmt.Errorf("shred: element %q is interior to fragment %q but its parent is not open in that fragment", name, frag.Name)
				}
				stack[len(stack)-1].node.AddKid(node)
			}
			stack = append(stack, entry{name: name, id: id, node: node, frag: frag})
			return nil
		},
		Data: func(text string) error {
			if len(stack) == 0 {
				return nil
			}
			stack[len(stack)-1].node.Text += text
			return nil
		},
		End: func(name string) error {
			if len(stack) == 0 {
				return fmt.Errorf("shred: unbalanced end element %q", name)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.frag.Root == top.name {
				return sink(top.frag, top.node)
			}
			return nil
		},
	}
	return xmltree.ScanAttrs(r, h)
}

// Shred consumes the document in r and returns one instance per layout
// fragment (possibly empty).
func Shred(r io.Reader, layout *core.Fragmentation) (map[string]*core.Instance, error) {
	out := make(map[string]*core.Instance, layout.Len())
	for _, f := range layout.Fragments {
		out[f.Name] = &core.Instance{Frag: f}
	}
	err := To(r, layout, func(frag *core.Fragment, rec *xmltree.Node) error {
		in := out[frag.Name]
		in.Records = append(in.Records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
