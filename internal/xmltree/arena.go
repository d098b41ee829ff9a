package xmltree

import "strings"

// Arena batch-allocates Nodes — and the strings their fields point at — in
// slabs, so hot decode and scan loops stop paying one heap allocation per
// element instance and one more per ID, PARENT and text value. Records
// built from an arena are ordinary *Node values — callers hand them to
// instances, stores, and shipments exactly as before — but they are carved
// out of shared backing arrays, so a slab stays reachable as long as ANY
// node or string allocated from it is. The intended lifetime is therefore
// one decode unit (a shipment chunk, a fragment scan, a shredded document):
// allocate everything the unit produces from one arena, let the whole unit
// go at once. A long-lived arena may build short-lived trees only by
// reuse: its owner drops every tree built from it, then calls Reset, which
// zeroes the nodes and carves them again (a pooled scratch arena that
// builds one chunk's records at a time). Without Reset, the slabs would
// pin every tree the arena ever built.
//
// An Arena is not safe for concurrent use; parallel decoders build one per
// job. The zero value and the nil pointer are both ready to use — a nil
// arena falls back to plain per-node and per-string allocation, so optional
// call sites need no branching. An Arena must not be copied after first
// use.

const (
	// arenaMinSlab/arenaMaxSlab bound node-slab growth: the first slab
	// stays small so tiny decode units don't overcommit, and doubling stops
	// at a size where the per-node amortization is already negligible.
	arenaMinSlab = 64
	arenaMaxSlab = 2048

	// arenaMinBytes/arenaMaxBytes do the same for the string slab. A value
	// longer than a quarter of the largest block gets a heap string of its
	// own rather than stranding the tail of the current block.
	arenaMinBytes = 256
	arenaMaxBytes = 16 << 10
)

// Arena allocates Nodes and their strings in slabs.
type Arena struct {
	// slab is the unused tail of nodeSlab, the current node slab.
	slab, nodeSlab []Node
	nextSlab       int // size of the next node slab; 0 means arenaMinSlab

	// kids is the unused tail of kidSlab, the current child-pointer slab,
	// grown on the node slabs' schedule (a tree has one fewer kid than
	// nodes).
	kids, kidSlab []*Node
	nextKids      int

	// text is the current string block. Blocks are append-only and never
	// regrown — a write that does not fit starts a fresh block — so every
	// string handed out stays valid and unchanged for as long as it is
	// referenced, and keeps exactly its own block alive.
	text      strings.Builder
	nextBytes int // size of the next string block; 0 means arenaMinBytes
}

// Reserve sizes the arena's next slabs for a decode unit known to hold
// about this many nodes and string bytes, instead of growing into it by
// doubling from the minimum. A hint below the minimum is honoured — the
// caller knows the unit is that small — and one above the cap is clamped,
// so a count read off the wire cannot overcommit.
func (a *Arena) Reserve(nodes, bytes int) {
	a.nextSlab, a.nextKids, a.nextBytes = nodes, nodes, bytes
}

// grow resolves a slab's pending size against its bounds, doubles the
// pending size for the slab after it, and returns the size to allocate now
// — stretched to need when one request is larger than the slab would be.
func grow(next *int, min, max, need int) int {
	size := *next
	switch {
	case size <= 0:
		size = min
	case size > max:
		size = max
	}
	*next = 2 * size
	if size < need {
		size = need
	}
	return size
}

// New returns a fresh zero Node carved from the arena (or heap-allocated
// when the receiver is nil).
func (a *Arena) New() *Node {
	if a == nil {
		return &Node{}
	}
	if len(a.slab) == 0 {
		a.slab = make([]Node, grow(&a.nextSlab, arenaMinSlab, arenaMaxSlab, 1))
		a.nodeSlab = a.slab
	}
	n := &a.slab[0]
	a.slab = a.slab[1:]
	return n
}

// Kids returns an empty child slice with room for exactly n kids, carved
// from the arena: filling it allocates nothing, and an AddKid past n moves
// the slice to the heap like any append, never into a neighbour's room.
func (a *Arena) Kids(n int) []*Node {
	if a == nil || n > arenaMaxSlab/4 {
		return make([]*Node, 0, n)
	}
	if len(a.kids) < n {
		a.kids = make([]*Node, grow(&a.nextKids, arenaMinSlab, arenaMaxSlab, n))
		a.kidSlab = a.kids
	}
	k := a.kids[:0:n]
	a.kids = a.kids[n:]
	return k
}

// Reset readies the arena to build anew, reusing its current node and kid
// slabs: the nodes and kid slices carved from them are zeroed and carved
// again, earlier slabs are let go, and so is the string block (strings
// stay immutable, so they outlive Reset). The caller must hold nothing
// built from the arena but its strings. Slabs double as a unit outgrows
// them, so after a few Resets an arena building equal units of up to
// arenaMaxSlab nodes builds each without allocating, and it never keeps
// more than one slab of each kind.
func (a *Arena) Reset() {
	clear(a.nodeSlab[:len(a.nodeSlab)-len(a.slab)])
	clear(a.kidSlab[:len(a.kidSlab)-len(a.kids)])
	a.slab, a.kids, a.text = a.nodeSlab, a.kidSlab, strings.Builder{}
}

// Bytes returns b as a string stored in the arena's string slab: one copy,
// no heap object of its own.
func (a *Arena) Bytes(b []byte) string { return a.Concat("", b) }

// Concat returns prefix+suffix as one string in the arena's string slab.
// It is how decoders rebuild prefix-coded keys: the shared prefix and the
// shipped suffix are spliced into the slab without an intermediate string.
func (a *Arena) Concat(prefix string, suffix []byte) string {
	n := len(prefix) + len(suffix)
	switch {
	case n == 0:
		return ""
	case a == nil || n > arenaMaxBytes/4:
		return prefix + string(suffix)
	}
	if a.text.Cap()-a.text.Len() < n {
		a.text = strings.Builder{}
		a.text.Grow(grow(&a.nextBytes, arenaMinBytes, arenaMaxBytes, n))
	}
	off := a.text.Len()
	a.text.WriteString(prefix)
	a.text.Write(suffix)
	return a.text.String()[off:]
}

// CloneInto deep-copies the subtree with every copied node carved from the
// arena. CloneInto(nil) is Clone.
func (n *Node) CloneInto(a *Arena) *Node {
	c := a.New()
	c.Name, c.ID, c.Parent, c.Text = n.Name, n.ID, n.Parent, n.Text
	if len(n.Attrs) > 0 {
		c.Attrs = append([]Attr(nil), n.Attrs...)
	}
	if len(n.Kids) > 0 {
		c.Kids = a.Kids(len(n.Kids))
		for _, k := range n.Kids {
			c.Kids = append(c.Kids, k.CloneInto(a))
		}
	}
	return c
}
