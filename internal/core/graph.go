package core

import (
	"fmt"
	"sort"
	"strings"
)

// OpKind enumerates the four primitive operations of §3.2.
type OpKind int

// The primitive operations (Definitions 3.6–3.9).
const (
	OpScan OpKind = iota
	OpCombine
	OpSplit
	OpWrite
)

func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "Scan"
	case OpCombine:
		return "Combine"
	case OpSplit:
		return "Split"
	case OpWrite:
		return "Write"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Location says where an operation executes.
type Location int

// Operation placements. Unassigned operations are what the optimizers of
// §4.2/§4.3 decide.
const (
	LocUnassigned Location = iota
	LocSource
	LocTarget
)

func (l Location) String() string {
	switch l {
	case LocSource:
		return "S"
	case LocTarget:
		return "T"
	}
	return "?"
}

// Op is a node of a data-transfer program DAG.
type Op struct {
	// ID is the op's index within its Graph.
	ID int
	// Kind is the primitive operation.
	Kind OpKind
	// Out is the fragment the op produces: the scanned fragment for Scan,
	// the merged fragment for Combine, the input fragment for Split (whose
	// actual outputs are the fragments on its out-edges), and the written
	// fragment for Write.
	Out *Fragment
	// Parts are the output fragments of a Split, nil otherwise.
	Parts []*Fragment
}

func (o *Op) String() string {
	switch o.Kind {
	case OpSplit:
		names := make([]string, len(o.Parts))
		for i, p := range o.Parts {
			names[i] = p.Name
		}
		return fmt.Sprintf("Split(%s -> %s)", o.Out.Name, strings.Join(names, ", "))
	default:
		return fmt.Sprintf("%s(%s)", o.Kind, o.Out.Name)
	}
}

// Edge is a data-flow edge carrying a fragment between two ops. When its
// endpoints are placed at different systems it is a cross-edge and incurs
// communication cost (§4.1).
type Edge struct {
	From, To *Op
	// Frag is the fragment flowing along the edge (OP1.out in the paper's
	// comm_cost definition, restricted to the piece consumed by To).
	Frag *Fragment
}

// Graph is a data-transfer program: a DAG of primitive operations
// (Definition 3.10).
type Graph struct {
	Ops   []*Op
	Edges []*Edge

	in, out map[int][]*Edge
}

// NewGraph returns an empty program graph.
func NewGraph() *Graph {
	return &Graph{in: make(map[int][]*Edge), out: make(map[int][]*Edge)}
}

// AddOp appends an operation and assigns its ID.
func (g *Graph) AddOp(kind OpKind, out *Fragment, parts ...*Fragment) *Op {
	op := &Op{ID: len(g.Ops), Kind: kind, Out: out, Parts: parts}
	g.Ops = append(g.Ops, op)
	return op
}

// Connect adds a data-flow edge carrying frag from a to b.
func (g *Graph) Connect(a, b *Op, frag *Fragment) *Edge {
	e := &Edge{From: a, To: b, Frag: frag}
	g.Edges = append(g.Edges, e)
	g.in[b.ID] = append(g.in[b.ID], e)
	g.out[a.ID] = append(g.out[a.ID], e)
	return e
}

// In returns the edges entering op.
func (g *Graph) In(op *Op) []*Edge { return g.in[op.ID] }

// Out returns the edges leaving op.
func (g *Graph) Out(op *Op) []*Edge { return g.out[op.ID] }

// FragmentsByName is the program's fragment dictionary — every op output,
// split part and edge fragment keyed by name — which shipment decoders
// resolve instance headers against.
func (g *Graph) FragmentsByName() map[string]*Fragment {
	frags := map[string]*Fragment{}
	for _, op := range g.Ops {
		frags[op.Out.Name] = op.Out
		for _, p := range op.Parts {
			frags[p.Name] = p
		}
	}
	for _, ed := range g.Edges {
		frags[ed.Frag.Name] = ed.Frag
	}
	return frags
}

// Topo returns the ops in a topological order. Ops are created
// producer-first by the program generator, so op ID order is already
// topological; this verifies it in debug builds and returns it.
func (g *Graph) Topo() []*Op {
	out := make([]*Op, len(g.Ops))
	copy(out, g.Ops)
	return out
}

// Validate checks structural invariants: acyclicity via ID ordering
// (producers must precede consumers), correct in/out degrees per op kind,
// edge fragments consistent with their producers, and one reader per
// output: no two out-edges of an op carry the same fragment. Both
// fragmentations partition the schema, so each piece of data flows along
// one path, and the op reading an output may consume it in place.
func (g *Graph) Validate() error {
	for _, e := range g.Edges {
		if e.From.ID >= e.To.ID {
			return fmt.Errorf("core: graph edge %s -> %s violates topological ID order", e.From, e.To)
		}
		switch e.From.Kind {
		case OpSplit:
			found := false
			for _, p := range e.From.Parts {
				if p == e.Frag {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("core: edge from %s carries %q which is not a split part", e.From, e.Frag.Name)
			}
		case OpWrite:
			return fmt.Errorf("core: Write %s has outgoing edge", e.From)
		default:
			if e.Frag != e.From.Out {
				return fmt.Errorf("core: edge from %s carries %q, want %q", e.From, e.Frag.Name, e.From.Out.Name)
			}
		}
	}
	for _, op := range g.Ops {
		outs := g.out[op.ID]
		for i, e := range outs {
			for _, prev := range outs[:i] {
				if prev.Frag == e.Frag {
					return fmt.Errorf("core: %s feeds %q to more than one edge", op, e.Frag.Name)
				}
			}
		}
		nin, nout := len(g.in[op.ID]), len(outs)
		switch op.Kind {
		case OpScan:
			if nin != 0 {
				return fmt.Errorf("core: Scan %s has %d inputs", op, nin)
			}
		case OpCombine:
			if nin != 2 {
				return fmt.Errorf("core: Combine %s has %d inputs, want 2", op, nin)
			}
		case OpSplit:
			if nin != 1 {
				return fmt.Errorf("core: Split %s has %d inputs, want 1", op, nin)
			}
			if nout < 1 {
				return fmt.Errorf("core: Split %s has no outputs", op)
			}
		case OpWrite:
			if nin != 1 {
				return fmt.Errorf("core: Write %s has %d inputs, want 1", op, nin)
			}
			if nout != 0 {
				return fmt.Errorf("core: Write %s has outputs", op)
			}
		}
	}
	return nil
}

// Assignment maps each op (by ID) to a location. It is kept separate from
// the Graph so that placement search does not mutate shared programs.
type Assignment []Location

// NewAssignment returns an all-unassigned assignment for g.
func NewAssignment(g *Graph) Assignment { return make(Assignment, len(g.Ops)) }

// Monotone reports whether the assignment ships data one way only: no edge
// runs from a target-placed op to a source-placed op (§4.1 considers
// one-way data shipping).
func (a Assignment) Monotone(g *Graph) bool {
	for _, e := range g.Edges {
		if a[e.From.ID] == LocTarget && a[e.To.ID] == LocSource {
			return false
		}
	}
	return true
}

// Complete reports whether every op has a location.
func (a Assignment) Complete() bool {
	for _, l := range a {
		if l == LocUnassigned {
			return false
		}
	}
	return true
}

// String renders the program with one op per line, annotated with its
// inputs, for debugging and golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	for _, op := range g.Ops {
		var ins []string
		for _, e := range g.in[op.ID] {
			ins = append(ins, fmt.Sprintf("#%d:%s", e.From.ID, e.Frag.Name))
		}
		sort.Strings(ins)
		fmt.Fprintf(&b, "#%d %s", op.ID, op)
		if len(ins) > 0 {
			fmt.Fprintf(&b, " <- %s", strings.Join(ins, ", "))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// DOT renders the program in Graphviz dot syntax, optionally colored by a
// placement (source ops dotted blue, target ops solid red); pass nil for an
// unplaced program. Handy for inspecting generated plans:
//
//	dot -Tsvg program.dot > program.svg
func (g *Graph) DOT(a Assignment) string {
	var b strings.Builder
	b.WriteString("digraph program {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, op := range g.Ops {
		attrs := ""
		if a != nil && op.ID < len(a) {
			switch a[op.ID] {
			case LocSource:
				attrs = `, color=blue, style=dashed`
			case LocTarget:
				attrs = `, color=red`
			}
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", op.ID, op.String(), attrs)
	}
	for _, e := range g.Edges {
		style := ""
		if a != nil && e.From.ID < len(a) && e.To.ID < len(a) &&
			a[e.From.ID] == LocSource && a[e.To.ID] == LocTarget {
			style = ` [label="ship", penwidth=2]`
		}
		fmt.Fprintf(&b, "  n%d -> n%d%s;\n", e.From.ID, e.To.ID, style)
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarizes a program's operation mix.
type Stats struct {
	Scans, Combines, Splits, Writes int
}

// OpStats counts the operations of each kind.
func (g *Graph) OpStats() Stats {
	var s Stats
	for _, op := range g.Ops {
		switch op.Kind {
		case OpScan:
			s.Scans++
		case OpCombine:
			s.Combines++
		case OpSplit:
			s.Splits++
		case OpWrite:
			s.Writes++
		}
	}
	return s
}
