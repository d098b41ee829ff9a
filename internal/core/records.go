package core

import "xdx/internal/xmltree"

// Records is a cross-edge's outbound records, held as trees (an Instance)
// or built on demand. A source Scan that only feeds cross-edges hands
// communication a snapshot of its store's rows (§4.1: the Scan's tuples go
// straight to the wire), and the records of each chunk are built from them
// as the chunk is encoded or hashed, then dropped.
type Records interface {
	// Len is the number of records.
	Len() int
	// Build appends records [i, j) to dst. Records held as trees are
	// appended as they are; records built on demand are carved from a and
	// stay valid until a is reset.
	Build(dst []*xmltree.Node, i, j int, a *xmltree.Arena) ([]*xmltree.Node, error)
}

// Len implements Records over the instance's record trees.
func (in *Instance) Len() int { return len(in.Records) }

// Build implements Records: the instance's trees, as they are.
func (in *Instance) Build(dst []*xmltree.Node, i, j int, _ *xmltree.Arena) ([]*xmltree.Node, error) {
	return append(dst, in.Records[i:j]...), nil
}

// Outbound is one cross-edge's shipment as the source holds it: the
// fragment flowing and its records.
type Outbound struct {
	Frag *Fragment
	Recs Records
}

// Pick returns the records of r at positions idx, in that order.
func Pick(r Records, idx []int) Records { return picked{r, idx} }

type picked struct {
	r   Records
	idx []int
}

func (p picked) Len() int { return len(p.idx) }

func (p picked) Build(dst []*xmltree.Node, i, j int, a *xmltree.Arena) ([]*xmltree.Node, error) {
	var err error
	for _, k := range p.idx[i:j] {
		if dst, err = p.r.Build(dst, k, k+1, a); err != nil {
			return dst, err
		}
	}
	return dst, nil
}
