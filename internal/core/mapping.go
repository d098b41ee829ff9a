package core

import (
	"fmt"
)

// Mapping relates a source fragmentation to a target fragmentation over the
// same XML Schema (Definition 3.5): each target fragment is associated with
// the source fragments it draws elements from.
type Mapping struct {
	// Source and Target are valid fragmentations of the same schema.
	Source, Target *Fragmentation
	// Assoc maps each target fragment name to the source fragments whose
	// element sets intersect it, in source order.
	Assoc map[string][]*Fragment
}

// NewMapping derives the mapping M from T to the powerset of S by element
// overlap. It fails if the fragmentations are over different schemas.
func NewMapping(src, tgt *Fragmentation) (*Mapping, error) {
	if src.Schema != tgt.Schema {
		return nil, fmt.Errorf("core: mapping requires fragmentations of the same schema")
	}
	m := &Mapping{Source: src, Target: tgt, Assoc: make(map[string][]*Fragment, tgt.Len())}
	for _, t := range tgt.Fragments {
		for _, s := range src.Fragments {
			if overlaps(s, t) {
				m.Assoc[t.Name] = append(m.Assoc[t.Name], s)
			}
		}
		if len(m.Assoc[t.Name]) == 0 {
			return nil, fmt.Errorf("core: target fragment %q has no source fragment", t.Name)
		}
	}
	return m, nil
}

func overlaps(a, b *Fragment) bool {
	small, big := a, b
	if len(b.Elems) < len(a.Elems) {
		small, big = b, a
	}
	for e := range small.Elems {
		if big.Elems[e] {
			return true
		}
	}
	return false
}

// Pieces returns, for a source fragment s, the intersections of s with each
// target fragment it overlaps, as fragments (each intersection of two
// connected tree regions is itself connected). The returned slice follows
// target order; if s lies entirely within one target fragment the single
// piece is s itself.
func (m *Mapping) Pieces(s *Fragment) ([]*Fragment, error) {
	var pieces []*Fragment
	for _, t := range m.Target.Fragments {
		var inter []string
		for e := range s.Elems {
			if t.Elems[e] {
				inter = append(inter, e)
			}
		}
		if len(inter) == 0 {
			continue
		}
		if len(inter) == len(s.Elems) {
			return []*Fragment{s}, nil
		}
		p, err := NewFragment(m.Source.Schema, "", inter)
		if err != nil {
			return nil, fmt.Errorf("core: piece of %q for target %q: %w", s.Name, t.Name, err)
		}
		pieces = append(pieces, p)
	}
	return pieces, nil
}
