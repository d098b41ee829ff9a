package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"xdx/internal/hashtab"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// joinKey keys the Go map the join index is held to.
type joinKey struct{ name, id string }

// assertJoinIndex checks that in's join index files exactly ref's entries,
// and finds nothing under an ID no node carries.
func assertJoinIndex(t *testing.T, in *Instance, ref map[joinKey]*xmltree.Node, what string) {
	t.Helper()
	if len(in.idx.entries) != len(ref) {
		t.Fatalf("%s: %d entries, want %d", what, len(in.idx.entries), len(ref))
	}
	for k, want := range ref {
		if p := in.idx.find(hashtab.Hash(k.id), k.name, k.id); p < 0 || in.idx.entries[p] != want {
			t.Fatalf("%s: entry for %v is at %d, want %p", what, k, p, want)
		}
		if p := in.idx.find(hashtab.Hash(k.id+"x"), k.name, k.id+"x"); p >= 0 {
			t.Fatalf("%s: found (%s, %sx), which no node carries", what, k.name, k.id)
		}
	}
}

// The join index files what a Go map keyed by (element name, ID) holds.
// IDs come from a space far smaller than the node count, so one ID sits
// under several element names (and twice under one, where the node indexed
// last wins), and every ID's entries share a probe sequence.
func TestJoinIndexMatchesMapReference(t *testing.T) {
	sch := schema.Balanced(3, 2)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(sch, rng, 3)
		var renumber func(n *xmltree.Node)
		renumber = func(n *xmltree.Node) {
			n.ID = strconv.Itoa(rng.Intn(6))
			for _, k := range n.Kids {
				renumber(k)
			}
		}
		renumber(doc)
		in := &Instance{Records: doc.Kids}
		in.ensureIndex(sch)
		ref := make(map[joinKey]*xmltree.Node)
		var index func(n *xmltree.Node)
		index = func(n *xmltree.Node) {
			if in.interior[n.Name] {
				ref[joinKey{n.Name, n.ID}] = n
			}
			for _, k := range n.Kids {
				index(k)
			}
		}
		for _, r := range in.Records {
			index(r)
		}
		names := make(map[string]int)
		for k := range ref {
			names[k.id]++
		}
		shared := false
		for _, n := range names {
			shared = shared || n > 1
		}
		if !shared {
			t.Fatalf("seed %d: no ID under two element names", seed)
		}
		assertJoinIndex(t, in, ref, fmt.Sprintf("seed %d", seed))
	}
}
