package xmltree

import (
	"fmt"
	"strings"
	"testing"
)

// TestArenaStringsSurviveRollover is the slab's aliasing contract: a string
// handed out keeps its bytes when later writes fill its block and roll the
// arena over to fresh ones.
func TestArenaStringsSurviveRollover(t *testing.T) {
	var a Arena
	var got, want []string
	prev := ""
	for i := 0; len(want) < 4000; i++ {
		w := fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", i%97))
		got, want = append(got, a.Bytes([]byte(w))), append(want, w)
		// Dewey-style key: keep a prefix of the previous key, add a suffix.
		keep := len(prev) * (i % 4) / 4
		suffix := fmt.Sprintf(".%d", i)
		want = append(want, prev[:keep]+suffix)
		prev = a.Concat(prev[:keep], []byte(suffix))
		got = append(got, prev)
	}
	big := strings.Repeat("B", arenaMaxBytes) // past the slab's per-value limit
	got, want = append(got, a.Bytes([]byte(big))), append(want, big)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("string %d changed after later writes: %q, want %q", i, got[i], want[i])
		}
	}
	if s := a.Bytes(nil); s != "" {
		t.Errorf("Bytes(nil) = %q", s)
	}
	var nilArena *Arena
	if s := nilArena.Concat("ab", []byte("cd")); s != "abcd" {
		t.Errorf("nil arena Concat = %q", s)
	}
}

// TestArenaAmortizesStrings: the slab costs a handful of blocks, not one
// heap string per value.
func TestArenaAmortizesStrings(t *testing.T) {
	val := []byte("1.2.3.4.5")
	allocs := testing.AllocsPerRun(20, func() {
		var a Arena
		for i := 0; i < 1000; i++ {
			_ = a.Bytes(val)
		}
	})
	if allocs > 8 {
		t.Errorf("1000 slab strings cost %.0f allocations, want a few blocks", allocs)
	}
}

// TestArenaReserveIsDemandSized: a reserved arena takes one slab of each
// kind for a unit of the reserved size, and a small reservation stays
// small (a 300-byte shipment must not pay for a full-size block).
func TestArenaReserveIsDemandSized(t *testing.T) {
	val := []byte("0123456789")
	allocs := testing.AllocsPerRun(20, func() {
		var a Arena
		a.Reserve(512, 512*len(val))
		for i := 0; i < 512; i++ {
			n := a.New()
			n.Text = a.Bytes(val)
			n.Kids = a.Kids(1)
		}
	})
	if allocs > 3 {
		t.Errorf("reserved unit cost %.0f allocations, want one per slab kind", allocs)
	}
	var a Arena
	a.Reserve(2, 30)
	_ = a.Bytes(val)
	if c := a.text.Cap(); c > 64 {
		t.Errorf("30-byte reservation took a %d-byte block", c)
	}
	a.New()
	if len(a.slab) != 1 {
		t.Errorf("2-node reservation left %d spare nodes, want 1", len(a.slab))
	}
}

// TestArenaKidsDoNotOverlap: a child slice grown past its reserved room
// moves away instead of writing into the next node's children.
func TestArenaKidsDoNotOverlap(t *testing.T) {
	var a Arena
	first, second := &Node{Name: "first"}, &Node{Name: "second"}
	first.Kids, second.Kids = a.Kids(1), a.Kids(1)
	second.AddKid(&Node{Name: "s1"})
	first.AddKid(&Node{Name: "f1"})
	first.AddKid(&Node{Name: "f2"})
	if len(second.Kids) != 1 || second.Kids[0].Name != "s1" {
		t.Fatalf("neighbour's kids overwritten: %v", second.Kids)
	}
	if len(first.Kids) != 2 || first.Kids[0].Name != "f1" || first.Kids[1].Name != "f2" {
		t.Fatalf("grown kids wrong: %v", first.Kids)
	}
}

// TestArenaResetReuses is the reuse contract: once its slabs have grown to
// a unit, a reset arena builds each further unit without allocating,
// carving zeroed nodes out of the slabs it holds, and the strings it
// handed out outlive Reset.
func TestArenaResetReuses(t *testing.T) {
	var a Arena
	build := func() *Node {
		root := a.New()
		root.Name, root.Kids = "r", a.Kids(100)
		for i := 0; i < 100; i++ {
			k := a.New()
			k.Name, k.Text = "k", "v"
			root.Kids = append(root.Kids, k)
		}
		return root
	}
	for i := 0; i < 4; i++ {
		build()
		a.Reset()
	}
	kept := a.Bytes([]byte("kept"))
	if allocs := testing.AllocsPerRun(20, func() { build(); a.Reset() }); allocs != 0 {
		t.Errorf("a reset arena built a unit in %.0f allocations, want 0", allocs)
	}
	if kept != "kept" {
		t.Errorf("a string from before Reset reads %q", kept)
	}
	build()
	a.Reset()
	if n := a.New(); n.Name != "" || n.Text != "" || n.Kids != nil {
		t.Errorf("a node carved after Reset is not zero: %+v", n)
	}
	if k := a.Kids(3); len(k) != 0 || cap(k) != 3 || k[:3][0] != nil {
		t.Errorf("a kid slice carved after Reset is not empty and zeroed")
	}
}
