package main

// Seeded churn for the delta workload — the generator of
// internal/registry/delta_test.go, which lives in a _test.go file and
// cannot be imported.

import (
	"fmt"
	"math/rand"
	"strconv"

	"xdx/internal/xmltree"
)

// maxIntID returns the largest integer instance ID in the subtree, so
// inserts can mint IDs that never collide with live ones.
func maxIntID(n *xmltree.Node) int {
	m := 0
	if v, err := strconv.Atoi(n.ID); err == nil {
		m = v
	}
	for _, k := range n.Kids {
		if v := maxIntID(k); v > m {
			m = v
		}
	}
	return m
}

// cloneWithIDs deep-copies a subtree under fresh sequential IDs with
// consistent PARENT links, the way an insert enters a store.
func cloneWithIDs(n *xmltree.Node, parent string, next *int) *xmltree.Node {
	*next++
	c := &xmltree.Node{Name: n.Name, Text: n.Text, ID: strconv.Itoa(*next), Parent: parent}
	for _, k := range n.Kids {
		c.AddKid(cloneWithIDs(k, c.ID, next))
	}
	return c
}

// churnAuction mutates an XMark auction document in place: of its items,
// frac/3 each (at least one) are deleted, updated (idescription rewritten)
// and inserted (cloned under fresh IDs at the end of their region). IDs of
// surviving nodes never change, so the reconciliation diff of a delta
// exchange sees exactly these records.
func churnAuction(doc *xmltree.Node, rng *rand.Rand, frac float64, round int) {
	regions := doc.Find("regions")
	type slot struct{ region, item *xmltree.Node }
	var slots []slot
	for _, region := range regions.Kids {
		for _, it := range region.Kids {
			slots = append(slots, slot{region, it})
		}
	}
	n := len(slots)
	per := int(frac * float64(n) / 3)
	if per < 1 {
		per = 1
	}
	if 3*per > n {
		per = n / 3
	}
	perm := rng.Perm(n)

	doomed := map[*xmltree.Node]bool{}
	for _, i := range perm[:per] {
		doomed[slots[i].item] = true
	}
	for _, region := range regions.Kids {
		kept := region.Kids[:0]
		for _, k := range region.Kids {
			if !doomed[k] {
				kept = append(kept, k)
			}
		}
		region.Kids = kept
	}
	for _, i := range perm[per : 2*per] {
		it := slots[i].item
		if d := it.Find("idescription"); d != nil {
			d.Text = fmt.Sprintf("churned round %d item %s", round, it.ID)
		}
	}
	next := maxIntID(doc)
	for _, i := range perm[2*per : 3*per] {
		src := slots[i]
		fresh := cloneWithIDs(src.item, src.region.ID, &next)
		if d := fresh.Find("iname"); d != nil {
			d.Text = fmt.Sprintf("added round %d as %s", round, fresh.ID)
		}
		src.region.AddKid(fresh)
	}
}
