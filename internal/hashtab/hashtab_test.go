package hashtab

import (
	"fmt"
	"math/rand"
	"testing"
)

// The table files what a Go map over the same keys holds, from the zero
// Table up through several doublings, with keys drawn from a small space
// so that lookups of absent keys and probe collisions are common.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table
	var keys []string
	ref := make(map[string]int)
	find := func(k string) int {
		return tab.Find(Hash(k), func(p int) bool { return keys[p] == k })
	}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprint(rng.Intn(2000))
		want, ok := ref[k]
		if !ok {
			want = -1
		}
		if got := find(k); got != want {
			t.Fatalf("step %d: Find(%q) = %d, want %d", i, k, got, want)
		}
		if !ok {
			p := tab.Add(Hash(k), func(p int) uint64 { return Hash(keys[p]) })
			if p != len(keys) {
				t.Fatalf("step %d: Add filed position %d, want %d", i, p, len(keys))
			}
			keys = Append(keys, k)
			ref[k] = p
		}
	}
	for k, p := range ref {
		if got := find(k); got != p {
			t.Fatalf("Find(%q) = %d, want %d", k, got, p)
		}
	}
}

// A table Init sized for n positions files n without growing.
func TestInitHoldsWithoutGrowing(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 8, 9, 100, 1 << 12} {
		allocs := testing.AllocsPerRun(3, func() {
			var tab Table
			tab.Init(n, 0)
			for p := 0; p < n; p++ {
				tab.Add(uint64(p)*0x9e3779b97f4a7c15, func(int) uint64 {
					t.Fatalf("a table sized for %d positions grew at position %d", n, p)
					return 0
				})
			}
		})
		if allocs != 1 {
			t.Errorf("filing %d positions in a table sized for them: %.0f allocations, want 1 (the slots)", n, allocs)
		}
	}
}

// Append doubles: 65,536 appends one at a time leave a capacity of 65,536
// and allocate under twice that in total, where append's 1.25× growth
// would allocate about five times.
func TestAppendDoubles(t *testing.T) {
	const n = 1 << 16
	var s []int32
	allocated := 0
	for i := 0; i < n; i++ {
		was := cap(s)
		if s = Append(s, int32(i)); cap(s) != was {
			allocated += cap(s)
		}
	}
	if cap(s) != n || allocated >= 2*n {
		t.Errorf("after %d appends: cap %d and %d elements allocated, want %d and under %d", n, cap(s), allocated, n, 2*n)
	}
}
