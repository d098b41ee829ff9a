// Package hashtab is the hash table behind an exchange's per-row indexes: a
// Table holds only int32 slots, which the garbage collector never scans, and
// the caller keeps the keys and compares them in full. Keys come off the
// wire, so the hash is hash/maphash under a seed drawn once per process.
package hashtab

import "hash/maphash"

var seed = maphash.MakeSeed()

// Hash returns the process-seeded hash of key.
func Hash(key string) uint64 { return maphash.String(seed, key) }

// Table files positions by hash, probing linearly over power-of-two slots at
// most half full that hold a position + 1, or 0. The zero Table is empty.
type Table struct {
	slots []int32
	n     int32 // positions filed
}

// Init makes t an empty table that files n positions without growing, and
// returns extra more int32s cut from the same allocation.
func (t *Table) Init(n, extra int) []int32 {
	ns := 8
	for ns < 2*n {
		ns *= 2
	}
	buf := make([]int32, ns+extra)
	*t = Table{slots: buf[:ns:ns]}
	return buf[ns:]
}

// Find returns the position filed under hash h whose key same accepts, or -1.
func (t *Table) Find(h uint64, same func(p int) bool) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; t.slots[i] != 0; i = (i + 1) & mask {
		if p := int(t.slots[i] - 1); same(p) {
			return p
		}
	}
	return -1
}

// Add files the next position under hash h for a key Find did not find, and
// returns it; a half-full table first doubles, refiling each p by hashOf(p).
func (t *Table) Add(h uint64, hashOf func(p int) uint64) int {
	if 2*int(t.n) >= len(t.slots) {
		n := t.n
		*t = Table{slots: make([]int32, max(8, 2*len(t.slots)))}
		for p := range n {
			t.Add(hashOf(int(p)), nil)
		}
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.n++
	t.slots[i] = t.n
	return int(t.n - 1)
}

// Append appends v to s, doubling a full s: append grows large slices 1.25×
// at a time, so storage built key by key would allocate five times its size.
func Append[E any](s []E, v E) []E {
	if len(s) == cap(s) {
		s = append(make([]E, 0, max(2*len(s), 8)), s...)
	}
	return append(s, v)
}
