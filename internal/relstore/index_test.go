package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

// lookupRef answers Lookup from a Go map built over the table's rows: each
// key's rows, in row order.
func lookupRef(tb *Table, col int) map[string][][]string {
	ref := make(map[string][][]string)
	for i := 0; i < tb.Len(); i++ {
		r := tb.rows[i]
		ref[r[col]] = append(ref[r[col]], r)
	}
	return ref
}

// The index answers every Lookup the way a Go map over the rows does, over
// random tables small enough that probes collide in the smallest slot
// arrays, with repeated and empty keys: after CreateIndex, after Inserts
// into the built index (which grow its arrays past their cut), and after a
// BulkLoad drops the index and CreateIndex rebuilds it.
func TestIndexMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := 1 + rng.Intn(12)
		next := 0
		rows := func(n int) [][]string {
			out := make([][]string, n)
			for i := range out {
				k := fmt.Sprint("k", rng.Intn(keys))
				if rng.Intn(6) == 0 {
					k = ""
				}
				out[i] = []string{strconv.Itoa(next), k}
				next++
			}
			return out
		}
		tb, _ := NewTable("t", []string{"v", "k"})
		check := func(when string) {
			t.Helper()
			ref := lookupRef(tb, 1)
			for _, key := range append(keyNames(keys), "", "absent") {
				got, err := tb.Lookup("k", key)
				if err != nil {
					t.Fatalf("seed %d, %s: %v", seed, when, err)
				}
				if !reflect.DeepEqual(got, ref[key]) {
					t.Fatalf("seed %d, %s: Lookup(%q) = %v, want %v", seed, when, key, got, ref[key])
				}
			}
		}
		insert := func(n int) {
			for _, r := range rows(n) {
				if err := tb.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tb.BulkLoad(rows(rng.Intn(20))); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		check("after CreateIndex")
		insert(1 + rng.Intn(30))
		check("after inserts")
		if err := tb.BulkLoad(rows(rng.Intn(10))); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Lookup("k", "k0"); err == nil {
			t.Fatalf("seed %d: the index survived a BulkLoad", seed)
		}
		if _, err := tb.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		check("after a rebuild")
		insert(rng.Intn(10))
		check("after inserts into the rebuild")
	}
}

// keyNames returns k0 ... k(n-1).
func keyNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprint("k", i)
	}
	return out
}

// perRun reports the heap allocations and bytes one call of f makes,
// averaged over runs calls after a warm-up call.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// CreateIndex over 65,536 rows, a distinct key per row (the root
// identifier column's shape), costs its slots, per-key and per-row arrays
// in one allocation and the Index itself: at most 32 B a row and 4
// allocations, where the map-backed index took 93.3 B a row and 263.
func TestCreateIndexByteBudget(t *testing.T) {
	const n = 1 << 16
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), "v"}
	}
	tb, _ := NewTable("t", []string{"k", "v"})
	if err := tb.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	allocs, bytes := perRun(3, func() {
		if _, err := tb.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
	})
	perRow := bytes / n
	if perRow > 32 || allocs > 4 {
		t.Errorf("CreateIndex over %d rows: %.1f B/row and %.0f allocations, want <= 32 and <= 4", n, perRow, allocs)
	}
	t.Logf("CreateIndex over %d rows: %.1f B/row, %.0f allocations", n, perRow, allocs)
}

// Lookup returns the rows whose indexed column equals key, in row order,
// through rowsWith; it returns an error if no index on col exists, where
// rowsWith would build one.
func (t *Table) Lookup(col, key string) ([][]string, error) {
	if t.indexes[col] == nil {
		return nil, fmt.Errorf("relstore: table %q: column %q not indexed", t.Name, col)
	}
	var out [][]string
	for _, r := range t.rowsWith(col, key) {
		out = append(out, t.rows[r])
	}
	return out, nil
}
