package reliable

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

func TestLedgerChunkCheckpoint(t *testing.T) {
	l := NewLedger()
	if l.Checkpoint() != 0 {
		t.Fatalf("fresh checkpoint = %d", l.Checkpoint())
	}
	if !l.AdmitChunk(0) {
		t.Fatal("chunk 0 rejected")
	}
	l.ChunkDone(0)
	l.ChunkDone(1)
	if l.Checkpoint() != 2 {
		t.Fatalf("checkpoint = %d, want 2", l.Checkpoint())
	}
	if l.AdmitChunk(1) {
		t.Fatal("replayed chunk 1 admitted")
	}
	if !l.AdmitChunk(2) {
		t.Fatal("next chunk rejected")
	}
	if !l.AdmitChunk(-1) {
		t.Fatal("unsequenced chunk rejected")
	}
	l.ChunkDone(-1)
	if l.Checkpoint() != 2 {
		t.Fatal("unsequenced chunk moved the checkpoint")
	}
}

// keepRecord asks the ledger about a chunk of one.
func keepRecord(l *Ledger, edge string, rec *xmltree.Node) bool {
	return len(l.KeepRecords(edge, []*xmltree.Node{rec})) == 1
}

func TestLedgerRecordDedup(t *testing.T) {
	l := NewLedger()
	r1 := &xmltree.Node{Name: "Customer", ID: "c1"}
	r2 := &xmltree.Node{Name: "Customer", ID: "c2"}
	anon := &xmltree.Node{Name: "Customer"}
	if !keepRecord(l, "e1", r1) || !keepRecord(l, "e1", r2) {
		t.Fatal("first sighting dropped")
	}
	if keepRecord(l, "e1", r1) {
		t.Fatal("replayed record kept")
	}
	if !keepRecord(l, "e2", r1) {
		t.Fatal("same ID on a different edge must be distinct")
	}
	if !keepRecord(l, "e1", anon) || !keepRecord(l, "e1", anon) {
		t.Fatal("ID-less records must always pass")
	}
	if l.Deduped() != 1 {
		t.Fatalf("Deduped = %d, want 1", l.Deduped())
	}
	// Edge and ID are separate keys, not one concatenation: pairs whose
	// joined bytes coincide stay apart.
	if !keepRecord(l, "a\x00b", &xmltree.Node{ID: "c"}) || !keepRecord(l, "a", &xmltree.Node{ID: "b\x00c"}) {
		t.Fatal("(edge, ID) pairs aliased across the edge boundary")
	}
}

// TestLedgerSteadyStateAllocatesNothing: deciding a record costs no heap
// allocation — replays outright, and first sightings while the edge's ID
// set has room (the set files the records' own ID strings). 4,097 warm-up
// IDs leave the set just past a doubling, with room for the 512 first
// sightings measured.
func TestLedgerSteadyStateAllocatesNothing(t *testing.T) {
	l := NewLedger()
	warm := make([]*xmltree.Node, 4097)
	for i := range warm {
		warm[i] = &xmltree.Node{Name: "item", ID: fmt.Sprintf("w.%d", i)}
	}
	l.KeepRecords("0:items", warm)
	replay := testing.AllocsPerRun(10, func() {
		if len(l.KeepRecords("0:items", warm[:512])) != 0 {
			t.Fatal("replay kept")
		}
	})
	// AllocsPerRun makes one warm-up call besides the runs it measures, and
	// every call needs IDs the ledger has not seen.
	const runs = 3
	var batches [][]*xmltree.Node
	for b := 0; b <= runs; b++ {
		recs := make([]*xmltree.Node, 128)
		for i := range recs {
			recs[i] = &xmltree.Node{Name: "item", ID: fmt.Sprintf("%d.%d", b, i)}
		}
		batches = append(batches, recs)
	}
	first := testing.AllocsPerRun(runs, func() {
		recs := batches[0]
		batches = batches[1:]
		if len(l.KeepRecords("0:items", recs)) != len(recs) {
			t.Fatal("first sighting dropped")
		}
	})
	if replay != 0 || first != 0 {
		t.Errorf("allocations per chunk: replay of 512 %.0f, 128 first sightings %.0f; want 0 and 0", replay, first)
	}
}

// The ledger keeps and drops exactly what a Go map keyed by (edge, ID)
// does, over chunks replayed across several edges — IDs drawn from a space
// small enough that every edge sees replays and its tables start tiny, so
// probes collide — and edges whose joined bytes alias across the boundary.
func TestLedgerMatchesMapReference(t *testing.T) {
	type pair struct{ edge, id string }
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		edges := []string{"0:items", "1:people", "a\x00b", "a", "", "b"}
		l := NewLedger()
		ref := make(map[pair]bool)
		deduped := 0
		for c := 0; c < 200; c++ {
			edge := edges[rng.Intn(len(edges))]
			recs := make([]*xmltree.Node, rng.Intn(8))
			var want []*xmltree.Node
			for i := range recs {
				id := fmt.Sprint(rng.Intn(40))
				switch rng.Intn(10) {
				case 0:
					id = ""
				case 1:
					id = "b\x00" + id // with edge "a", aliases edge "a\x00b"
				}
				recs[i] = &xmltree.Node{Name: "r", ID: id}
				switch {
				case id == "":
					want = append(want, recs[i])
				case ref[pair{edge, id}]:
					deduped++
				default:
					ref[pair{edge, id}] = true
					want = append(want, recs[i])
				}
			}
			if got := l.KeepRecords(edge, recs); !slices.Equal(got, want) {
				t.Fatalf("seed %d chunk %d on %q: kept %d records, want %d", seed, c, edge, len(got), len(want))
			}
		}
		if l.Deduped() != int64(deduped) {
			t.Fatalf("seed %d: Deduped = %d, want %d", seed, l.Deduped(), deduped)
		}
	}
}

// 65,536 first sightings on one edge, in 64-record chunks, cost the
// ledger at most 60 B a record — the ID strings' headers and the slots
// that file them, both grown by doubling — where the map it replaced
// took 106.7.
func TestLedgerFirstSightingByteBudget(t *testing.T) {
	const n, chunk = 1 << 16, 64
	recs := make([]*xmltree.Node, n)
	for i := range recs {
		recs[i] = &xmltree.Node{Name: "item", ID: strconv.Itoa(i)}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := NewLedger()
	for i := 0; i < n; i += chunk {
		if len(l.KeepRecords("0:items", recs[i:i+chunk])) != chunk {
			t.Fatal("first sighting dropped")
		}
	}
	runtime.ReadMemStats(&after)
	perRec := float64(after.TotalAlloc-before.TotalAlloc) / n
	if perRec > 60 {
		t.Errorf("%d first sightings: %.1f B/record, want <= 60", n, perRec)
	}
	t.Logf("%d first sightings: %.1f B/record", n, perRec)
}

func TestSessionStoreLifecycle(t *testing.T) {
	s := NewSessionStore()
	clock := time.Unix(0, 0)
	s.now = func() time.Time { return clock }
	if s.Get("a") != nil {
		t.Fatal("unknown session returned")
	}
	a := s.GetOrCreate("a")
	if a == nil || s.GetOrCreate("a") != a {
		t.Fatal("GetOrCreate not idempotent")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Expired sessions are swept when a new one is minted.
	clock = clock.Add(time.Hour)
	b := s.GetOrCreate("b")
	if b == nil || s.Get("a") != nil {
		t.Fatal("expired session survived the sweep")
	}
	s.Delete("b")
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete", s.Len())
	}
}

func TestNewSessionIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewSessionID(7)
		if seen[id] {
			t.Fatalf("duplicate session ID %s", id)
		}
		seen[id] = true
	}
}

func TestChunkShipment(t *testing.T) {
	sch := schema.CustomerInfo()
	frag, err := core.NewFragment(sch, "F", []string{"Customer", "CustName"})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*xmltree.Node, 10)
	for i := range recs {
		recs[i] = &xmltree.Node{Name: "Customer", ID: string(rune('a' + i))}
	}
	out := map[string]*core.Instance{
		"1:F": {Frag: frag, Records: recs},
		"0:F": {Frag: frag, Records: recs[:1]},
		"2:F": {Frag: frag}, // empty instance still announces itself
	}
	chunks := ChunkShipment(out, 4)
	// 0:F -> 1 chunk, 1:F -> 3 chunks (4+4+2), 2:F -> 1 empty chunk.
	if len(chunks) != 5 {
		t.Fatalf("chunks = %d, want 5", len(chunks))
	}
	for i, c := range chunks {
		if c.Seq != int64(i) {
			t.Fatalf("chunk %d has seq %d", i, c.Seq)
		}
	}
	if chunks[0].Key != "0:F" || len(chunks[0].Recs) != 1 {
		t.Fatalf("chunk 0 = %+v", chunks[0])
	}
	if chunks[1].Key != "1:F" || len(chunks[1].Recs) != 4 || len(chunks[3].Recs) != 2 {
		t.Fatal("1:F not split 4/4/2")
	}
	if chunks[4].Key != "2:F" || len(chunks[4].Recs) != 0 {
		t.Fatalf("empty instance chunk = %+v", chunks[4])
	}
	total := 0
	for _, c := range chunks {
		if c.Key == "1:F" {
			total += len(c.Recs)
		}
	}
	if total != 10 {
		t.Fatalf("records lost in chunking: %d", total)
	}
}

func TestChunkShipmentDefaultSize(t *testing.T) {
	sch := schema.CustomerInfo()
	frag, err := core.NewFragment(sch, "F", []string{"Customer", "CustName"})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*xmltree.Node, 130)
	for i := range recs {
		recs[i] = &xmltree.Node{Name: "Customer"}
	}
	chunks := ChunkShipment(map[string]*core.Instance{"k": {Frag: frag, Records: recs}}, 0)
	if len(chunks) != 3 { // 64+64+2
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
}

// TestSessionStoreSweep pins the idle-collection rules: Sweep collects
// sessions idle past MaxAge, any store access (Get or GetOrCreate)
// refreshes a session's idleness clock so an active transfer is never
// collected mid-flight, and GetOrCreate sweeps opportunistically as new
// sessions arrive.
func TestSessionStoreSweep(t *testing.T) {
	s := NewSessionStore()
	s.MaxAge = 10 * time.Minute
	clock := time.Unix(0, 0)
	s.now = func() time.Time { return clock }

	s.GetOrCreate("idle")
	s.GetOrCreate("active")
	clock = clock.Add(6 * time.Minute)
	s.Get("active") // refreshes the idleness clock
	clock = clock.Add(6 * time.Minute)

	// "idle" is 12 minutes untouched, "active" only 6.
	if n := s.Sweep(); n != 1 {
		t.Fatalf("Sweep collected %d sessions, want 1", n)
	}
	if s.Get("idle") != nil {
		t.Fatal("idle session survived the sweep")
	}
	if s.Get("active") == nil {
		t.Fatal("recently touched session was collected")
	}

	// Minting a new session sweeps opportunistically.
	clock = clock.Add(11 * time.Minute)
	s.GetOrCreate("fresh")
	if s.Len() != 1 {
		t.Fatalf("GetOrCreate did not sweep: %d sessions live", s.Len())
	}
	if s.Get("fresh") == nil {
		t.Fatal("freshly minted session missing")
	}
}

// TestSessionStoreSweeper checks the background sweeper: completed state is
// collected without any further store traffic, and stop is idempotent.
func TestSessionStoreSweeper(t *testing.T) {
	s := NewSessionStore()
	s.MaxAge = time.Millisecond
	s.GetOrCreate("done")
	stop := s.StartSweeper(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for s.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeper never collected the idle session (%d live)", s.Len())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // stopping twice must not panic
}

// TestPermanentNil checks the wrapper's degenerate case.
func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
	base := fmt.Errorf("boom")
	p := Permanent(base)
	if p.Error() != "boom" || !errors.Is(p, base) {
		t.Fatalf("Permanent wrapper mangled the cause: %v", p)
	}
}
