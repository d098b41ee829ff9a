package reliable

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

func TestLedgerChunkCheckpoint(t *testing.T) {
	l := &Ledger{}
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
	if l.Declined() != 1 {
		t.Fatalf("Declined = %d, want 1 (the replayed chunk 1)", l.Declined())
	}
	l.Restore(1)
	if l.Checkpoint() != 2 {
		t.Fatal("Restore moved the checkpoint backwards")
	}
}

func TestSessionStoreLifecycle(t *testing.T) {
	s := NewSessionStore[int]()
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
	s := NewSessionStore[int]()
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
	s := NewSessionStore[int]()
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
