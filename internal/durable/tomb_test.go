package durable

import (
	"bytes"
	"testing"

	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// tombRec builds a minimal journaled record tree.
func tombRec(id string) *xmltree.Node {
	return &xmltree.Node{Name: "item", ID: id, Kids: []*xmltree.Node{{Name: "iname", Text: "x-" + id}}}
}

// TestJournalTombBatchPipeline journals a record chunk and a tombstone
// chunk through the group-commit pipeline (TombAsync + Flush), reopens the
// WAL, and checks recovery rebuilds both in commit order with the
// checkpoint advanced past the deletion — the batched path must order and
// persist tombstone frames exactly like the serial path does.
func TestJournalTombBatchPipeline(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Mint("sess-1"); err != nil {
		t.Fatal(err)
	}
	pc, err := j.ChunkAsync("sess-1", "k1", "ITEM", 0, []*xmltree.Node{tombRec("4"), tombRec("9")})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := j.TombAsync("sess-1", "k1", 1, []string{"4", "17"})
	if err != nil {
		t.Fatal(err)
	}
	j.Flush()
	if err := pc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := pt.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	ss := sessionsOf(t, j2)
	if len(ss) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(ss))
	}
	s := ss[0]
	if s.Next != 2 {
		t.Errorf("recovered checkpoint Next = %d, want 2 (tombstone chunk must advance it)", s.Next)
	}
	if len(s.Chunks) != 2 {
		t.Fatalf("recovered %d chunks, want 2", len(s.Chunks))
	}
	if c := s.Chunks[0]; c.Format != wire.CodecXML || !bytes.Equal(c.Bytes, xmlBody([]*xmltree.Node{tombRec("4"), tombRec("9")})) {
		t.Errorf("chunk 0 = %q %q, want the record chunk's xml body", c.Format, c.Bytes)
	}
	tc := s.Chunks[1]
	if tc.Format != wire.FormatTombstones || tc.Seq != 1 || tc.Key != "k1" {
		t.Fatalf("chunk 1 = {Format:%q Seq:%d Key:%q}, want tombstone chunk seq 1 key k1", tc.Format, tc.Seq, tc.Key)
	}
	if want := tombBody([]string{"4", "17"}); !bytes.Equal(tc.Bytes, want) {
		t.Errorf("recovered tombstone payload = %q, want %q", tc.Bytes, want)
	}
}

// TestJournalTombReplayIsIdempotent re-journals the same tombstone seq
// twice (a crash between WAL append and ack makes redelivery legal) and
// checks recovery keeps a single checkpoint advance — the dedup rule for
// record chunks must hold for deletion chunks too.
func TestJournalTombReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Mint("sess-1"); err != nil {
		t.Fatal(err)
	}
	if err := commitTomb(j, "sess-1", "k1", 0, []string{"3"}); err != nil {
		t.Fatal(err)
	}
	if err := commitTomb(j, "sess-1", "k1", 0, []string{"3"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	ss := sessionsOf(t, j2)
	if len(ss) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(ss))
	}
	if ss[0].Next != 1 {
		t.Errorf("Next = %d after duplicate tombstone replay, want 1", ss[0].Next)
	}
	if n := len(ss[0].Chunks); n != 1 {
		t.Errorf("recovered %d chunks after duplicate tombstone replay, want 1", n)
	}
}
