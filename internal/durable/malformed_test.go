package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendRawFrame appends one CRC-valid frame with an arbitrary payload to
// a closed WAL's log file — the attacker's (or bit-rot's) view: the frame
// machinery is intact, the payload is whatever it is.
func appendRawFrame(t *testing.T, dir string, payload string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, logFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var hdr [frameHeader]byte
	frameInto(hdr[:], []byte(payload))
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
}

// seedJournal writes a two-chunk session and closes the journal, returning
// the directory. The recovered state must always show Next=2.
func seedJournal(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Mint("s")
	if err := j.Chunk("s", "k", "f", 0, chunkRecs("a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Chunk("s", "k", "f", 1, chunkRecs("b", 2)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	return dir
}

// checkMalformedStop reopens a seeded journal whose log tail carries one
// malformed frame (followed by good frames that must also be discarded)
// and asserts replay stopped at the mangled frame without rewinding the
// checkpoint — the regression for the silent ParseInt-zeroing bug.
func checkMalformedStop(t *testing.T, dir string) {
	t.Helper()
	back, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatalf("recovery must stop, not fail: %v", err)
	}
	defer back.Close()
	st := back.RecoveryStats()
	if st.MalformedFrames != 1 {
		t.Fatalf("MalformedFrames = %d, want 1", st.MalformedFrames)
	}
	if st.TornBytes == 0 {
		t.Fatalf("malformed tail not counted as torn")
	}
	s := back.Sessions()
	if len(s) != 1 || s[0].ID != "s" {
		t.Fatalf("recovered sessions %+v", s)
	}
	if s[0].Next != 2 || len(s[0].Chunks) != 2 {
		t.Fatalf("checkpoint rewound or overrun: Next=%d chunks=%d, want 2/2", s[0].Next, len(s[0].Chunks))
	}
	// The tail was truncated at the malformed frame, so a second recovery
	// is clean.
	back.Close()
	again, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if st := again.RecoveryStats(); st.MalformedFrames != 0 || st.TornBytes != 0 {
		t.Fatalf("second recovery not clean: %+v", st)
	}
	if s := again.Sessions(); len(s) != 1 || s[0].Next != 2 {
		t.Fatalf("second recovery lost state: %+v", s)
	}
}

func TestJournalMalformedSeqStopsReplay(t *testing.T) {
	dir := seedJournal(t)
	// An attr-mangled chunk frame (seq is not a number), followed by a
	// perfectly good frame that must be discarded with the tail — replay
	// after a malformed frame cannot be trusted.
	appendRawFrame(t, dir, `<c id="s" key="k" frag="f" seq="notanumber"><item ID="z"/></c>`)
	appendRawFrame(t, dir, `<c id="s" key="k" frag="f" seq="7"><item ID="w"/></c>`)
	checkMalformedStop(t, dir)
}

func TestJournalMissingSeqStopsReplay(t *testing.T) {
	dir := seedJournal(t)
	appendRawFrame(t, dir, `<c id="s" key="k" frag="f"><item ID="z"/></c>`)
	checkMalformedStop(t, dir)
}

func TestJournalMissingIDStopsReplay(t *testing.T) {
	dir := seedJournal(t)
	appendRawFrame(t, dir, `<c key="k" frag="f" seq="5"><item ID="z"/></c>`)
	checkMalformedStop(t, dir)
}

func TestJournalUnparsableFrameStopsReplay(t *testing.T) {
	dir := seedJournal(t)
	appendRawFrame(t, dir, `<c id="s" key="k`)
	checkMalformedStop(t, dir)
}

func TestJournalUnknownRecordStopsReplay(t *testing.T) {
	dir := seedJournal(t)
	appendRawFrame(t, dir, `<zz id="s"/>`)
	checkMalformedStop(t, dir)
}

// A corrupt snapshot is a hard error, not a silent zero: the snapshot is
// written atomically, so a session element missing its next checkpoint
// (or carrying garbage there) means real corruption.
func TestJournalCorruptSnapshotFails(t *testing.T) {
	for _, snap := range []string{
		`<journal><s id="x"><c key="k" seq="0"/></s></journal>`,          // missing next
		`<journal><s id="x" next="NaN"><c key="k" seq="0"/></s></journal>`, // bad next
		`<journal><s id="x" next="3"><c key="k"/></s></journal>`,          // chunk without seq
		`<journal><s next="3"/></journal>`,                                // session without id
	} {
		dir := t.TempDir()
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Recover(nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Snapshot(writeBytes([]byte(snap))); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if _, err := OpenJournal(dir, Options{}); err == nil {
			t.Fatalf("corrupt snapshot %q recovered without error", snap)
		} else if !strings.Contains(err.Error(), "snapshot") {
			t.Fatalf("unexpected error for %q: %v", snap, err)
		}
	}
}

// Tombstone chunks (delta exchanges) journal, recover, and compact with
// their Del marking intact, so recovery never hydrates deletions as
// records.
func TestJournalTombstoneRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Mint("s")
	if err := j.Chunk("s", "k", "f", 0, chunkRecs("a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Tomb("s", "k", 1, []string{"a1", "a2"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	back, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	s := back.Sessions()
	if len(s) != 1 || s[0].Next != 2 || len(s[0].Chunks) != 2 {
		t.Fatalf("recovered %+v", s)
	}
	tomb := s[0].Chunks[1]
	if !tomb.Del || tomb.Key != "k" || tomb.Seq != 1 {
		t.Fatalf("tombstone chunk recovered as %+v", tomb)
	}
	if len(tomb.Recs) != 2 || tomb.Recs[0].ID != "a1" || tomb.Recs[1].ID != "a2" {
		t.Fatalf("tombstone ids recovered as %+v", tomb.Recs)
	}
	if s[0].Chunks[0].Del {
		t.Fatalf("record chunk marked Del")
	}
}
