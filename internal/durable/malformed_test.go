package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdx/internal/wire"
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
	frameInto(hdr[:], []byte(payload), nil)
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
	if err := commitChunk(j, "s", "k", "f", 0, chunkRecs("a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := commitChunk(j, "s", "k", "f", 1, chunkRecs("b", 2)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	return dir
}

// chunkFrame is a well-formed chunk frame payload for session "s".
func chunkFrame(seq int64) string {
	return string(appendChunkHead(nil, kindChunk, "s", "k", "f", seq, wire.CodecXML, "")) + `<item ID="w"/>`
}

// chunkHeadTo is a chunk frame header cut after its fragment name — the
// point where the seq should follow.
func chunkHeadTo(id string) string {
	return string(appendString(appendString(appendFrameHead(nil, kindChunk, id), "k"), "f"))
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
	s := sessionsOf(t, back)
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
	if s := sessionsOf(t, again); len(s) != 1 || s[0].Next != 2 {
		t.Fatalf("second recovery lost state: %+v", s)
	}
}

func TestJournalMalformedSeqStopsReplay(t *testing.T) {
	dir := seedJournal(t)
	// A chunk frame whose seq is not a varint, followed by a perfectly
	// good frame that must be discarded with the tail — replay after a
	// malformed frame cannot be trusted.
	appendRawFrame(t, dir, chunkHeadTo("s")+"\xff")
	appendRawFrame(t, dir, chunkFrame(7))
	checkMalformedStop(t, dir)
}

func TestJournalMissingSeqStopsReplay(t *testing.T) {
	dir := seedJournal(t)
	appendRawFrame(t, dir, chunkHeadTo("s"))
	checkMalformedStop(t, dir)
}

func TestJournalMissingIDStopsReplay(t *testing.T) {
	dir := seedJournal(t)
	appendRawFrame(t, dir, string(appendChunkHead(nil, kindChunk, "", "k", "f", 5, wire.CodecXML, ""))+`<item ID="z"/>`)
	checkMalformedStop(t, dir)
}

func TestJournalUnparsableFrameStopsReplay(t *testing.T) {
	dir := seedJournal(t)
	// The session id's length runs past the end of the frame.
	appendRawFrame(t, dir, string([]byte{walFormat, kindChunk, 9, 's'}))
	checkMalformedStop(t, dir)
}

func TestJournalUnknownRecordStopsReplay(t *testing.T) {
	dir := seedJournal(t)
	appendRawFrame(t, dir, string(appendFrameHead(nil, 'z', "s")))
	checkMalformedStop(t, dir)
}

// frameOf is payload inside its WAL length+CRC frame.
func frameOf(payload string) string {
	var hdr [frameHeader]byte
	frameInto(hdr[:], []byte(payload), nil)
	return string(hdr[:]) + payload
}

// A corrupt snapshot is a hard error, not a silent zero: the snapshot is
// written atomically, so a frame in it that fails its checksum or decodes
// to a half record means real corruption.
func TestJournalCorruptSnapshotFails(t *testing.T) {
	v := string([]byte{walFormat})
	good := frameOf(string(appendFrameHead(nil, kindMint, "x")))
	for _, snap := range []string{
		"",                                   // no format version
		v + good[:len(good)-1] + "y",         // frame failing its CRC
		v + good + frameOf(chunkHeadTo("x")), // chunk without seq
		v + frameOf(string(appendFrameHead(nil, kindMint, ""))), // session without id
		v + good[:len(good)-2], // truncated frame
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

// Tombstone chunks (delta exchanges) journal, recover, and compact as
// tombstone payloads, so recovery never hydrates deletions as records.
func TestJournalTombstoneRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Mint("s")
	if err := commitChunk(j, "s", "k", "f", 0, chunkRecs("a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := commitTomb(j, "s", "k", 1, []string{"a1", "a2"}); err != nil {
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
	s := sessionsOf(t, back)
	if len(s) != 1 || s[0].Next != 2 || len(s[0].Chunks) != 2 {
		t.Fatalf("recovered %+v", s)
	}
	tomb := s[0].Chunks[1]
	if tomb.Format != wire.FormatTombstones || tomb.Key != "k" || tomb.Seq != 1 {
		t.Fatalf("tombstone chunk recovered as %+v", tomb)
	}
	if want := tombBody([]string{"a1", "a2"}); !bytes.Equal(tomb.Bytes, want) {
		t.Fatalf("tombstone payload recovered as %q, want %q", tomb.Bytes, want)
	}
	if s[0].Chunks[0].Format != wire.CodecXML {
		t.Fatalf("record chunk recovered as %q", s[0].Chunks[0].Format)
	}
}
