package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
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

// A corrupt compacted prefix is a hard error, not a silent zero or a torn
// tail: a rewrite syncs the prefix whole before it replaces the log, so a
// frame in it that fails its checksum, decodes to a half record or is cut
// short means real corruption.
func TestJournalCorruptPrefixFails(t *testing.T) {
	good := frameOf(string(appendFrameHead(nil, kindMint, "x")))
	for _, prefix := range []string{
		good[:len(good)-1] + "y",                            // frame failing its CRC
		good + frameOf(chunkHeadTo("x")),                    // chunk without seq
		frameOf(string(appendFrameHead(nil, kindMint, ""))), // session without id
		good[:len(good)-2],                                  // truncated frame
	} {
		dir := t.TempDir()
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Recover(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Rewrite(writeBytes([]byte(prefix))); err != nil {
			t.Fatal(err)
		}
		w.Close()
		before, _ := os.ReadFile(filepath.Join(dir, logFile))
		if _, err := OpenJournal(dir, Options{}); !errors.Is(err, errCorruptPrefix) {
			t.Fatalf("corrupt prefix %q: err = %v, want errCorruptPrefix", prefix, err)
		}
		if after, _ := os.ReadFile(filepath.Join(dir, logFile)); !bytes.Equal(before, after) {
			t.Fatalf("corrupt prefix %q: the failed recovery changed the log", prefix)
		}
	}

	// A prefix frame that ends the prefix where it ends itself, or past
	// the log, is never written: corrupt too.
	for _, end := range []uint64{prefixFrameLen, 1 << 20} {
		p := binary.LittleEndian.AppendUint64([]byte{prefixMark}, end)
		raw := frameOf(string(p)) + frameOf(string(appendFrameHead(nil, kindMint, "x")))
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logFile), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenJournal(dir, Options{}); !errors.Is(err, errCorruptPrefix) {
			t.Fatalf("prefix frame ending at %d: err = %v, want errCorruptPrefix", end, err)
		}
	}

	// A compacted log cut anywhere inside its prefix — past the prefix
	// frame's mark — fails the same way; cut past the prefix, it recovers.
	raw := compactedJournalLog(t)
	end := int(binary.LittleEndian.Uint64(raw[frameHeader+1:]))
	for cut := frameHeader + 1; cut <= len(raw); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logFile), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir, Options{})
		if cut < end {
			if !errors.Is(err, errCorruptPrefix) {
				t.Fatalf("cut at %d inside a %d-byte prefix: err = %v", cut, end, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d past a %d-byte prefix: %v", cut, end, err)
		}
		if s := sessionsOf(t, j); len(s) != 1 || s[0].ID != "a" || s[0].Next < 3 {
			t.Fatalf("cut at %d past the prefix recovered %+v", cut, s)
		}
		j.Close()
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
