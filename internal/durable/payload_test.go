package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// binShipment renders recs as one sequenced bin chunk and returns the
// shipment with the chunk's staged text — the bytes between the instance
// tags.
func binShipment(t *testing.T, sch *schema.Schema, f *core.Fragment, recs []*xmltree.Node) (ship, staged []byte) {
	t.Helper()
	var buf bytes.Buffer
	sw := wire.NewShipmentWriterCodec(&buf, sch, wire.Codec{Kind: wire.CodecBin})
	if err := sw.EmitChunk("0:ord", f, recs, 0); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	ship = buf.Bytes()
	open := bytes.Index(ship, []byte(`format="bin">`)) + len(`format="bin">`)
	return ship, ship[open:bytes.Index(ship, []byte("</instance>"))]
}

// A committed bin chunk is journaled as the payload it arrived as: the
// frame behind the header is the decoder's staged text, byte for byte, in
// the log, in Sessions, and — copied — in the rewritten log.
func TestJournalFrameIsWirePayload(t *testing.T) {
	sch := schema.CustomerInfo()
	f, err := core.NewFragment(sch, "ord", []string{"Order", "Service", "ServiceName"})
	if err != nil {
		t.Fatal(err)
	}
	recs := []*xmltree.Node{
		{Name: "Order", ID: "o1", Parent: "c1", Kids: []*xmltree.Node{{Name: "Service", ID: "s1", Parent: "o1"}}},
		{Name: "Order", ID: "o2", Parent: "c1", Kids: []*xmltree.Node{{Name: "Service", ID: "s2", Parent: "o2"}}},
	}
	ship, staged := binShipment(t, sch, f, recs)

	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	d := wire.NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
	d.Commit = func(c *wire.Chunk) (wire.Ticket, error) { return j.Commit("s", c), nil }
	if err := xmltree.ScanAttrs(bytes.NewReader(ship), d); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Result(); err != nil {
		t.Fatal(err)
	}

	frameBody := func(data []byte) []byte {
		t.Helper()
		payload, _, ok := parseFrame(data)
		if !ok {
			t.Fatal("no valid frame")
		}
		r, err := decodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if r.kind != kindChunk || r.id != "s" || r.Key != "0:ord" || r.Frag != "ord" || r.Seq != 0 || r.Format != wire.CodecBin {
			t.Fatalf("frame header decoded as %+v", r)
		}
		return r.Bytes
	}
	log, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if body := frameBody(log); !bytes.Equal(body, staged) {
		t.Fatalf("log frame body differs from the staged payload:\n%q\nvs\n%q", body, staged)
	}
	if ss := sessionsOf(t, j); len(ss) != 1 || !bytes.Equal(ss[0].Chunks[0].Bytes, staged) {
		t.Fatal("Sessions does not hand back the staged payload")
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	log, err = os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	// Rewritten log: the prefix frame, the session's mint frame, its chunk.
	start, end, err := compactedPrefix(log)
	if err != nil || start != prefixFrameLen || end != len(log) {
		t.Fatalf("rewritten log of %d bytes: prefix frame %d..%d, err %v", len(log), start, end, err)
	}
	mint, n, ok := parseFrame(log[start:])
	if !ok || mint[1] != kindMint {
		t.Fatal("rewritten log does not open with the session's mint frame")
	}
	if body := frameBody(log[start+n:]); !bytes.Equal(body, staged) {
		t.Fatal("rewritten frame body differs from the staged payload")
	}
}

// The shadow keeps frame locations, not payloads: journaling 4 MiB of
// chunks leaves the heap where it was, a compaction copies the live
// frames from the log, and what comes back — before and after a reopen —
// is every payload, byte for byte.
func TestCompactionCopiesLiveFramesWithoutRetaining(t *testing.T) {
	const chunks, size = 64, 64 << 10
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('A' + i%26)}, size) }
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	before := heap()
	j.Mint("gone")
	for i := 0; i < chunks; i++ {
		for _, id := range []string{"gone", "keep"} {
			c := &wire.Chunk{Key: "k", Seq: int64(i), Payload: wire.Payload{Format: wire.CodecBin, Bytes: payload(i)}}
			if err := j.Commit(id, c).Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if grew := int64(heap()) - int64(before); grew > chunks*size/8 {
		t.Fatalf("heap grew %d bytes over %d journaled payload bytes", grew, 2*chunks*size)
	}
	if err := j.End("gone"); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if grew := int64(heap()) - int64(before); grew > chunks*size/8 {
		t.Fatalf("heap grew %d bytes across a compaction", grew)
	}
	// The rewritten log is its prefix: the kept session's mint and chunk
	// frames, the ended session's gone.
	log, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, end, err := compactedPrefix(log); err != nil || end != len(log) || len(log) > chunks*(size+128) {
		t.Fatalf("rewritten log of %d bytes, prefix to %d (err %v); want one session's %d chunks", len(log), end, err, chunks)
	}
	log = nil
	check := func(j *Journal) {
		t.Helper()
		ss := sessionsOf(t, j)
		if len(ss) != 1 || ss[0].ID != "keep" || ss[0].Next != chunks || len(ss[0].Chunks) != chunks {
			t.Fatalf("recovered %+v", ss)
		}
		for i, c := range ss[0].Chunks {
			if !bytes.Equal(c.Bytes, payload(i)) || c.Format != wire.CodecBin {
				t.Fatalf("chunk %d came back changed", i)
			}
		}
	}
	check(j)
	j.Close()
	back, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	check(back)
}

// A directory written by the XML-frame journal (format version 1,
// testdata/wal-format-1) is refused whole, with an error naming the
// directory and what to do — whether recovery meets its snapshot file or
// an old log frame first — and is left exactly as it was. So is a
// directory of the current frame format that holds the snapshot file of
// the two-file layout (testdata/wal-format-2-snapshot), while its log
// alone opens.
func TestJournalRefusesOldFormat(t *testing.T) {
	for _, files := range [][]string{
		{"wal-format-1", oldSnapFile, logFile},
		{"wal-format-1", logFile},
		{"wal-format-2-snapshot", oldSnapFile, logFile},
	} {
		dir := t.TempDir()
		for _, name := range files[1:] {
			data, err := os.ReadFile(filepath.Join("testdata", files[0], name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before, _ := os.ReadFile(filepath.Join(dir, logFile))
		_, err := OpenJournal(dir, Options{})
		if !errors.Is(err, ErrWALFormat) || !strings.Contains(err.Error(), dir) ||
			!strings.Contains(err.Error(), "drain") || !strings.Contains(err.Error(), "delete") {
			t.Fatalf("%v: err = %v, want ErrWALFormat naming %s and the way out", files, err, dir)
		}
		if after, _ := os.ReadFile(filepath.Join(dir, logFile)); !bytes.Equal(before, after) {
			t.Fatalf("%v: refusal changed the log", files)
		}
	}
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("testdata", "wal-format-2-snapshot", logFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatalf("a format-2 log without a snapshot file: %v", err)
	}
	j.Close()
	// A frame of a future version is refused the same way.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	appendRawFrame(t, dir, string([]byte{walFormat + 1, kindMint, 1, 's'}))
	if _, err := OpenJournal(dir, Options{}); !errors.Is(err, ErrWALFormat) {
		t.Fatalf("future-format frame: err = %v", err)
	}
}

// TestJournalRefusesUndecodablePayload: a chunk frame whose payload is in a
// format this build cannot decode — a feed chunk, journaled by an earlier
// build that spoke that codec — refuses the directory at open, whether the
// frame lies past the compacted prefix or in it, with the same way out as an old
// frame layout and the directory left as it was. Opening it anyway would
// fail the first resumed delivery at hydration instead.
func TestJournalRefusesUndecodablePayload(t *testing.T) {
	for _, compact := range []bool{false, true} {
		dir := t.TempDir()
		j, err := OpenJournal(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Mint("s"); err != nil {
			t.Fatal(err)
		}
		if err := commitChunk(j, "s", "0:f", "f", 0, chunkRecs("a", 1)); err != nil {
			t.Fatal(err)
		}
		feed := &wire.Chunk{Key: "0:f", Seq: 1, Payload: wire.Payload{Format: "feed", Bytes: []byte("p|a9|x|\n")}}
		if err := j.Commit("s", feed).Err(); err != nil {
			t.Fatal(err)
		}
		if compact {
			if err := j.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		before, _ := os.ReadFile(filepath.Join(dir, logFile))
		_, err = OpenJournal(dir, Options{})
		if !errors.Is(err, ErrWALFormat) || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "drain") {
			t.Fatalf("compacted=%t: err = %v, want ErrWALFormat naming %s and the way out", compact, err, dir)
		}
		if after, _ := os.ReadFile(filepath.Join(dir, logFile)); !bytes.Equal(before, after) {
			t.Fatalf("compacted=%t: refusal changed the log", compact)
		}
	}
}
