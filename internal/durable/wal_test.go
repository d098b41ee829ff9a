package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdx/internal/obs"
	"xdx/internal/wire"
)

// openRecovered opens a WAL and replays it, returning the recovered
// payloads.
func openRecovered(t *testing.T, dir string, o Options) (*WAL, [][]byte, RecoveryStats) {
	t.Helper()
	w, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	st, err := w.Recover(func(_ int64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, got, st
}

// testRecords builds a deterministic set of payloads of varied sizes,
// including empty and binary ones.
func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		size := (i * 37) % 200
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i + j*31)
		}
		recs[i] = p
	}
	return recs
}

func TestWALAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, got, _ := openRecovered(t, dir, Options{})
	if len(got) != 0 {
		t.Fatalf("fresh WAL recovered %d records", len(got))
	}
	recs := testRecords(25)
	for _, p := range recs {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, st := openRecovered(t, dir, Options{})
	defer w2.Close()
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if st.TornBytes != 0 {
		t.Errorf("clean log reported %d torn bytes", st.TornBytes)
	}
	// Appending after recovery extends the same log.
	if err := w2.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, got, _ := openRecovered(t, dir, Options{})
	defer w3.Close()
	if len(got) != len(recs)+1 || string(got[len(got)-1]) != "tail" {
		t.Fatalf("append after recovery lost: %d records", len(got))
	}
}

func TestWALAppendBeforeRecover(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]byte("x")); err == nil {
		t.Fatal("Append before Recover must fail")
	}
}

// writeBytes is the Rewrite callback for a state already in memory.
func writeBytes(state []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(state)
		return err
	}
}

// A rewrite replaces the log with a prefix frame and the frames it is
// given; appends go on behind them, and recovery replays both, counting
// the rewritten ones as compacted.
func TestWALRewriteCompacts(t *testing.T) {
	dir := t.TempDir()
	met := obs.NewRegistry()
	w, _, _ := openRecovered(t, dir, Options{Met: met})
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	state := frameOf("state-a") + frameOf("state-b")
	size, err := w.Rewrite(writeBytes([]byte(state)))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(prefixFrameLen + len(state)); size != want || met.Gauge("wal.snapshot.bytes").Value() != want {
		t.Errorf("rewrite size %d, gauge %d; want %d", size, met.Gauge("wal.snapshot.bytes").Value(), want)
	}
	if err := w.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	info, err := os.Stat(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if want := size + int64(frameHeader+len("after")); info.Size() != want {
		t.Errorf("compacted log is %d bytes, want %d", info.Size(), want)
	}
	if _, err := os.Stat(filepath.Join(dir, logFile+".tmp")); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
	w2, got, st := openRecovered(t, dir, Options{})
	if len(got) != 3 || string(got[0]) != "state-a" || string(got[1]) != "state-b" || string(got[2]) != "after" {
		t.Errorf("rewritten log replays %q", got)
	}
	if st.Records != 3 || st.Compacted != 2 || st.TornBytes != 0 {
		t.Errorf("recovery stats %+v, want 3 records, 2 compacted", st)
	}

	// Rewriting to nothing empties the log, and appends start at 0.
	if size, err := w2.Rewrite(writeBytes(nil)); err != nil || size != 0 {
		t.Fatalf("empty rewrite: size %d, err %v", size, err)
	}
	if err := w2.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if info, err := os.Stat(filepath.Join(dir, logFile)); err != nil || info.Size() != int64(frameHeader+len("fresh")) {
		t.Fatalf("log after an empty rewrite and one append: %v, %v", info.Size(), err)
	}
	w3, got, _ := openRecovered(t, dir, Options{})
	defer w3.Close()
	if len(got) != 1 || string(got[0]) != "fresh" {
		t.Fatalf("after an empty rewrite, replays %q", got)
	}
}

// A payload that opens with the prefix frame's mark would read back as a
// compacted prefix, so Append refuses it.
func TestWALRefusesPrefixMark(t *testing.T) {
	w, _, _ := openRecovered(t, t.TempDir(), Options{})
	defer w.Close()
	if err := w.Append([]byte{prefixMark, 1}); err == nil {
		t.Fatal("Append accepted a payload opening with the prefix mark")
	}
	if err := w.appendParts(nil, []byte{prefixMark}).Err(); err == nil {
		t.Fatal("appendParts accepted a body opening with the prefix mark")
	}
}

func TestWALFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncBatch, FsyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, _, _ := openRecovered(t, dir, Options{Fsync: pol})
			for i := 0; i < 5; i++ {
				if err := w.Append([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, got, _ := openRecovered(t, dir, Options{})
			defer w2.Close()
			if len(got) != 5 {
				t.Fatalf("recovered %d records under %s, want 5", len(got), pol)
			}
		})
	}
}

func TestParseFsync(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{"": FsyncBatch, "batch": FsyncBatch, "off": FsyncOff} {
		got, err := ParseFsync(s)
		if err != nil || got != want {
			t.Errorf("ParseFsync(%q) = %v, %v", s, got, err)
		}
	}
	// interval was dropped: as fast as batch with a weaker guarantee. The
	// refusal names what is left.
	for _, s := range []string{"sometimes", "interval"} {
		if _, err := ParseFsync(s); err == nil || !strings.Contains(err.Error(), "batch or off") {
			t.Errorf("ParseFsync(%q) err = %v, want a refusal listing batch or off", s, err)
		}
	}
}

// TestParseFsyncRefusesAlways: always was dropped too — batch acks an
// append only after its fsync, as always did, at a fraction of the
// fsyncs — and its refusal points at batch.
func TestParseFsyncRefusesAlways(t *testing.T) {
	_, err := ParseFsync("always")
	if err == nil || !strings.Contains(err.Error(), `"batch"`) {
		t.Fatalf(`ParseFsync("always") err = %v, want a refusal naming "batch"`, err)
	}
}

// writeRefLog writes records and returns the raw log bytes plus the byte
// offset at which each record's frame ends — the valid truncation points.
func writeRefLog(t *testing.T, dir string, recs [][]byte) (raw []byte, ends []int) {
	t.Helper()
	w, _, _ := openRecovered(t, dir, Options{Fsync: FsyncOff})
	off := 0
	for _, p := range recs {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		off += frameHeader + len(p)
		ends = append(ends, off)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != off {
		t.Fatalf("log is %d bytes, expected %d", len(raw), off)
	}
	return raw, ends
}

// recoverRaw writes raw as a WAL log in a fresh dir and recovers it,
// returning the replayed payloads. Recovery must never error on torn or
// corrupt input — that is the property under test.
func recoverRaw(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w, got, _ := openRecovered(t, dir, Options{})
	defer w.Close()
	return got
}

// prefixLen returns how many of recs are fully contained in the first n
// bytes of the log (using the frame end offsets).
func prefixLen(ends []int, n int) int {
	k := 0
	for k < len(ends) && ends[k] <= n {
		k++
	}
	return k
}

// The torn-tail property: truncating the log at EVERY byte offset recovers
// exactly the records whose frames fit before the cut — never a crash,
// never a record past the cut, never a lost record before it.
func TestWALTornTailEveryOffset(t *testing.T) {
	recs := testRecords(12)
	raw, ends := writeRefLog(t, t.TempDir(), recs)
	for cut := 0; cut <= len(raw); cut++ {
		got := recoverRaw(t, raw[:cut])
		want := prefixLen(ends, cut)
		if len(got) != want {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(got), want)
		}
		for i := 0; i < want; i++ {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("cut at %d: record %d corrupted", cut, i)
			}
		}
	}
}

// Flipping any byte inside the tail frame must drop that frame (or, for a
// length-field flip that swallows the tail, at most the frame itself) —
// never crash, never yield a record that was not written.
func TestWALTailByteFlip(t *testing.T) {
	recs := testRecords(8)
	raw, ends := writeRefLog(t, t.TempDir(), recs)
	tailStart := ends[len(ends)-2] // last frame spans [tailStart, len(raw))
	for pos := tailStart; pos < len(raw); pos++ {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x5a
		got := recoverRaw(t, mut)
		// All intact frames before the flip must survive; the flipped tail
		// frame must not surface with corrupt content.
		if len(got) > len(recs) {
			t.Fatalf("flip at %d: recovered %d records from %d written", pos, len(got), len(recs))
		}
		if len(got) < len(recs)-1 {
			t.Fatalf("flip at %d: lost intact records (%d < %d)", pos, len(got), len(recs)-1)
		}
		for i := 0; i < len(recs)-1; i++ {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("flip at %d: record %d corrupted", pos, i)
			}
		}
		if len(got) == len(recs) && !bytes.Equal(got[len(recs)-1], recs[len(recs)-1]) {
			t.Fatalf("flip at %d: corrupt tail record surfaced", pos)
		}
	}
}

// Recovery truncates the torn tail, so a second recovery is clean and an
// append after recovery lands on a frame boundary.
func TestWALRecoveryTruncatesThenAppends(t *testing.T) {
	recs := testRecords(6)
	raw, ends := writeRefLog(t, t.TempDir(), recs)
	cut := ends[len(ends)-1] - 3 // tear mid-frame
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logFile), raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	w, got, st := openRecovered(t, dir, Options{})
	if len(got) != len(recs)-1 {
		t.Fatalf("recovered %d, want %d", len(got), len(recs)-1)
	}
	if st.TornBytes == 0 {
		t.Error("torn bytes not reported")
	}
	if err := w.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, got, st2 := openRecovered(t, dir, Options{})
	defer w2.Close()
	if st2.TornBytes != 0 {
		t.Errorf("second recovery still torn: %d bytes", st2.TornBytes)
	}
	if len(got) != len(recs) || string(got[len(got)-1]) != "fresh" {
		t.Fatalf("post-truncation append lost: %d records", len(got))
	}
}

// journalLog returns the log a journal writes for a small session history
// in the current frame format: mints, an xml chunk, a raw bin payload, a
// tombstone chunk, a duplicate, an end.
func journalLog(t testing.TB) []byte {
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	j.Mint("a")
	j.Mint("b")
	commitChunk(j, "a", "0:k", "f", 0, chunkRecs("a", 2))
	j.Commit("a", &wire.Chunk{Key: "0:k", Seq: 1, Payload: wire.Payload{Format: wire.CodecBin, Enc: "flate", Bytes: []byte("AAEC")}})
	commitTomb(j, "a", "0:k", 2, []string{"a1"})
	commitChunk(j, "a", "0:k", "f", 1, chunkRecs("dup", 1))
	commitChunk(j, "b", "0:k", "f", 0, chunkRecs("b", 1))
	j.End("b")
	j.Close()
	raw, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// compactedJournalLog is journalLog's history compacted, with one more
// chunk appended behind the prefix.
func compactedJournalLog(t testing.TB) []byte {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logFile), journalLog(t), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	commitChunk(j, "a", "0:k", "f", 3, chunkRecs("c", 1))
	j.Close()
	raw, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzWALRecovery feeds arbitrary bytes as a log file: recovery must never
// panic, nor error unless the bytes open with a prefix frame's mark and
// the compacted prefix does not read back whole, and recovering its own
// truncation must be stable. On top of the WAL, the journal must recover
// the same bytes without panicking — refusing only a frame of another
// format version or a corrupt prefix — and the sessions it rebuilds must
// survive a reopen unchanged.
func FuzzWALRecovery(f *testing.F) {
	raw := journalLog(f)
	f.Add(raw)
	f.Add(raw[:len(raw)-5])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3})
	// A CRC-valid frame whose header is cut short, after the good ones.
	f.Add(append(raw, frameOf(chunkHeadTo("a"))...))
	// A compacted log, whole and cut inside its prefix.
	compacted := compactedJournalLog(f)
	f.Add(compacted)
	f.Add(compacted[:len(compacted)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var first [][]byte
		_, err = w.Recover(func(_ int64, p []byte) error {
			first = append(first, append([]byte(nil), p...))
			return nil
		})
		w.Close()
		if errors.Is(err, errCorruptPrefix) && data[frameHeader] == prefixMark {
			if _, err := OpenJournal(dir, Options{}); !errors.Is(err, errCorruptPrefix) {
				t.Fatalf("journal opened a corrupt prefix: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("recovery errored on arbitrary input: %v", err)
		}
		// Idempotence: recovering the truncated file replays the same prefix.
		w2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var second [][]byte
		st, err := w2.Recover(func(_ int64, p []byte) error {
			second = append(second, append([]byte(nil), p...))
			return nil
		})
		w2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.TornBytes != 0 {
			t.Fatalf("second recovery found %d torn bytes after truncation", st.TornBytes)
		}
		if len(first) != len(second) {
			t.Fatalf("recovery not stable: %d then %d records", len(first), len(second))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("record %d differs across recoveries", i)
			}
		}

		state := func() string {
			j, err := OpenJournal(dir, Options{})
			if errors.Is(err, ErrWALFormat) || errors.Is(err, errCorruptPrefix) {
				return "refused"
			}
			if err != nil {
				t.Fatalf("journal recovery errored: %v", err)
			}
			defer j.Close()
			sessions, _ := journalState(t, j)
			return sessions
		}
		if a, b := state(), state(); a != b {
			t.Fatalf("journal recovery not stable:\n%s\nthen\n%s", a, b)
		}
	})
}
