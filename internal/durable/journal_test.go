package durable

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xdx/internal/obs"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// chunkRecs builds n records with IDs derived from prefix.
func chunkRecs(prefix string, n int) []*xmltree.Node {
	recs := make([]*xmltree.Node, n)
	for i := range recs {
		recs[i] = &xmltree.Node{
			Name: "item", ID: prefix + string(rune('a'+i)), Parent: "root",
			Kids: []*xmltree.Node{{Name: "name", Text: "v" + prefix}},
		}
	}
	return recs
}

// commitChunk journals one tagged-XML chunk and waits until it is durable.
func commitChunk(j *Journal, id, key, frag string, seq int64, recs []*xmltree.Node) error {
	p, err := j.ChunkAsync(id, key, frag, seq, recs)
	if err != nil {
		return err
	}
	return p.Err()
}

// commitTomb journals one tombstone chunk and waits until it is durable.
func commitTomb(j *Journal, id, key string, seq int64, ids []string) error {
	p, err := j.TombAsync(id, key, seq, ids)
	if err != nil {
		return err
	}
	return p.Err()
}

// sessionsOf reads a journal's sessions back, failing the test on error.
func sessionsOf(t testing.TB, j *Journal) []*JSession {
	t.Helper()
	ss, err := j.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// render captures what a wire body writer produces.
func render(write func(*bufio.Writer)) []byte {
	var b bytes.Buffer
	bw := bufio.NewWriter(&b)
	write(bw)
	bw.Flush()
	return b.Bytes()
}

// xmlBody is the xml codec's chunk body for recs: what the journal stores
// for a tagged-XML chunk.
func xmlBody(recs []*xmltree.Node) []byte {
	return render(func(bw *bufio.Writer) { wire.WriteRecords(bw, recs) })
}

// tombBody is the wire body of a tombstone chunk.
func tombBody(ids []string) []byte {
	return render(func(bw *bufio.Writer) { wire.WriteTombstoneIDs(bw, ids) })
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Mint("sess-1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Mint("sess-1"); err != nil { // re-mint is a no-op
		t.Fatal(err)
	}
	r0 := chunkRecs("x", 3)
	r1 := chunkRecs("y", 2)
	if err := commitChunk(j, "sess-1", "F1->F2", "F2", 0, r0); err != nil {
		t.Fatal(err)
	}
	if err := commitChunk(j, "sess-1", "F1->F2", "F2", 1, r1); err != nil {
		t.Fatal(err)
	}
	if err := j.Mint("sess-2"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	back, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	sessions := sessionsOf(t, back)
	if len(sessions) != 2 {
		t.Fatalf("recovered %d sessions, want 2", len(sessions))
	}
	s := sessions[0]
	if s.ID != "sess-1" || s.Next != 2 || len(s.Chunks) != 2 {
		t.Fatalf("sess-1 recovered as %+v", s)
	}
	c := s.Chunks[0]
	if c.Key != "F1->F2" || c.Frag != "F2" || c.Seq != 0 || c.Format != wire.CodecXML {
		t.Fatalf("chunk 0 recovered as %+v", c)
	}
	if want := xmlBody(r0); !bytes.Equal(c.Bytes, want) {
		t.Fatalf("chunk 0 payload mismatch:\n got %s\nwant %s", c.Bytes, want)
	}
	if sessions[1].ID != "sess-2" || sessions[1].Next != 0 || len(sessions[1].Chunks) != 0 {
		t.Fatalf("sess-2 recovered as %+v", sessions[1])
	}
}

func TestJournalEndReleasesSession(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Mint("a")
	commitChunk(j, "a", "k", "f", 0, chunkRecs("a", 1))
	j.Mint("b")
	if err := j.End("a", "never-seen"); err != nil {
		t.Fatal(err)
	}
	j.Close()
	back, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	sessions := sessionsOf(t, back)
	if len(sessions) != 1 || sessions[0].ID != "b" {
		t.Fatalf("after End, recovered %+v", sessions)
	}
}

// Compaction must preserve the recoverable state exactly while shrinking
// the log, and a duplicate chunk appended behind the compacted prefix
// must replay as the no-op it was when it was journaled.
func TestJournalCompactPreservesState(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Mint("s")
	commitChunk(j, "s", "k", "f", 0, chunkRecs("p", 2))
	commitChunk(j, "s", "k", "f", 1, chunkRecs("q", 2))
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	commitChunk(j, "s", "k", "f", 2, chunkRecs("r", 1))
	commitChunk(j, "s", "k", "f", 1, chunkRecs("dup", 1)) // a re-shipped duplicate
	want, _ := journalState(t, j)
	j.Close()

	back, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	sessions := sessionsOf(t, back)
	if len(sessions) != 1 {
		t.Fatalf("recovered %d sessions", len(sessions))
	}
	if s := sessions[0]; s.Next != 3 || len(s.Chunks) != 3 {
		t.Fatalf("recovered next=%d chunks=%d, want 3/3", s.Next, len(s.Chunks))
	}
	if got, _ := journalState(t, back); got != want {
		t.Fatalf("recovered\n%s\nwant\n%s", got, want)
	}
}

// A lone live session is never copied: no amount of appends makes a
// compaction of it worth running, and the End that turns it all into
// garbage rewrites the log to nothing.
func TestJournalSnapshotEveryAutoCompacts(t *testing.T) {
	dir := t.TempDir()
	met := obs.NewRegistry()
	j, err := OpenJournal(dir, Options{Fsync: FsyncOff, SnapshotEvery: 64, Met: met})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Mint("s")
	for i := int64(0); i < 4096; i++ {
		if err := commitChunk(j, "s", "k", "f", i, chunkRecs("z", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := met.Counter("wal.snapshots").Value(); n != 0 {
		t.Fatalf("%d snapshots of a lone live session, want 0", n)
	}
	if n := met.Counter("wal.compactions.skipped").Value(); n == 0 {
		t.Error("no compaction check was counted as skipped")
	}
	if live, garbage := met.Gauge("wal.live.bytes").Value(), met.Gauge("wal.garbage.bytes").Value(); live == 0 || garbage != 0 {
		t.Errorf("live session: wal.live.bytes=%d wal.garbage.bytes=%d, want >0 and 0", live, garbage)
	}
	if err := j.End("s"); err != nil {
		t.Fatal(err)
	}
	if n := met.Counter("wal.snapshots").Value(); n != 1 {
		t.Fatalf("%d snapshots after End, want 1", n)
	}
	if n := met.Counter("wal.snapshot.bytes.total").Value(); n != 0 {
		t.Errorf("compaction of no sessions wrote %d bytes", n)
	}
	if log, err := os.Stat(filepath.Join(dir, logFile)); err != nil || log.Size() != 0 {
		t.Errorf("log after the last session ended: %v bytes, err %v; want 0", log.Size(), err)
	}
	if live := met.Gauge("wal.live.bytes").Value(); live != 0 {
		t.Errorf("wal.live.bytes=%d with no session", live)
	}
}

// chunkState names one chunk for the state comparisons: seq, payload
// format, and a checksum of the payload bytes.
func chunkState(seq int64, format string, payload []byte) string {
	return fmt.Sprintf("%d/%s/%08x", seq, format, crc32.ChecksumIEEE(payload))
}

// journalState renders what recovery must reproduce: every session's
// checkpoint and chunks (seq, format, payload, in commit order), and the
// tallies the compaction rule runs on.
func journalState(t *testing.T, j *Journal) (sessions, tallies string) {
	t.Helper()
	var sb, tb strings.Builder
	for _, s := range sessionsOf(t, j) {
		fmt.Fprintf(&sb, "%s next=%d:", s.ID, s.Next)
		for _, c := range s.Chunks {
			sb.WriteString(" " + chunkState(c.Seq, c.Format, c.Bytes))
		}
		sb.WriteByte('\n')
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, id := range j.sortedIDsLocked() {
		fmt.Fprintf(&tb, "%s=%d ", id, j.sessions[id].bytes)
	}
	fmt.Fprintf(&tb, "total=%d live=%d appends=%d", j.total, j.live, j.appends)
	return sb.String(), tb.String()
}

// The linearity gate. Over a random interleaving of eight sessions'
// lifecycles: compactions never write more than was appended, the log
// never outgrows twice the live state once SnapshotEvery frames follow
// the last compaction, nor that compaction plus those frames before, and a
// journal reopened on a copy of the directory — at any compaction, or with
// the log cut anywhere past the compacted prefix — holds the sessions of
// the matching prefix and the same byte tallies, so it goes on compacting
// exactly as this one would have. A cut inside the compacted prefix fails
// recovery.
func TestJournalCompactionLinearAndRecoverable(t *testing.T) {
	const every = 16
	dir := t.TempDir()
	met := obs.NewRegistry()
	j, err := OpenJournal(dir, Options{Fsync: FsyncOff, SnapshotEvery: every, Met: met})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	type modelSession struct {
		next   int64
		chunks []string
	}
	model := map[string]*modelSession{}
	modelState := func() string {
		ids := make([]string, 0, len(model))
		for id := range model {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var b strings.Builder
		for _, id := range ids {
			fmt.Fprintf(&b, "%s next=%d:%s\n", id, model[id].next, strings.Join(append([]string{""}, model[id].chunks...), " "))
		}
		return b.String()
	}
	commit := func(id string, seq int64, format string, payload []byte) {
		m := model[id]
		if m == nil {
			m = &modelSession{}
			model[id] = m
		}
		if seq < m.next {
			return
		}
		m.chunks = append(m.chunks, chunkState(seq, format, payload))
		m.next = seq + 1
	}
	reopen := func(logSize int64, want string) {
		t.Helper()
		cp := t.TempDir()
		copyDirTruncated(t, dir, cp, logSize)
		back, err := OpenJournal(cp, Options{SnapshotEvery: every})
		if want == "" {
			if !errors.Is(err, errCorruptPrefix) {
				t.Fatalf("log cut at %d inside the compacted prefix: err = %v", logSize, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		sessions, tallies := journalState(t, back)
		if got := sessions + tallies; got != want {
			t.Fatalf("log cut at %d recovered\n%s\nwant\n%s", logSize, got, want)
		}
	}

	// prefix[i] is the state once the log held offs[i] bytes; both restart
	// at every compaction, whose rewritten log is the new offs[0].
	offs, prefix := []int64{0}, []string{"total=0 live=0 appends=0"}
	var maxFrame, snapshots int64
	rng := rand.New(rand.NewSource(14))
	for step := 0; step < 2000; step++ {
		id := fmt.Sprintf("s%d", rng.Intn(8))
		next := int64(0)
		if m := model[id]; m != nil {
			next = m.next
		}
		appended := met.Counter("wal.append.bytes").Value()
		switch r := rng.Intn(100); {
		case r < 6:
			err = j.End(id)
			delete(model, id)
		case r < 14:
			err = j.Mint(id)
			if model[id] == nil {
				model[id] = &modelSession{}
			}
		case r < 24:
			ids := []string{"x", fmt.Sprint(step)}
			err = commitTomb(j, id, "k", next, ids)
			commit(id, next, wire.FormatTombstones, tombBody(ids))
		case r < 28 && next > 0: // a duplicate the checkpoint rule drops
			err = commitChunk(j, id, "k", "f", next-1, chunkRecs(id, 1))
		default:
			recs := chunkRecs(fmt.Sprint(id, step), 1+rng.Intn(4))
			err = commitChunk(j, id, "k", "f", next, recs)
			commit(id, next, wire.CodecXML, xmlBody(recs))
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sessions, tallies := journalState(t, j)
		if sessions != modelState() {
			t.Fatalf("step %d: journal holds\n%s\nmodel\n%s", step, sessions, modelState())
		}
		appendedNow := met.Counter("wal.append.bytes").Value()
		if frame := appendedNow - appended; frame > maxFrame {
			maxFrame = frame
		}
		if rewritten := met.Counter("wal.snapshot.bytes.total").Value(); rewritten > appendedNow {
			t.Fatalf("step %d: %d bytes rewritten for %d appended", step, rewritten, appendedNow)
		}
		info, err := os.Stat(filepath.Join(dir, logFile))
		if err != nil {
			t.Fatal(err)
		}
		// Within SnapshotEvery frames of the last compaction the log is its
		// rewrite plus those frames; past them, under twice the live bytes
		// (the prefix frame is garbage too).
		if live := met.Gauge("wal.live.bytes").Value(); info.Size() > 2*live+prefixFrameLen && info.Size() > offs[0]+every*maxFrame {
			t.Fatalf("step %d: log is %d bytes over %d live, %d at the last compaction", step, info.Size(), live, offs[0])
		}
		if n := met.Counter("wal.snapshots").Value(); n != snapshots {
			snapshots = n
			offs, prefix = offs[:0], prefix[:0]
			reopen(info.Size(), sessions+tallies)
		}
		if len(offs) == 0 || info.Size() != offs[len(offs)-1] {
			offs, prefix = append(offs, info.Size()), append(prefix, sessions+tallies)
		}
		if step%50 == 0 {
			cut := offs[0] + rng.Int63n(info.Size()-offs[0]+1)
			i := sort.Search(len(offs), func(i int) bool { return offs[i] > cut }) - 1
			reopen(cut, prefix[i])
			if offs[0] > frameHeader+1 {
				reopen(frameHeader+1+rng.Int63n(offs[0]-frameHeader-1), "")
			}
		}
	}
	if snapshots < 5 || met.Counter("wal.compactions.skipped").Value() == 0 {
		t.Fatalf("run exercised %d compactions and %d skips; want both", snapshots, met.Counter("wal.compactions.skipped").Value())
	}
}

// Compaction is housekeeping: when the rewritten log cannot be written,
// the frame that triggered the attempt is journaled all the same, its
// ticket resolves, and the next append tries again.
func TestJournalCompactionFailureKeepsChunk(t *testing.T) {
	dir := t.TempDir()
	met := obs.NewRegistry()
	j, err := OpenJournal(dir, Options{Fsync: FsyncBatch, SnapshotEvery: 4, Met: met})
	if err != nil {
		t.Fatal(err)
	}
	j.Mint("a")
	commitChunk(j, "a", "k", "f", 0, chunkRecs("p", 3))
	commitChunk(j, "a", "k", "f", 1, chunkRecs("q", 3))
	// A non-empty directory where the rewrite's temp file goes makes every
	// WAL.Rewrite fail before it touches the log.
	tmp := filepath.Join(dir, logFile+".tmp")
	if err := os.MkdirAll(filepath.Join(tmp, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.End("a"); err != nil {
		t.Fatalf("End failed with its compaction: %v", err)
	}
	p, err := j.ChunkAsync("b", "k", "f", 0, chunkRecs("r", 1))
	if err != nil {
		t.Fatalf("ChunkAsync failed with its compaction: %v", err)
	}
	j.Flush()
	if err := p.Err(); err != nil {
		t.Fatalf("commit did not resolve: %v", err)
	}
	if n := met.Counter("wal.compact.errors").Value(); n != 2 {
		t.Fatalf("wal.compact.errors=%d, want 2", n)
	}
	if err := os.RemoveAll(tmp); err != nil {
		t.Fatal(err)
	}
	if err := commitChunk(j, "b", "k", "f", 1, chunkRecs("s", 1)); err != nil {
		t.Fatal(err)
	}
	if n := met.Counter("wal.snapshots").Value(); n != 1 {
		t.Fatalf("%d compactions once the path was writable again, want 1", n)
	}
	j.Close()
	back, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if s := sessionsOf(t, back); len(s) != 1 || s[0].ID != "b" || s[0].Next != 2 || len(s[0].Chunks) != 2 {
		t.Fatalf("recovered %+v", s)
	}
}

// A compaction replaces the log by rename, so a crash at any step of it —
// the temp file written, synced, renamed — leaves the old log or the new
// one whole, and a journal reopened on the directory as the crash left it
// recovers exactly the live sessions: from the old log before the rename,
// from the compacted one after, and it compacts again from there. A
// rewrite that fails at a step (its temp file gone before the rename)
// leaves the old log in use, and the journal goes on appending to it.
func TestJournalRewriteCrashAtEachStep(t *testing.T) {
	for _, step := range []string{"written", "synced", "renamed"} {
		for _, fail := range []bool{false, true} {
			if fail && step == "renamed" {
				continue // past the rename nothing can fail
			}
			dir, crash := t.TempDir(), t.TempDir()
			j, err := OpenJournal(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			j.Mint("a")
			j.Mint("b")
			commitChunk(j, "a", "k", "f", 0, chunkRecs("a", 2))
			commitTomb(j, "a", "k", 1, []string{"x"})
			commitChunk(j, "b", "k", "f", 0, chunkRecs("b", 3))
			j.End("b")
			want, _ := journalState(t, j)
			logSize := func(dir string) int64 {
				info, err := os.Stat(filepath.Join(dir, logFile))
				if err != nil {
					t.Fatal(err)
				}
				return info.Size()
			}
			oldSize := logSize(dir)
			j.wal.testHookRewrite = func(at string) {
				if at != step {
					return
				}
				if fail {
					os.Remove(filepath.Join(dir, logFile+".tmp"))
				} else {
					copyDirTruncated(t, dir, crash, math.MaxInt64)
				}
			}
			err = j.Compact()
			j.wal.testHookRewrite = func(string) {}
			if fail {
				if err == nil {
					t.Fatalf("%s: rewrite whose temp file vanished succeeded", step)
				}
				if err := commitChunk(j, "a", "k", "f", 2, chunkRecs("c", 1)); err != nil {
					t.Fatal(err)
				}
				want, _ = journalState(t, j)
				j.Close()
				if size := logSize(dir); size <= oldSize {
					t.Fatalf("%s: failed rewrite, then a chunk: log %d bytes, was %d", step, size, oldSize)
				}
				crash = dir
			} else {
				if err != nil {
					t.Fatal(err)
				}
				newSize := logSize(dir)
				j.Close()
				wantSize := oldSize
				if step == "renamed" {
					wantSize = newSize
				}
				if size := logSize(crash); size != wantSize || newSize >= oldSize {
					t.Fatalf("crash once %s: log %d bytes; old %d, compacted %d", step, size, oldSize, newSize)
				}
			}
			back, err := OpenJournal(crash, Options{})
			if err != nil {
				t.Fatalf("%s (fail=%t): %v", step, fail, err)
			}
			if got, _ := journalState(t, back); got != want {
				t.Fatalf("%s (fail=%t): recovered\n%s\nwant\n%s", step, fail, got, want)
			}
			if err := back.Compact(); err != nil {
				t.Fatal(err)
			}
			back.Close()
			again, err := OpenJournal(crash, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := journalState(t, again); got != want {
				t.Fatalf("%s (fail=%t): compacted again, recovered\n%s\nwant\n%s", step, fail, got, want)
			}
			again.Close()
		}
	}
}

// Sessions commit from their own goroutines: frames are rendered into
// pooled buffers outside the journal lock, and compactions triggered by one
// session's End run while the others keep appending. Run under -race by the
// merge gate; the survivor's payloads must come back byte for byte.
func TestJournalConcurrentSessionsCompact(t *testing.T) {
	dir := t.TempDir()
	met := obs.NewRegistry()
	j, err := OpenJournal(dir, Options{Fsync: FsyncBatch, SnapshotEvery: 32, MaxBatchHold: 200 * time.Microsecond, Met: met})
	if err != nil {
		t.Fatal(err)
	}
	session := func(id string, chunks int, end bool) {
		if err := j.Mint(id); err != nil {
			t.Error(err)
			return
		}
		tickets := make([]*Pending, chunks)
		for i := range tickets {
			p, err := j.ChunkAsync(id, "k", "f", int64(i), chunkRecs(fmt.Sprintf("%s-%d-", id, i), 3))
			if err != nil {
				t.Error(err)
				return
			}
			tickets[i] = p
		}
		j.Flush()
		for _, p := range tickets {
			if err := p.Err(); err != nil {
				t.Error(err)
				return
			}
		}
		if end {
			if err := j.End(id); err != nil {
				t.Error(err)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				session(fmt.Sprintf("g%d-r%d", g, round), 40, true)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		session("keep", 60, false)
	}()
	wg.Wait()
	if met.Counter("wal.snapshots").Value() == 0 {
		t.Error("no compaction ran")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	got := sessionsOf(t, back)
	if len(got) != 1 || got[0].ID != "keep" || got[0].Next != 60 || len(got[0].Chunks) != 60 {
		t.Fatalf("recovered %d sessions, first %+v", len(got), got)
	}
	for i, c := range got[0].Chunks {
		if want := xmlBody(chunkRecs(fmt.Sprintf("keep-%d-", i), 3)); !bytes.Equal(c.Bytes, want) {
			t.Fatalf("chunk %d came back changed", i)
		}
	}
}

// A SIGKILL-shaped tear: truncate the journal's log mid-frame; recovery
// replays the longest valid prefix.
func TestJournalTornLogRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	j.Mint("s")
	commitChunk(j, "s", "k", "f", 0, chunkRecs("a", 2))
	commitChunk(j, "s", "k", "f", 1, chunkRecs("b", 2))
	j.Close()
	logPath := filepath.Join(dir, logFile)
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	back, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	s := sessionsOf(t, back)
	if len(s) != 1 || s[0].Next != 1 || len(s[0].Chunks) != 1 {
		t.Fatalf("torn journal recovered %+v", s)
	}
}
