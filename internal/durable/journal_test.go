package durable

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
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
// the log, and stale pre-snapshot log records replayed over a newer
// snapshot (the crash window between snapshot rename and log truncate)
// must be idempotent.
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
	j.Close()

	back, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sessions := sessionsOf(t, back)
	if len(sessions) != 1 {
		t.Fatalf("recovered %d sessions", len(sessions))
	}
	s := sessions[0]
	if s.Next != 3 || len(s.Chunks) != 3 {
		t.Fatalf("recovered next=%d chunks=%d, want 3/3", s.Next, len(s.Chunks))
	}
	back.Close()

	// Crash window: stale records (seqs 0..1) replayed over the snapshot
	// that already contains them must not duplicate chunks.
	stale, err := OpenJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale.mu.Lock()
	stale.applyChunkLocked("s", 1, frameLoc{n: 64})
	n := len(stale.sessions["s"].chunks)
	stale.mu.Unlock()
	stale.Close()
	if n != 3 {
		t.Fatalf("stale replay duplicated chunks: %d", n)
	}
}

// A lone live session is never copied: no amount of appends makes a
// snapshot of it worth writing, and the End that turns it all into garbage
// truncates the log behind a snapshot of nothing.
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
	if n := met.Counter("wal.snapshot.bytes.total").Value(); n > 64 {
		t.Errorf("snapshot of no sessions is %d bytes", n)
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
// lifecycles: snapshots never write more than was appended, the log never
// outgrows twice the live state plus SnapshotEvery frames, and a journal
// reopened on a copy of the directory — at any compaction, or with the log
// cut anywhere — holds the sessions of the matching prefix and the same
// byte tallies, so it goes on compacting exactly as this one would have.
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
	// at every compaction, whose snapshot is the new offset 0.
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
		if snap := met.Counter("wal.snapshot.bytes.total").Value(); snap > appendedNow {
			t.Fatalf("step %d: %d snapshot bytes written for %d appended", step, snap, appendedNow)
		}
		info, err := os.Stat(filepath.Join(dir, logFile))
		if err != nil {
			t.Fatal(err)
		}
		if live := met.Gauge("wal.live.bytes").Value(); info.Size() > 2*live+every*maxFrame {
			t.Fatalf("step %d: log is %d bytes over %d live", step, info.Size(), live)
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
			cut := rng.Int63n(info.Size() + 1)
			i := sort.Search(len(offs), func(i int) bool { return offs[i] > cut }) - 1
			reopen(cut, prefix[i])
		}
	}
	if snapshots < 5 || met.Counter("wal.compactions.skipped").Value() == 0 {
		t.Fatalf("run exercised %d compactions and %d skips; want both", snapshots, met.Counter("wal.compactions.skipped").Value())
	}
}

// Compaction is housekeeping: when the snapshot cannot be written, the
// frame that triggered the attempt is journaled all the same, its ticket
// resolves, and the next append tries again.
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
	// A non-empty directory where the snapshot's temp file goes makes every
	// WAL.Snapshot fail before it touches the old snapshot or the log.
	tmp := filepath.Join(dir, snapFile+".tmp")
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
		t.Fatalf("%d snapshots once the path was writable again, want 1", n)
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
