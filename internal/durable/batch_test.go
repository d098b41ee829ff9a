package durable

// Group-commit coverage: ordering and byte-identity against a serial
// one-frame-per-group reference, ack-after-sync across the write-vs-sync
// crash window, lone-appender hold bounds, close/drain hardening, FsyncOff
// on the same path, and a race-detector stress over one shared WAL.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"xdx/internal/obs"
)

// TestBatchRecoverMatchesSerialAlways is the interleaving property test:
// whatever order concurrent batched appenders land in, recovery yields a
// framing-valid log holding exactly the appended payloads, with every
// per-goroutine subsequence in order — and re-appending the recovered
// payloads serially, each waited on before the next, so every group holds
// one frame and syncs it as the removed always policy did, reproduces a
// byte-identical log file: a batched log is indistinguishable from a
// serial one.
func TestBatchRecoverMatchesSerialAlways(t *testing.T) {
	const (
		goroutines = 6
		perG       = 40
	)
	for round := 0; round < 3; round++ {
		dir := t.TempDir()
		w, got, _ := openRecovered(t, dir, Options{
			Fsync:          FsyncBatch,
			MaxBatchFrames: 1 + round*7, // vary the group-cut pattern
			MaxBatchHold:   time.Millisecond,
		})
		if len(got) != 0 {
			t.Fatalf("fresh WAL recovered %d records", len(got))
		}
		rng := rand.New(rand.NewSource(int64(round)))
		jitter := make([]int, goroutines)
		for g := range jitter {
			jitter[g] = rng.Intn(50)
		}
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					p := []byte(fmt.Sprintf("g%02d-i%03d-%s", g, i, bytes.Repeat([]byte{byte(g)}, jitter[g])))
					if err := w.Append(p); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for g, err := range errs {
			if err != nil {
				t.Fatalf("goroutine %d: %v", g, err)
			}
		}

		w2, recovered, st := openRecovered(t, dir, Options{})
		w2.Close()
		if st.TornBytes != 0 {
			t.Errorf("round %d: batched log reported %d torn bytes", round, st.TornBytes)
		}
		if len(recovered) != goroutines*perG {
			t.Fatalf("round %d: recovered %d records, want %d", round, len(recovered), goroutines*perG)
		}
		// Every acked append is present exactly once, and each
		// goroutine's appends recover in its submission order.
		seen := map[string]int{}
		nextPerG := make([]int, goroutines)
		for _, p := range recovered {
			seen[string(p)]++
			var g, i int
			if _, err := fmt.Sscanf(string(p), "g%02d-i%03d-", &g, &i); err != nil {
				t.Fatalf("round %d: unparseable payload %q", round, p)
			}
			if i != nextPerG[g] {
				t.Fatalf("round %d: goroutine %d order broken: got i=%d want %d", round, g, i, nextPerG[g])
			}
			nextPerG[g]++
		}
		for p, n := range seen {
			if n != 1 {
				t.Fatalf("round %d: payload %q recovered %d times", round, p, n)
			}
		}

		// Serial reference: appending the recovered sequence one frame
		// at a time yields a byte-identical wal.log.
		refDir := t.TempDir()
		ref, _, _ := openRecovered(t, refDir, Options{})
		for _, p := range recovered {
			if err := ref.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		ref.Close()
		batched, err := os.ReadFile(filepath.Join(dir, logFile))
		if err != nil {
			t.Fatal(err)
		}
		serial, err := os.ReadFile(filepath.Join(refDir, logFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batched, serial) {
			t.Fatalf("round %d: batched log differs from serial log (%d vs %d bytes)", round, len(batched), len(serial))
		}
	}
}

// copyDirTruncated copies a WAL directory, cutting the copy's wal.log at
// size — the durable prefix a power cut would leave when everything past
// size was written but never synced.
func copyDirTruncated(t *testing.T, src, dst string, size int64) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == logFile && int64(len(data)) > size {
			data = data[:size]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchCrashBetweenWriteAndSync freezes the crash window group commit
// opens: a group's frames are written but the fsync has not returned, so
// none of its tickets have resolved. A crash there must lose only
// un-acked chunks — everything acked earlier is on the synced prefix, and
// a resume from the recovered checkpoint re-ships the rest, converging on
// the same final journal.
func TestBatchCrashBetweenWriteAndSync(t *testing.T) {
	const chunks = 10
	dir := t.TempDir()
	j, err := OpenJournal(dir, Options{
		Fsync:          FsyncBatch,
		MaxBatchFrames: 2, // several groups across 10 chunks
		MaxBatchHold:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	crashDir := t.TempDir()
	var (
		mu         sync.Mutex
		commits    int
		syncedSize int64 // wal.log size when the last synced group landed
		captured   bool
	)
	j.wal.bat.testHookPreSync = func() {
		mu.Lock()
		defer mu.Unlock()
		commits++
		if commits == 3 && !captured {
			captured = true
			// This group is written but NOT synced: the durable prefix
			// ends where the previous group's sync left it.
			copyDirTruncated(t, dir, crashDir, syncedSize)
		}
		st, err := os.Stat(filepath.Join(dir, logFile))
		if err != nil {
			t.Error(err)
			return
		}
		syncedSize = st.Size()
	}

	recs := chunkRecs("crash", 2)
	for i := 0; i < chunks; i++ {
		p, err := j.ChunkAsync("sess", "k", "frag", int64(i), recs)
		if err != nil {
			t.Fatal(err)
		}
		j.Flush()
		if err := p.Err(); err != nil { // ack chunk i before submitting i+1
			t.Fatal(err)
		}
	}
	if !captured {
		t.Fatal("pre-sync hook never captured the crash window")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover the crash copy: the checkpoint must cover a prefix of the
	// acked chunks and nothing past the synced boundary.
	rec, err := OpenJournal(crashDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss := sessionsOf(t, rec)
	var next int64
	if len(ss) > 0 {
		next = ss[0].Next
	}
	if next >= chunks {
		t.Fatalf("crash copy recovered next=%d, want < %d (the crashed group was never acked)", next, chunks)
	}
	// Resume: re-ship every chunk at or past the recovered checkpoint —
	// exactly what the source's resume protocol does.
	for i := next; i < chunks; i++ {
		if err := commitChunk(rec, "sess", "k", "frag", i, recs); err != nil {
			t.Fatal(err)
		}
	}
	got := sessionsOf(t, rec)
	if len(got) != 1 {
		t.Fatalf("after resume: %d sessions, want 1", len(got))
	}
	if got[0].Next != chunks || len(got[0].Chunks) != chunks {
		t.Fatalf("after resume: next=%d chunks=%d, want %d/%d",
			got[0].Next, len(got[0].Chunks), chunks, chunks)
	}
	rec.Close()
}

// TestBatchCloseResolvesPending hardens Close: tickets still queued when
// Close runs must resolve durable, not dangle — Close drains the group.
func TestBatchCloseResolvesPending(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openRecovered(t, dir, Options{
		Fsync:        FsyncBatch,
		MaxBatchHold: time.Hour, // only a drain can cut this group
	})
	var tickets []*Pending
	for i := 0; i < 5; i++ {
		tickets = append(tickets, w.appendParts([]byte(fmt.Sprintf("p%d", i)), nil))
	}
	done := make(chan error, 1)
	go func() { done <- w.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung draining the batch")
	}
	for i, p := range tickets {
		select {
		case <-p.Done():
		default:
			t.Fatalf("ticket %d unresolved after Close", i)
		}
		if err := p.Err(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	w2, got, _ := openRecovered(t, dir, Options{})
	w2.Close()
	if len(got) != 5 {
		t.Fatalf("recovered %d records after Close drain, want 5", len(got))
	}
}

// TestCloseSyncsUnsyncedTail is the close-hardening regression: a clean
// shutdown under FsyncOff must fsync the tail appended since the last sync
// instead of abandoning it to the page cache.
func TestCloseSyncsUnsyncedTail(t *testing.T) {
	met := obs.NewRegistry()
	dir := t.TempDir()
	w, _, _ := openRecovered(t, dir, Options{Fsync: FsyncOff, Met: met})
	if err := w.Append([]byte("tail-window")); err != nil {
		t.Fatal(err)
	}
	if n := met.Counter("wal.fsyncs").Value(); n != 0 {
		t.Fatalf("unexpected %d fsyncs before Close", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := met.Counter("wal.fsyncs").Value(); n != 1 {
		t.Fatalf("Close issued %d fsyncs, want exactly 1 for the dirty tail", n)
	}
	w2, got, _ := openRecovered(t, dir, Options{})
	w2.Close()
	if len(got) != 1 || string(got[0]) != "tail-window" {
		t.Fatalf("dirty tail not recovered: %q", got)
	}
}

// TestBatchOffSkipsFsync: FsyncOff appends go through the same commit
// groups — every ticket resolves, every frame is counted in a group and
// recovered — and no group pays an fsync.
func TestBatchOffSkipsFsync(t *testing.T) {
	const goroutines, perG = 4, 25
	met := obs.NewRegistry()
	dir := t.TempDir()
	w, _, _ := openRecovered(t, dir, Options{Fsync: FsyncOff, MaxBatchFrames: 8, Met: met})
	var wg sync.WaitGroup
	tickets := make([]*Pending, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tickets[g*perG+i] = w.appendParts([]byte(fmt.Sprintf("g%d-%d", g, i)), nil)
			}
		}(g)
	}
	wg.Wait()
	w.bat.hurryUp()
	for i, p := range tickets {
		select {
		case <-p.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("ticket %d never resolved", i)
		}
		if err := p.Err(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if n := met.Counter("wal.fsyncs").Value(); n != 0 {
		t.Fatalf("wal.fsyncs = %d under FsyncOff, want 0", n)
	}
	frames, _ := met.Snapshot()["wal.batch.frames"].(map[string]any)
	if n := frames["sum"]; n != float64(goroutines*perG) {
		t.Fatalf("frames committed in groups = %v, want %d", n, goroutines*perG)
	}
	w.Close()
	w2, got, _ := openRecovered(t, dir, Options{})
	w2.Close()
	if len(got) != goroutines*perG {
		t.Fatalf("recovered %d records, want %d", len(got), goroutines*perG)
	}
}

// TestBatchLoneAppenderHold bounds the lone appender's wait: with nobody
// to share a group and nobody waiting on its ticket, the hold timer cuts
// the batch (one stall, one frame) rather than leaving it queued
// indefinitely.
func TestBatchLoneAppenderHold(t *testing.T) {
	met := obs.NewRegistry()
	dir := t.TempDir()
	w, _, _ := openRecovered(t, dir, Options{
		Fsync:        FsyncBatch,
		MaxBatchHold: 5 * time.Millisecond,
		Met:          met,
	})
	defer w.Close()
	p := w.appendParts([]byte("alone"), nil)
	select {
	case <-p.Done():
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lone append never committed — hold timer did not fire")
	}
	if n := met.Counter("wal.batch.stalls").Value(); n < 1 {
		t.Fatalf("stalls counter = %d, want >= 1 (hold expiry)", n)
	}
	if n := met.Snapshot()["wal.batch.frames"].(map[string]any)["count"]; n != int64(1) {
		t.Fatalf("batch.frames observations = %d, want 1", n)
	}
}

// TestBatchWaiterHurriesAndSharesTicket: frames queued together share
// their group's one ticket, and waiting on it commits the group at once —
// the hold only gathers frames while nobody is waiting.
func TestBatchWaiterHurriesAndSharesTicket(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openRecovered(t, dir, Options{Fsync: FsyncBatch, MaxBatchHold: time.Hour})
	defer w.Close()
	p1, p2 := w.appendParts([]byte("one"), nil), w.appendParts([]byte("two"), nil)
	if p1 != p2 {
		t.Fatal("frames of one group hold different tickets")
	}
	done := make(chan error, 1)
	go func() { done <- p1.Err() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiting on the ticket did not cut the hour-long hold")
	}
}

// TestBatchFlushHurries checks Flush cuts the hold short: with an
// effectively infinite hold, only Flush can commit the group.
func TestBatchFlushHurries(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openRecovered(t, dir, Options{
		Fsync:        FsyncBatch,
		MaxBatchHold: time.Hour,
	})
	defer w.Close()
	p := w.appendParts([]byte("hurried"), nil)
	select {
	case <-p.Done():
		t.Fatal("ticket resolved before Flush under an hour-long hold")
	case <-time.After(20 * time.Millisecond):
	}
	w.bat.hurryUp()
	select {
	case <-p.Done():
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush did not commit the pending group")
	}
}

// TestBatchRaceStress hammers one WAL from many goroutines (run under
// -race by the merge gate) and checks nothing is lost or duplicated.
func TestBatchRaceStress(t *testing.T) {
	const (
		goroutines = 8
		perG       = 150
	)
	dir := t.TempDir()
	met := obs.NewRegistry()
	w, _, _ := openRecovered(t, dir, Options{
		Fsync:          FsyncBatch,
		MaxBatchFrames: 16,
		MaxBatchHold:   500 * time.Microsecond,
		Met:            met,
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, got, _ := openRecovered(t, dir, Options{})
	w2.Close()
	if len(got) != goroutines*perG {
		t.Fatalf("recovered %d, want %d", len(got), goroutines*perG)
	}
	uniq := map[string]bool{}
	for _, p := range got {
		uniq[string(p)] = true
	}
	if len(uniq) != goroutines*perG {
		t.Fatalf("recovered %d unique payloads, want %d", len(uniq), goroutines*perG)
	}
	syncs := met.Counter("wal.fsyncs").Value()
	if syncs <= 0 || syncs >= int64(goroutines*perG) {
		t.Fatalf("fsyncs = %d, want coalesced into (0, %d)", syncs, goroutines*perG)
	}
}

// TestBatchJournalEquivalence runs the same session history through a
// journal committing asynchronously in flush-paced groups and one waiting
// on every chunk before the next (a group per frame), and requires the
// recovered states to match exactly.
func TestBatchJournalEquivalence(t *testing.T) {
	type op struct {
		id  string
		seq int64
	}
	var history []op
	for s := 0; s < 3; s++ {
		for c := 0; c < 5; c++ {
			history = append(history, op{fmt.Sprintf("sess-%d", s), int64(c)})
		}
	}
	run := func(dir string, o Options, async bool) {
		j, err := OpenJournal(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		var tickets []*Pending
		for _, op := range history {
			if err := j.Mint(op.id); err != nil {
				t.Fatal(err)
			}
			recs := chunkRecs(op.id, 2)
			if async {
				p, err := j.ChunkAsync(op.id, "k", "frag", op.seq, recs)
				if err != nil {
					t.Fatal(err)
				}
				tickets = append(tickets, p)
			} else if err := commitChunk(j, op.id, "k", "frag", op.seq, recs); err != nil {
				t.Fatal(err)
			}
		}
		j.Flush()
		for _, p := range tickets {
			if err := p.Err(); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	run(dirA, Options{}, false)
	run(dirB, Options{Fsync: FsyncBatch, MaxBatchFrames: 4, MaxBatchHold: time.Hour}, true)

	ja, err := OpenJournal(dirA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jb, err := OpenJournal(dirB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ja.Close()
	defer jb.Close()
	a, b := sessionsOf(t, ja), sessionsOf(t, jb)
	if len(a) != len(b) {
		t.Fatalf("session counts differ: serial=%d grouped=%d", len(a), len(b))
	}
	sort.Slice(a, func(i, k int) bool { return a[i].ID < a[k].ID })
	sort.Slice(b, func(i, k int) bool { return b[i].ID < b[k].ID })
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Next != b[i].Next || len(a[i].Chunks) != len(b[i].Chunks) {
			t.Fatalf("session %d differs: serial={%s %d %d} grouped={%s %d %d}",
				i, a[i].ID, a[i].Next, len(a[i].Chunks), b[i].ID, b[i].Next, len(b[i].Chunks))
		}
		for c := range a[i].Chunks {
			ca, cb := a[i].Chunks[c], b[i].Chunks[c]
			if ca.Key != cb.Key || ca.Frag != cb.Frag || ca.Seq != cb.Seq || ca.Format != cb.Format || !bytes.Equal(ca.Bytes, cb.Bytes) {
				t.Fatalf("session %s chunk %d differs", a[i].ID, c)
			}
		}
	}
}
