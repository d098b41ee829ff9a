package durable

// Journal is the session-level client of the WAL: it logs the endpoint's
// resumable-session lifecycle (mint, chunk commit, end) as one XML payload
// per frame, keeps a shadow copy of the live state, and compacts the log
// into a snapshot of that shadow once the bytes of ended sessions outweigh
// the live ones (maybeCompactLocked). After a crash, OpenJournal rebuilds
// the shadow from snapshot+log; the endpoint re-seeds its session store
// from Sessions() — ledger checkpoint, seen record IDs, and the committed
// chunk contents a resumed delivery's execute needs.
//
// Record formats (one tree per frame):
//
//	<s id="SID"/>                                   session minted
//	<c id="SID" key="K" frag="F" seq="N">recs</c>   chunk committed
//	<c id="SID" key="K" seq="N" del="1">ids</c>     tombstone chunk committed
//	<e id="SID"/>                                   session ended
//
// Chunk records carry the post-dedup records with their instance IDs
// (EmitAllIDs), so replay reconstructs both the instance map and the
// idempotency ledger exactly; tombstone chunks (delta exchanges) carry
// the deleted record IDs as empty <d ID=…/> kids. All ops are idempotent
// under replay — re-minting is a no-op, a chunk with a seq below the
// rebuilt checkpoint is skipped, ending an unknown session is fine — which
// is what makes the snapshot/truncate crash window of WAL.Snapshot safe.
//
// Decoding is strict: a log frame whose CRC holds but whose payload is
// missing its id or carries an unparsable seq is reported to the WAL as
// ErrMalformedFrame, which stops replay there and truncates the rest as a
// torn tail — a half-decoded chunk must never silently restore a zeroed
// checkpoint. A malformed snapshot is a hard recovery error (snapshots are
// written atomically; damage there is real corruption, not a torn append).

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"xdx/internal/bufpool"
	"xdx/internal/obs"
	"xdx/internal/xmltree"
)

// SessionChunk is one committed chunk recovered from (or headed to) the
// journal: the cross-edge instance key, the fragment name to resolve
// against the resumed program, the chunk sequence, and the committed
// records.
type SessionChunk struct {
	Key  string
	Frag string
	Seq  int64
	Recs []*xmltree.Node
	// Del marks a tombstone chunk of a delta exchange: Recs are empty
	// <d ID=…/> markers naming the deleted record IDs, not records to
	// hydrate into the instance map.
	Del bool
}

// JSession is the recovered durable state of one session.
type JSession struct {
	// ID names the session on the wire.
	ID string
	// Next is the rebuilt chunk checkpoint (lowest seq not yet committed).
	Next int64
	// Chunks are the committed chunks in commit order.
	Chunks []SessionChunk

	// bytes is what the session occupies on disk: its element in the
	// snapshot plus its mint and applied chunk frames in the log.
	bytes int64
}

// Journal persists session state through a WAL.
type Journal struct {
	wal *WAL

	mu       sync.Mutex
	sessions map[string]*JSession
	appends  int // since last snapshot
	every    int
	// total is the snapshot file plus every log frame; live is the part
	// of it the live sessions own (the sum of their bytes). The rest —
	// frames of ended sessions, end frames, replayed duplicates — is
	// garbage a compaction would reclaim.
	total, live int64

	mLive, mGarbage        *obs.Gauge
	mSkipped, mCompactErrs *obs.Counter

	stats RecoveryStats
}

// OpenJournal opens the WAL in dir and recovers the journaled sessions.
func OpenJournal(dir string, o Options) (*Journal, error) {
	w, err := Open(dir, o)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		wal: w, sessions: map[string]*JSession{}, every: o.SnapshotEvery,
		mLive: o.Met.Gauge("wal.live.bytes"), mGarbage: o.Met.Gauge("wal.garbage.bytes"),
		mSkipped: o.Met.Counter("wal.compactions.skipped"), mCompactErrs: o.Met.Counter("wal.compact.errors"),
	}
	st, err := w.Recover(j.replaySnapshot, j.replayRecord)
	if err != nil {
		w.Close()
		return nil, err
	}
	j.stats = st
	j.publishBytesLocked()
	return j, nil
}

// RecoveryStats reports what recovery found when the journal was opened.
func (j *Journal) RecoveryStats() RecoveryStats { return j.stats }

// Sessions returns the recovered (or current) durable sessions, sorted by
// ID. Chunk record trees are shared with the shadow state and must be
// treated as immutable.
func (j *Journal) Sessions() []*JSession {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*JSession, 0, len(j.sessions))
	for _, s := range j.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Len reports the live journaled session count.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.sessions)
}

// Batched reports whether the underlying WAL runs group commit
// (FsyncBatch) — the mode where ChunkAsync pipelines and Flush matters.
func (j *Journal) Batched() bool { return j.wal.bat != nil }

// Flush hurries the WAL's pending commit group out (FsyncBatch only):
// call it before parking on tickets so a quiet session never waits out
// the batch hold.
func (j *Journal) Flush() { j.wal.Flush() }

// Mint journals a new session. Re-minting a known session is a no-op.
// Under group commit the mint frame is not waited on: it is ordered ahead
// of the session's chunk frames in the same WAL, so any durable chunk
// implies a durable mint — and a lost mint alone is harmless, since chunk
// replay creates unknown sessions.
func (j *Journal) Mint(id string) error {
	frame := bufpool.Buffer()
	defer bufpool.PutBuffer(frame)
	if err := encodeFrame(frame, "s", id); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sessions[id] != nil {
		return nil
	}
	p, size := j.appendLocked(frame.Bytes())
	if !j.Batched() {
		if err := p.Err(); err != nil {
			return err
		}
	}
	j.sessions[id] = &JSession{ID: id, bytes: size}
	j.live += size
	j.maybeCompactLocked()
	return nil
}

// Chunk journals one committed chunk: it must be called before the chunk's
// checkpoint is allowed to advance, so a crash after this call replays the
// commit and a crash before it re-ships the chunk. The records are the
// post-dedup set actually committed.
func (j *Journal) Chunk(id, key, frag string, seq int64, recs []*xmltree.Node) error {
	p, err := j.ChunkAsync(id, key, frag, seq, recs)
	if err != nil {
		return err
	}
	return p.Err()
}

// ChunkAsync journals one committed chunk without waiting for durability:
// the returned ticket resolves when the frame's commit group has synced
// (immediately under non-batch policies). The caller must not advance the
// chunk's checkpoint — or acknowledge anything downstream of it — before
// the ticket resolves successfully; that deferred ack is what lets the
// decoder keep parsing the next chunk while this one's fsync is in
// flight. An error return (encode failure) means nothing was appended.
func (j *Journal) ChunkAsync(id, key, frag string, seq int64, recs []*xmltree.Node) (*Pending, error) {
	return j.chunkAsync(id, SessionChunk{Key: key, Frag: frag, Seq: seq, Recs: recs})
}

// Tomb journals one committed tombstone chunk (the deletions of a delta
// exchange) synchronously; see TombAsync.
func (j *Journal) Tomb(id, key string, seq int64, ids []string) error {
	p, err := j.TombAsync(id, key, seq, ids)
	if err != nil {
		return err
	}
	return p.Err()
}

// TombAsync journals one committed tombstone chunk without waiting for
// durability — the delta-exchange counterpart of ChunkAsync. The deleted
// record IDs travel as empty <d ID=…/> kids and replay into a Del chunk,
// so recovery re-applies the deletions instead of hydrating phantom
// records.
func (j *Journal) TombAsync(id, key string, seq int64, ids []string) (*Pending, error) {
	recs := make([]*xmltree.Node, 0, len(ids))
	for _, rid := range ids {
		recs = append(recs, &xmltree.Node{Name: "d", ID: rid})
	}
	return j.chunkAsync(id, SessionChunk{Key: key, Seq: seq, Recs: recs, Del: true})
}

func (j *Journal) chunkAsync(id string, c SessionChunk) (*Pending, error) {
	// Rendering the records is the expensive part of a commit; it happens
	// before the lock so concurrent sessions serialize only on the append.
	frame := bufpool.Buffer()
	defer bufpool.PutBuffer(frame)
	if err := xmltree.Write(frame, chunkNode(id, c), frameOpts); err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	p, size := j.appendLocked(frame.Bytes())
	j.applyChunkLocked(id, c, size)
	j.maybeCompactLocked()
	return p, nil
}

// End journals the release of sessions (EndSession, sweeps) and drops them
// from the shadow state, turning their bytes into garbage for the next
// compaction to reclaim. Under group commit the end frames are not waited
// on: a lost end merely leaves a session to be swept again, and the shadow
// deletion reaches the next snapshot regardless.
func (j *Journal) End(ids ...string) error {
	// The end frames sit back to back in one buffer; ends[i] is where
	// ids[i]'s frame stops.
	frames := bufpool.Buffer()
	defer bufpool.PutBuffer(frames)
	ends := make([]int, len(ids))
	for i, id := range ids {
		if err := encodeFrame(frames, "e", id); err != nil {
			return err
		}
		ends[i] = frames.Len()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var firstErr error
	start := 0
	for i, id := range ids {
		payload := frames.Bytes()[start:ends[i]]
		start = ends[i]
		s := j.sessions[id]
		if s == nil {
			continue
		}
		p, _ := j.appendLocked(payload)
		if !j.Batched() {
			if err := p.Err(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
		}
		delete(j.sessions, id)
		j.live -= s.bytes
	}
	if firstErr != nil {
		return firstErr
	}
	j.maybeCompactLocked()
	return nil
}

// Compact snapshots the shadow state and truncates the log.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactLocked()
}

// Close syncs and releases the underlying WAL.
func (j *Journal) Close() error { return j.wal.Close() }

// chunkNode builds a chunk's <c> element: a log frame names its session in
// id, a snapshot nests the element under the session and passes "".
func chunkNode(id string, c SessionChunk) *xmltree.Node {
	n := &xmltree.Node{Name: "c", Kids: c.Recs}
	if id != "" {
		n.SetAttr("id", id)
	}
	n.SetAttr("key", c.Key)
	if c.Frag != "" {
		n.SetAttr("frag", c.Frag)
	}
	n.SetAttr("seq", strconv.FormatInt(c.Seq, 10))
	if c.Del {
		n.SetAttr("del", "1")
	}
	return n
}

var frameOpts = xmltree.WriteOptions{EmitAllIDs: true}

// encodeFrame renders a mint ("s") or end ("e") record for session id.
func encodeFrame(b *bytes.Buffer, name, id string) error {
	n := &xmltree.Node{Name: name}
	n.SetAttr("id", id)
	return xmltree.Write(b, n, frameOpts)
}

// appendLocked hands one encoded record to the WAL, which copies it, and
// returns the durability ticket with the frame's size on disk.
func (j *Journal) appendLocked(payload []byte) (*Pending, int64) {
	size := int64(frameHeader + len(payload))
	j.appends++
	j.total += size
	return j.wal.AppendAsync(payload), size
}

// maybeCompactLocked is the compaction rule. Once SnapshotEvery frames
// have been appended since the last compaction, it compacts as soon as
// the garbage is at least as large as the live state, so every byte a
// snapshot writes is paid for by a byte it reclaims: snapshot traffic
// never exceeds append traffic, a lone live session is never copied, and
// snapshot+log — what recovery reads — stays under twice the live bytes
// plus SnapshotEvery frames. Compaction is housekeeping: a failure is
// counted and logged, the frame that triggered it stays journaled, and the
// next append checks again.
func (j *Journal) maybeCompactLocked() {
	j.publishBytesLocked()
	if j.every <= 0 || j.appends < j.every {
		return
	}
	if j.total-j.live < j.live {
		j.mSkipped.Inc()
		return
	}
	if err := j.compactLocked(); err != nil {
		j.mCompactErrs.Inc()
		j.wal.log.Log(obs.LevelWarn, "journal compaction failed", "dir", j.wal.dir, "err", err.Error())
	}
}

func (j *Journal) publishBytesLocked() {
	j.mLive.Set(j.live)
	j.mGarbage.Set(j.total - j.live)
}

// countWriter counts what passes through, to size each session's element.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.w.Write(p)
}

// compactLocked streams the shadow state as <journal><s…><c…/></s></journal>
// into WAL.Snapshot, and on success resets the byte tallies to what the
// snapshot holds.
func (j *Journal) compactLocked() error {
	ids := make([]string, 0, len(j.sessions))
	for id := range j.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sizes := make([]int64, len(ids))
	cw := &countWriter{}
	err := j.wal.Snapshot(func(w io.Writer) error {
		cw.w = w
		if _, err := io.WriteString(cw, "<journal>"); err != nil {
			return err
		}
		for i, id := range ids {
			s := j.sessions[id]
			sn := &xmltree.Node{Name: "s", Kids: make([]*xmltree.Node, len(s.Chunks))}
			sn.SetAttr("id", s.ID)
			sn.SetAttr("next", strconv.FormatInt(s.Next, 10))
			for k, c := range s.Chunks {
				sn.Kids[k] = chunkNode("", c)
			}
			before := cw.n
			if err := xmltree.Write(cw, sn, frameOpts); err != nil {
				return err
			}
			sizes[i] = cw.n - before
		}
		_, err := io.WriteString(cw, "</journal>")
		return err
	})
	if err != nil {
		return err
	}
	j.appends, j.total, j.live = 0, frameHeader+cw.n, 0
	for i, id := range ids {
		j.sessions[id].bytes = sizes[i]
		j.live += sizes[i]
	}
	j.publishBytesLocked()
	return nil
}

// applyChunkLocked folds one chunk commit, whose frame takes size bytes of
// the log, into the shadow state, with the ledger's checkpoint rule
// (seq >= next advances next to seq+1; seqless chunks leave it alone).
// Replayed duplicates — a stale log record applied over a newer snapshot —
// are skipped by the same rule, and their bytes stay garbage.
func (j *Journal) applyChunkLocked(id string, c SessionChunk, size int64) {
	s := j.sessions[id]
	if s == nil {
		s = &JSession{ID: id}
		j.sessions[id] = s
	}
	if c.Seq >= 0 && c.Seq < s.Next {
		return // already compacted into the snapshot; idempotent replay
	}
	s.Chunks = append(s.Chunks, c)
	if c.Seq >= s.Next {
		s.Next = c.Seq + 1
	}
	s.bytes += size
	j.live += size
}

// replaySnapshot rebuilds the shadow state from a compacted snapshot.
func (j *Journal) replaySnapshot(payload []byte) error {
	root, err := xmltree.Parse(strings.NewReader(string(payload)))
	if err != nil {
		return err
	}
	if root.Name != "journal" {
		return fmt.Errorf("unexpected snapshot root %q", root.Name)
	}
	for _, sn := range root.Kids {
		if sn.Name != "s" {
			continue
		}
		id, _ := sn.Attr("id")
		if id == "" {
			return fmt.Errorf("snapshot session without id")
		}
		// Parse drops nothing Write emits except whitespace around text, so
		// re-measuring the element gives back the size compaction counted.
		s := &JSession{ID: id, bytes: xmltree.SizeWith(sn, frameOpts)}
		// The compactor always stamps next; a session element without it, or
		// with an unparsable value, is corruption — restoring checkpoint 0
		// here would rewind the ledger and mis-dedup resumed chunks.
		v, ok := sn.Attr("next")
		if !ok {
			return fmt.Errorf("snapshot session %q without next checkpoint", id)
		}
		next, err := strconv.ParseInt(v, 10, 64)
		if err != nil || next < 0 {
			return fmt.Errorf("snapshot session %q: bad next checkpoint %q", id, v)
		}
		s.Next = next
		for _, cn := range sn.Kids {
			if cn.Name != "c" {
				continue
			}
			c, err := parseChunk(cn)
			if err != nil {
				return fmt.Errorf("snapshot session %q: %v", id, err)
			}
			s.Chunks = append(s.Chunks, c)
		}
		j.sessions[id] = s
		j.live += s.bytes
	}
	j.total = int64(frameHeader + len(payload))
	return nil
}

// replayRecord folds one log frame into the shadow state. Any decode
// failure — unparsable XML, a missing id, a mangled seq — is reported as
// ErrMalformedFrame so the WAL stops replay there and truncates the rest
// as a torn tail, instead of restoring a half-decoded (zeroed) record.
func (j *Journal) replayRecord(payload []byte) error {
	n, err := xmltree.Parse(strings.NewReader(string(payload)))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	id, _ := n.Attr("id")
	if id == "" {
		return fmt.Errorf("%w: %s record without id", ErrMalformedFrame, n.Name)
	}
	size := int64(frameHeader + len(payload))
	switch n.Name {
	case "s":
		if j.sessions[id] == nil {
			j.sessions[id] = &JSession{ID: id, bytes: size}
			j.live += size
		}
	case "c":
		c, err := parseChunk(n)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformedFrame, err)
		}
		j.applyChunkLocked(id, c, size)
	case "e":
		if s := j.sessions[id]; s != nil {
			j.live -= s.bytes
			delete(j.sessions, id)
		}
	default:
		return fmt.Errorf("%w: unknown journal record %q", ErrMalformedFrame, n.Name)
	}
	j.appends++
	j.total += size
	return nil
}

// parseChunk decodes one <c> element strictly: the seq attribute must be
// present and parse, because defaulting it would rewind the rebuilt
// checkpoint (applyChunkLocked derives next from it).
func parseChunk(n *xmltree.Node) (SessionChunk, error) {
	var c SessionChunk
	c.Key, _ = n.Attr("key")
	c.Frag, _ = n.Attr("frag")
	v, ok := n.Attr("seq")
	if !ok {
		return c, fmt.Errorf("chunk record without seq")
	}
	seq, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return c, fmt.Errorf("chunk record with bad seq %q", v)
	}
	c.Seq = seq
	if v, _ := n.Attr("del"); v == "1" {
		c.Del = true
	}
	c.Recs = n.Kids
	return c, nil
}
