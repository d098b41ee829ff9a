package durable

// Journal is the session-level client of the WAL: it logs the endpoint's
// resumable-session lifecycle — mint, chunk commit, tombstone commit, end —
// one frame per event, keeps a shadow of the live state, and compacts the
// log into a snapshot once the bytes of ended sessions outweigh the live
// ones (maybeCompactLocked). A chunk frame carries the chunk's wire
// payload as it arrived — a bin or feed chunk's staged text byte for byte,
// the xml codec's body for a tagged-XML chunk, the <tombstones> body for a
// deletion chunk — behind a small binary header, so the WAL writes what
// the wire carried, once, in the format the wire decoder already reads.
// The journal never decodes a payload: Sessions hands the payloads of the
// live sessions back, and the endpoint replays them through the wire
// decoder, whose ledger dedup runs on replay exactly as on receipt.
//
// Frame payload layout (inside the WAL's length+CRC framing):
//
//	byte     format version (walFormat)
//	byte     kind: 's' mint, 'c' chunk, 't' tombstone chunk, 'e' end
//	string   session id
//	chunk and tombstone frames continue with:
//	string   edge key
//	string   fragment name (empty for tombstones)
//	varint   seq (zigzag; -1 is unsequenced)
//	string   payload format (codec name or "tombstones"), then bin enc
//	bytes    the chunk's payload, to the end of the frame
//
// where a string is a uvarint length and that many bytes.
//
// The shadow keeps no payload: per live chunk only where its frame lies
// (snapshot or log, offset, length). A compaction writes the snapshot as
// the same frames back to back behind one format-version byte — each live
// session's mint frame, then its chunk frames copied byte for byte from
// the log or the old snapshot.
//
// All ops are idempotent under replay — re-minting is a no-op, a chunk
// with a seq below the rebuilt checkpoint is skipped, ending an unknown
// session is fine — which is what makes the snapshot/truncate crash window
// of WAL.Snapshot safe.
//
// Decoding is strict: a log frame whose CRC holds but whose header is
// truncated, names no session, or has an unknown kind is reported to the
// WAL as ErrMalformedFrame, which stops replay there and truncates the
// rest as a torn tail — a half-decoded chunk must never silently restore a
// zeroed checkpoint. A malformed snapshot is a hard recovery error
// (snapshots are written atomically; damage there is real corruption, not
// a torn append). A frame or snapshot of another format version — the XML
// frames of version 1 among them — refuses the directory with ErrWALFormat.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"xdx/internal/bufpool"
	"xdx/internal/obs"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// walFormat is the journal format version this build reads and writes.
// Version 1 journaled each frame as an XML element (first byte '<').
const walFormat = 2

// Frame kinds.
const (
	kindMint  = 's'
	kindChunk = 'c'
	kindTomb  = 't'
	kindEnd   = 'e'
)

// SessionChunk is one committed chunk as the journal hands it back: the
// cross-edge key, the fragment name to resolve against the resumed
// program, the chunk sequence, and the payload as it was journaled.
type SessionChunk struct {
	Key  string
	Frag string
	Seq  int64
	wire.Payload
}

// JSession is the durable state of one session.
type JSession struct {
	// ID names the session on the wire.
	ID string
	// Next is the rebuilt chunk checkpoint (lowest seq not yet committed).
	Next int64
	// Chunks are the committed chunks in commit order.
	Chunks []SessionChunk
}

// frameLoc is where one frame lies: in the snapshot file or the log, at
// off (its WAL frame header), n bytes long including that header.
type frameLoc struct {
	snap bool
	off  int64
	n    int64
}

// shadowSession is the journal's memory of one live session.
type shadowSession struct {
	next   int64
	chunks []frameLoc
	// bytes is what the session occupies on disk: its frames in the
	// snapshot plus its mint and applied chunk frames in the log.
	bytes int64
}

// Journal persists session state through a WAL.
type Journal struct {
	wal *WAL

	mu       sync.Mutex
	sessions map[string]*shadowSession
	head     []byte // frame header scratch, under mu
	appends  int    // since last snapshot
	every    int
	// total is the snapshot file plus every log frame; live is the part
	// of it the live sessions own (the sum of their bytes). The rest —
	// frames of ended sessions, end frames, replayed duplicates — is
	// garbage a compaction would reclaim.
	total, live int64
	logEnd      int64 // where the next frame lands in the log

	mLive, mGarbage        *obs.Gauge
	mSkipped, mCompactErrs *obs.Counter

	stats RecoveryStats
}

// OpenJournal opens the WAL in dir and recovers the journaled sessions. A
// directory written in another journal format fails with ErrWALFormat.
func OpenJournal(dir string, o Options) (*Journal, error) {
	w, err := Open(dir, o)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		wal: w, sessions: map[string]*shadowSession{}, every: o.SnapshotEvery,
		mLive: o.Met.Gauge("wal.live.bytes"), mGarbage: o.Met.Gauge("wal.garbage.bytes"),
		mSkipped: o.Met.Counter("wal.compactions.skipped"), mCompactErrs: o.Met.Counter("wal.compact.errors"),
	}
	st, err := w.Recover(j.replaySnapshot, j.replayRecord)
	if err != nil {
		w.Close()
		if errors.Is(err, ErrWALFormat) {
			return nil, fmt.Errorf("%w: %s holds a journal this build (format version %d) cannot read; drain it with the build that wrote it, or delete it", ErrWALFormat, dir, walFormat)
		}
		return nil, err
	}
	j.stats = st
	j.publishBytesLocked()
	return j, nil
}

// RecoveryStats reports what recovery found when the journal was opened.
func (j *Journal) RecoveryStats() RecoveryStats { return j.stats }

// Sessions returns the live sessions, sorted by ID, with every committed
// chunk's payload read back from the log and snapshot.
func (j *Journal) Sessions() ([]*JSession, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal.bat != nil {
		j.wal.bat.drain() // every queued frame is in the log file
	}
	fr := frameReader{dir: j.wal.dir, log: j.wal.f}
	defer fr.close()
	out := make([]*JSession, 0, len(j.sessions))
	for _, id := range j.sortedIDsLocked() {
		s := j.sessions[id]
		js := &JSession{ID: id, Next: s.next, Chunks: make([]SessionChunk, len(s.chunks))}
		for k, loc := range s.chunks {
			frame, err := fr.read(nil, loc)
			if err != nil {
				return nil, fmt.Errorf("durable: sessions: %w", err)
			}
			r, err := decodeRecord(frame[frameHeader:])
			if err != nil {
				return nil, fmt.Errorf("durable: sessions: %w", err)
			}
			js.Chunks[k] = r.SessionChunk
		}
		out = append(out, js)
	}
	return out, nil
}

func (j *Journal) sortedIDsLocked() []string {
	ids := make([]string, 0, len(j.sessions))
	for id := range j.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len reports the live journaled session count.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.sessions)
}

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
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sessions[id] != nil {
		return nil
	}
	j.head = appendFrameHead(j.head[:0], kindMint, id)
	p, loc := j.appendLocked(j.head, nil)
	if j.wal.bat == nil {
		if err := p.Err(); err != nil {
			return err
		}
	}
	j.sessions[id] = &shadowSession{bytes: loc.n}
	j.live += loc.n
	j.maybeCompactLocked()
	return nil
}

// Commit journals one chunk a shipment decoder committed, as its payload:
// the staged bytes of a raw chunk as they are, the wire body of a
// tagged-XML chunk's records or a tombstone chunk's IDs. It must be
// called before the chunk's checkpoint may advance; the returned ticket
// resolves when the frame is durable (already, under non-batch policies),
// and the caller must not advance the checkpoint — or acknowledge anything
// downstream of it — before it resolves successfully. That deferred ack is
// what lets the decoder parse the next chunk while this one's fsync is in
// flight. The payload is copied before Commit returns.
func (j *Journal) Commit(id string, c *wire.Chunk) *Pending {
	frag := ""
	if c.Frag != nil {
		frag = c.Frag.Name
	}
	return j.commit(id, c.Key, frag, c.Seq, c.Payload, c.Recs, c.IDs)
}

// ChunkAsync journals one committed chunk of tagged-XML records — the
// xml codec's entry point into Commit.
func (j *Journal) ChunkAsync(id, key, frag string, seq int64, recs []*xmltree.Node) (*Pending, error) {
	return j.commit(id, key, frag, seq, wire.Payload{Format: wire.CodecXML}, recs, nil), nil
}

// TombAsync journals one committed tombstone chunk (the deletions of a
// delta exchange) — the tombstone entry point into Commit.
func (j *Journal) TombAsync(id, key string, seq int64, ids []string) (*Pending, error) {
	return j.commit(id, key, "", seq, wire.Payload{Format: wire.FormatTombstones}, nil, ids), nil
}

// commit appends one chunk frame. A tagged-XML or tombstone body is
// rendered before the lock, so concurrent sessions serialize only on the
// append.
func (j *Journal) commit(id, key, frag string, seq int64, p wire.Payload, recs []*xmltree.Node, ids []string) *Pending {
	kind, body := byte(kindChunk), p.Bytes
	if p.Format == wire.CodecXML || p.Format == wire.FormatTombstones {
		buf := bufpool.Buffer()
		defer bufpool.PutBuffer(buf)
		bw := bufpool.Writer(buf)
		if p.Format == wire.CodecXML {
			wire.WriteRecords(bw, recs)
		} else {
			kind = kindTomb
			wire.WriteTombstoneIDs(bw, ids)
		}
		bw.Flush() // into a bytes.Buffer: cannot fail
		bufpool.PutWriter(bw)
		body = buf.Bytes()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.head = appendChunkHead(j.head[:0], kind, id, key, frag, seq, p.Format, p.Enc)
	ticket, loc := j.appendLocked(j.head, body)
	j.applyChunkLocked(id, seq, loc)
	j.maybeCompactLocked()
	return ticket
}

// End journals the release of sessions (EndSession, sweeps) and drops them
// from the shadow state, turning their bytes into garbage for the next
// compaction to reclaim. Under group commit the end frames are not waited
// on: a lost end merely leaves a session to be swept again, and the shadow
// deletion reaches the next snapshot regardless.
func (j *Journal) End(ids ...string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var firstErr error
	for _, id := range ids {
		s := j.sessions[id]
		if s == nil {
			continue
		}
		j.head = appendFrameHead(j.head[:0], kindEnd, id)
		p, _ := j.appendLocked(j.head, nil)
		if j.wal.bat == nil {
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

// appendLocked hands one frame to the WAL, which copies it, and returns
// the durability ticket with the frame's place in the log.
func (j *Journal) appendLocked(head, body []byte) (*Pending, frameLoc) {
	loc := frameLoc{off: j.logEnd, n: int64(frameHeader + len(head) + len(body))}
	j.logEnd += loc.n
	j.appends++
	j.total += loc.n
	return j.wal.appendParts(head, body), loc
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

// compactLocked streams the live sessions into WAL.Snapshot — per session
// a fresh mint frame, then its chunk frames copied from where they lie,
// each checked against its CRC on the way — and on success points the
// shadow at the frames' new places and resets the byte tallies to what
// the snapshot holds. One frame's bytes are in memory at a time.
func (j *Journal) compactLocked() error {
	ids := j.sortedIDsLocked()
	moved := make([][]frameLoc, len(ids))
	sizes := make([]int64, len(ids))
	var n int64 // snapshot payload bytes written, to place each frame
	err := j.wal.Snapshot(func(w io.Writer) error {
		fr := frameReader{dir: j.wal.dir, log: j.wal.f}
		defer fr.close()
		var frame []byte
		if _, err := w.Write([]byte{walFormat}); err != nil {
			return err
		}
		n = 1
		for i, id := range ids {
			s := j.sessions[id]
			start := n
			j.head = appendFrameHead(j.head[:0], kindMint, id)
			frame = append(append(frame[:0], make([]byte, frameHeader)...), j.head...)
			frameInto(frame, j.head, nil)
			if _, err := w.Write(frame); err != nil {
				return err
			}
			n += int64(len(frame))
			locs := make([]frameLoc, len(s.chunks))
			for k, loc := range s.chunks {
				var err error
				if frame, err = fr.read(frame, loc); err != nil {
					return err
				}
				locs[k] = frameLoc{snap: true, off: frameHeader + n, n: loc.n}
				if _, err := w.Write(frame); err != nil {
					return err
				}
				n += loc.n
			}
			moved[i], sizes[i] = locs, n-start
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.appends, j.total, j.live, j.logEnd = 0, frameHeader+n, 0, 0
	for i, id := range ids {
		s := j.sessions[id]
		s.chunks, s.bytes = moved[i], sizes[i]
		j.live += sizes[i]
	}
	j.publishBytesLocked()
	return nil
}

// frameReader reads journaled frames back from the log or the snapshot,
// opening the snapshot on first use.
type frameReader struct {
	dir  string
	log  *os.File
	snap *os.File
}

// read reads the frame at loc into dst's array (growing it as needed) and
// checks it: a frame whose bytes no longer match their CRC is never
// handed back or copied forward.
func (fr *frameReader) read(dst []byte, loc frameLoc) ([]byte, error) {
	f := fr.log
	if loc.snap {
		if fr.snap == nil {
			s, err := os.Open(filepath.Join(fr.dir, snapFile))
			if err != nil {
				return nil, err
			}
			fr.snap = s
		}
		f = fr.snap
	}
	frame := slices.Grow(dst[:0], int(loc.n))[:loc.n]
	if _, err := f.ReadAt(frame, loc.off); err != nil {
		return nil, fmt.Errorf("read frame at %d of %s: %w", loc.off, f.Name(), err)
	}
	if _, n, ok := parseFrame(frame); !ok || int64(n) != loc.n {
		return nil, fmt.Errorf("frame at %d of %s fails its checksum", loc.off, f.Name())
	}
	return frame, nil
}

func (fr *frameReader) close() {
	if fr.snap != nil {
		fr.snap.Close()
	}
}

// applyChunkLocked folds one chunk commit, whose frame lies at loc, into
// the shadow state, with the ledger's checkpoint rule (seq >= next
// advances next to seq+1; seqless chunks leave it alone). Replayed
// duplicates — a stale log record applied over a newer snapshot, a chunk
// re-shipped after its ticket failed — are skipped by the same rule, and
// their bytes stay garbage.
func (j *Journal) applyChunkLocked(id string, seq int64, loc frameLoc) {
	s := j.sessions[id]
	if s == nil {
		s = &shadowSession{}
		j.sessions[id] = s
	}
	if seq >= 0 && seq < s.next {
		return
	}
	s.chunks = append(s.chunks, loc)
	if seq >= s.next {
		s.next = seq + 1
	}
	s.bytes += loc.n
	j.live += loc.n
}

// applyLocked folds one decoded frame, lying at loc, into the shadow.
func (j *Journal) applyLocked(r record, loc frameLoc) {
	switch r.kind {
	case kindMint:
		if j.sessions[r.id] == nil {
			j.sessions[r.id] = &shadowSession{bytes: loc.n}
			j.live += loc.n
		}
	case kindChunk, kindTomb:
		j.applyChunkLocked(r.id, r.Seq, loc)
	case kindEnd:
		if s := j.sessions[r.id]; s != nil {
			j.live -= s.bytes
			delete(j.sessions, r.id)
		}
	}
}

// replaySnapshot rebuilds the shadow state from a compacted snapshot: the
// format-version byte, then frames back to back.
func (j *Journal) replaySnapshot(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("snapshot without a format version")
	}
	if payload[0] != walFormat {
		return fmt.Errorf("%w: snapshot format version %d", ErrWALFormat, payload[0])
	}
	for off := 1; off < len(payload); {
		p, n, ok := parseFrame(payload[off:])
		if !ok {
			return fmt.Errorf("corrupt frame at snapshot offset %d", off)
		}
		r, err := decodeRecord(p)
		if err != nil {
			return err
		}
		j.applyLocked(r, frameLoc{snap: true, off: int64(frameHeader + off), n: int64(n)})
		off += n
	}
	j.total = int64(frameHeader + len(payload))
	return nil
}

// replayRecord folds one log frame into the shadow state. Any decode
// failure is reported as ErrMalformedFrame (or ErrWALFormat), so the WAL
// stops replay there instead of restoring a half-decoded record.
func (j *Journal) replayRecord(payload []byte) error {
	r, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	loc := frameLoc{off: j.logEnd, n: int64(frameHeader + len(payload))}
	j.logEnd += loc.n
	j.applyLocked(r, loc)
	j.appends++
	j.total += loc.n
	return nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendFrameHead appends the header every frame starts with — all of a
// mint or end frame.
func appendFrameHead(b []byte, kind byte, id string) []byte {
	return appendString(append(b, walFormat, kind), id)
}

// appendChunkHead appends a chunk or tombstone frame's header; the payload
// follows it.
func appendChunkHead(b []byte, kind byte, id, key, frag string, seq int64, format, enc string) []byte {
	b = appendString(appendString(appendFrameHead(b, kind, id), key), frag)
	return appendString(appendString(binary.AppendVarint(b, seq), format), enc)
}

// record is one decoded frame.
type record struct {
	kind byte
	id   string
	SessionChunk
}

// headReader decodes header fields, remembering the first failure.
type headReader struct {
	b   []byte
	bad bool
}

func (h *headReader) str() string {
	n, k := binary.Uvarint(h.b)
	if k <= 0 || n > uint64(len(h.b)-k) {
		h.bad = true
		return ""
	}
	s := string(h.b[k : k+int(n)])
	h.b = h.b[k+int(n):]
	return s
}

func (h *headReader) varint() int64 {
	v, k := binary.Varint(h.b)
	if k <= 0 {
		h.bad = true
		return 0
	}
	h.b = h.b[k:]
	return v
}

// decodeRecord decodes one frame payload strictly (see the file comment).
func decodeRecord(p []byte) (record, error) {
	var r record
	if len(p) < 2 {
		return r, fmt.Errorf("%w: %d-byte frame", ErrMalformedFrame, len(p))
	}
	if p[0] != walFormat {
		return r, fmt.Errorf("%w: frame format version %d", ErrWALFormat, p[0])
	}
	r.kind = p[1]
	h := headReader{b: p[2:]}
	r.id = h.str()
	switch r.kind {
	case kindMint, kindEnd:
	case kindChunk, kindTomb:
		r.Key, r.Frag, r.Seq = h.str(), h.str(), h.varint()
		r.Format, r.Enc, r.Bytes = h.str(), h.str(), h.b
	default:
		return r, fmt.Errorf("%w: unknown record kind %q", ErrMalformedFrame, r.kind)
	}
	if h.bad {
		return r, fmt.Errorf("%w: truncated %q record header", ErrMalformedFrame, r.kind)
	}
	if r.id == "" {
		return r, fmt.Errorf("%w: %q record without session id", ErrMalformedFrame, r.kind)
	}
	return r, nil
}
