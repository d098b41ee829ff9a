package durable

// Journal is the session-level client of the WAL: it logs the endpoint's
// resumable-session lifecycle — mint, chunk commit, tombstone commit, end —
// one frame per event, keeps a shadow of the live state, and compacts the
// log once the bytes of ended sessions outweigh the live ones
// (maybeCompactLocked). A chunk frame carries the chunk's wire
// payload as it arrived — a bin chunk's staged text byte for byte,
// the xml codec's body for a tagged-XML chunk, the <tombstones> body for a
// deletion chunk — behind a small binary header, so the WAL writes what
// the wire carried, once, in the format the wire decoder already reads.
// The journal never decodes a payload: Sessions hands the payloads of the
// live sessions back, each seq once, and the endpoint replays them through
// the wire decoder exactly as on receipt.
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
// The shadow keeps no payload: per live chunk only where its frame lies in
// the log (offset, length). A compaction rewrites the log (WAL.Rewrite) as
// each live session's mint frame, then its chunk frames copied byte for
// byte from the old log.
//
// Decoding is strict: a log frame whose CRC holds but whose header is
// truncated, names no session, or has an unknown kind is reported to the
// WAL as ErrMalformedFrame, which stops replay there and truncates the
// rest as a torn tail — a half-decoded chunk must never silently restore a
// zeroed checkpoint. Inside a compacted prefix the same frame is a hard
// recovery error (the prefix is synced whole before it replaces the log;
// damage there is real corruption, not a torn append). A frame of another
// format version — the XML frames of version 1 among them — or a
// directory holding the snapshot file of the two-file layout that came
// before refuses the directory with ErrWALFormat,
// and so does a chunk frame whose payload format this build cannot decode
// (a codec another build spoke): hydration would otherwise fail on the
// first resumed delivery instead of at open.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
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

// frameLoc is where one frame lies in the log: at off (its WAL frame
// header), n bytes long including that header.
type frameLoc struct {
	off, n int64
}

// shadowSession is the journal's memory of one live session.
type shadowSession struct {
	next   int64
	chunks []frameLoc
	// bytes is what the session occupies in the log: its mint and
	// applied chunk frames.
	bytes int64
}

// Journal persists session state through a WAL.
type Journal struct {
	wal *WAL

	mu       sync.Mutex
	sessions map[string]*shadowSession
	head     []byte // frame header scratch, under mu
	appends  int    // since last compaction
	every    int
	// total is the log's size, where the next frame lands; live is the
	// part of it the live sessions own (the sum of their bytes). The rest
	// — frames of ended sessions, end frames, duplicates, the prefix
	// frame — is garbage a compaction would reclaim.
	total, live int64

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
	st, err := w.Recover(j.replayRecord)
	if err != nil {
		w.Close()
		if errors.Is(err, ErrWALFormat) {
			return nil, fmt.Errorf("%w: %s holds a journal this build (format version %d) cannot read; drain it with the build that wrote it, or delete it", ErrWALFormat, dir, walFormat)
		}
		return nil, err
	}
	j.stats, j.appends = st, st.Records-st.Compacted
	j.publishBytesLocked()
	return j, nil
}

// RecoveryStats reports what recovery found when the journal was opened.
func (j *Journal) RecoveryStats() RecoveryStats { return j.stats }

// Sessions returns the live sessions, sorted by ID, with every committed
// chunk's payload read back from the log.
func (j *Journal) Sessions() ([]*JSession, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.wal.bat.drain() // every queued frame is in the log file
	out := make([]*JSession, 0, len(j.sessions))
	for _, id := range j.sortedIDsLocked() {
		s := j.sessions[id]
		js := &JSession{ID: id, Next: s.next, Chunks: make([]SessionChunk, len(s.chunks))}
		for k, loc := range s.chunks {
			frame, err := readFrame(j.wal.f, nil, loc)
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

// Flush hurries the WAL's pending commit group out: call it before
// parking on tickets so a quiet session never waits out the batch hold.
func (j *Journal) Flush() { j.wal.bat.hurryUp() }

// Mint journals a new session. Re-minting a known session is a no-op.
// The mint frame is not waited on: it is ordered ahead of the session's
// chunk frames in the same WAL, so any durable chunk implies a durable
// mint — and a lost mint alone is harmless, since chunk replay creates
// unknown sessions.
func (j *Journal) Mint(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sessions[id] != nil {
		return nil
	}
	j.head = appendFrameHead(j.head[:0], kindMint, id)
	_, loc := j.appendLocked(j.head, nil)
	j.sessions[id] = &shadowSession{bytes: loc.n}
	j.live += loc.n
	j.maybeCompactLocked()
	return nil
}

// Commit journals one chunk a shipment decoder committed, as its payload:
// the staged bytes of a raw chunk as they are, the wire body of a
// tagged-XML chunk's records or a tombstone chunk's IDs. It must be
// called before the chunk's checkpoint may advance; the returned ticket
// resolves when the frame's commit group is written (and synced), and the
// caller must not advance the checkpoint — or acknowledge anything
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
// compaction to reclaim. The end frames are not waited on: a lost end
// merely leaves a session to be swept again, and the shadow deletion
// reaches the next compaction regardless.
func (j *Journal) End(ids ...string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, id := range ids {
		s := j.sessions[id]
		if s == nil {
			continue
		}
		j.head = appendFrameHead(j.head[:0], kindEnd, id)
		j.appendLocked(j.head, nil)
		delete(j.sessions, id)
		j.live -= s.bytes
	}
	j.maybeCompactLocked()
	return nil
}

// Compact rewrites the log to hold the live sessions only.
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
	loc := frameLoc{off: j.total, n: int64(frameHeader + len(head) + len(body))}
	j.appends++
	j.total += loc.n
	return j.wal.appendParts(head, body), loc
}

// maybeCompactLocked is the compaction rule. Once SnapshotEvery frames
// have been appended since the last compaction, it compacts as soon as
// the garbage is at least as large as the live state, so every byte a
// compaction writes is paid for by a byte it reclaims: rewrite traffic
// never exceeds append traffic, a lone live session is never copied, and
// the log — what recovery reads — stays under twice the live bytes, except
// within SnapshotEvery frames of a compaction, when it is at most that
// compaction's rewrite plus those frames. Compaction is housekeeping: a failure is
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

// compactLocked streams the live sessions into WAL.Rewrite — per session
// a fresh mint frame, then its chunk frames copied from the log, each
// checked against its CRC on the way — and on success points the shadow
// at the frames' new places and resets the byte tallies to what the new
// log holds. One frame's bytes are in memory at a time.
func (j *Journal) compactLocked() error {
	ids := j.sortedIDsLocked()
	moved := make([][]frameLoc, len(ids))
	sizes := make([]int64, len(ids))
	size, err := j.wal.Rewrite(func(w io.Writer) error {
		var frame []byte
		n := int64(prefixFrameLen) // where the next frame lands
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
				if frame, err = readFrame(j.wal.f, frame, loc); err != nil {
					return err
				}
				if _, err := w.Write(frame); err != nil {
					return err
				}
				locs[k] = frameLoc{off: n, n: loc.n}
				n += loc.n
			}
			moved[i], sizes[i] = locs, n-start
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.appends, j.total, j.live = 0, size, 0
	for i, id := range ids {
		s := j.sessions[id]
		s.chunks, s.bytes = moved[i], sizes[i]
		j.live += sizes[i]
	}
	j.publishBytesLocked()
	return nil
}

// readFrame reads the frame at loc in the log f into dst's array (growing
// it as needed) and checks it: a frame whose bytes no longer match their
// CRC is never handed back or copied forward.
func readFrame(f *os.File, dst []byte, loc frameLoc) ([]byte, error) {
	frame := slices.Grow(dst[:0], int(loc.n))[:loc.n]
	if _, err := f.ReadAt(frame, loc.off); err != nil {
		return nil, fmt.Errorf("read frame at %d of %s: %w", loc.off, f.Name(), err)
	}
	if _, n, ok := parseFrame(frame); !ok || int64(n) != loc.n {
		return nil, fmt.Errorf("frame at %d of %s fails its checksum", loc.off, f.Name())
	}
	return frame, nil
}

// applyChunkLocked folds one chunk commit, whose frame lies at loc, into
// the shadow state, with the ledger's checkpoint rule (seq >= next
// advances next to seq+1; seqless chunks leave it alone). Duplicates — a
// chunk re-shipped after its ticket failed — are skipped by the same rule,
// and their bytes stay garbage.
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

// replayRecord folds the log frame at off into the shadow state. Any
// decode failure is reported as ErrMalformedFrame (or ErrWALFormat), so
// the WAL stops replay there instead of restoring a half-decoded record.
func (j *Journal) replayRecord(off int64, payload []byte) error {
	r, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	loc := frameLoc{off: off, n: int64(frameHeader + len(payload))}
	j.applyLocked(r, loc)
	j.total = off + loc.n
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
	if !knownPayload(r.kind, r.Format) {
		return r, fmt.Errorf("%w: chunk payload format %q", ErrWALFormat, r.Format)
	}
	return r, nil
}

// knownPayload reports whether this build decodes a frame's payload: what
// a shipment decoder commits — a tagged-XML or bin chunk, a tombstone
// chunk — and nothing for mint and end frames.
func knownPayload(kind byte, format string) bool {
	switch kind {
	case kindChunk:
		return format == wire.CodecXML || format == wire.CodecBin
	case kindTomb:
		return format == wire.FormatTombstones
	}
	return true
}
