// Package durable is the crash-safety subsystem of the exchange
// architecture: an append-only write-ahead log with CRC32-framed,
// length-prefixed records, one group-commit append path (batch.go),
// compaction by rewriting the log, and recovery that truncates a torn tail
// and replays the longest valid prefix. The reliability layer
// (internal/reliable) promises exactly-once resumable exchanges; this
// package makes the state backing that promise — session checkpoints and
// committed chunks — survive a SIGKILL, so a restarted endpoint resumes
// from its last committed chunk instead of forgetting the transfer.
//
// A WAL directory holds one file, wal.log: the frames appended since it
// was created or last rewritten, behind — after a rewrite — the compacted
// prefix the rewrite wrote.
//
// Frame format (all integers little-endian):
//
//	uint32 length | uint32 CRC32(payload) | payload
//
// Rewrite writes the new log into wal.log.tmp — a prefix frame recording
// where the compacted prefix ends, then the caller's frames — fsyncs it
// and renames it over wal.log, so at every instant the log is either the
// old file or the new one, never a mix. Recovery replays every frame
// whose length is plausible and whose checksum matches. Inside the
// compacted prefix, which was synced whole before the rename, a bad frame
// is corruption and fails recovery; past it, the first bad frame ends the
// replay and the file is truncated there (the torn tail a crash
// mid-append leaves behind).
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"xdx/internal/bufpool"
	"xdx/internal/obs"
)

// ErrMalformedFrame marks a log frame whose payload passed the CRC check
// but does not decode into a valid record — a mangled attribute, a missing
// identifier, an unparsable sequence number. Replay handlers wrap it to
// tell Recover "stop here and treat the rest as a torn tail": restoring a
// half-decoded record (checkpoint 0, seq 0) would silently rewind session
// state, which is strictly worse than discarding the suffix and letting
// the resume protocol re-ship.
var ErrMalformedFrame = errors.New("durable: malformed frame")

// ErrWALFormat refuses a WAL directory written in another journal format
// version. Recovery never guesses at a format it was not built for: the
// directory must be drained by the version that wrote it, or deleted.
var ErrWALFormat = errors.New("durable: unsupported WAL format")

// errCorruptPrefix fails recovery of a log whose compacted prefix does not
// read back whole: a rewrite syncs the prefix before the rename, so damage
// there is corruption, not a torn append.
var errCorruptPrefix = errors.New("durable: corrupt compacted log prefix")

// FsyncPolicy says whether the WAL forces each commit group to stable
// storage — the durability/throughput trade measured in EXPERIMENTS.md.
// Every frame goes through the group-commit batcher either way.
type FsyncPolicy int

const (
	// FsyncBatch is group commit, and the default: appenders enqueue
	// frames and park on a ticket while a leader coalesces every queued
	// frame into one write + one fsync (batch.go). A ticket resolves only
	// after its group synced, so nothing acknowledged is ever lost.
	FsyncBatch FsyncPolicy = iota
	// FsyncOff commits the same groups and skips their fsync: durability
	// is whatever the OS page cache survives. A process kill (the fault
	// the crash smoke injects) still loses nothing — the data is in the
	// kernel — but a power cut may.
	FsyncOff
)

// ParseFsync parses a -fsync flag value: batch (the default when empty)
// or off.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "batch", "":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	case "always":
		return 0, fmt.Errorf(`durable: fsync policy "always" is gone; "batch" gives the same guarantee — an append is acknowledged only after its fsync`)
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want batch or off)", s)
}

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	if p == FsyncOff {
		return "off"
	}
	return "batch"
}

// Options configures a WAL.
type Options struct {
	// Fsync is the sync policy. Default FsyncBatch.
	Fsync FsyncPolicy
	// MaxBatchFrames caps a commit group's frame count. Default 256.
	MaxBatchFrames int
	// MaxBatchHold bounds how long a leader waits for more frames before
	// committing a non-full group — the worst-case extra latency a lone
	// appender pays. Default 5ms.
	MaxBatchHold time.Duration
	// SnapshotEvery, when > 0, is consumed by layers above (the session
	// Journal) as the number of appends since the last compaction after
	// which it starts checking whether one would pay for itself; 0 never
	// compacts.
	SnapshotEvery int
	// Log receives recovery and compaction events. Nil is off.
	Log obs.Logger
	// Met receives the wal.* metric family. Nil is off.
	Met *obs.Registry
}

// RecoveryStats reports what Recover found.
type RecoveryStats struct {
	// Records is how many valid log frames were replayed.
	Records int
	// Compacted is how many of Records lay in the compacted prefix.
	Compacted int
	// TornBytes is how many trailing bytes were discarded as a torn or
	// corrupt tail.
	TornBytes int64
	// MalformedFrames is 1 when replay stopped at a CRC-valid frame whose
	// payload would not decode (ErrMalformedFrame); the frame and
	// everything after it are counted in TornBytes.
	MalformedFrames int
	// Elapsed is how long recovery took.
	Elapsed time.Duration
}

const (
	logFile      = "wal.log"
	frameHeader  = 8
	maxFrameSize = 1 << 30 // length sanity bound: longer is a torn header

	// oldSnapFile is the second file of the two-file layout this build
	// replaced; a directory holding one is refused with ErrWALFormat.
	oldSnapFile = "snapshot.xdx"

	// The prefix frame opens a rewritten log: prefixMark, then the uint64
	// offset where the compacted prefix ends. No appended payload may
	// start with prefixMark, so the frame never reads as a record.
	prefixMark     = 0xff
	prefixFrameLen = frameHeader + 1 + 8
)

// WAL is an append-only log with CRC framing and compaction by rewrite.
// It is safe for concurrent use.
type WAL struct {
	dir  string
	opts Options
	log  obs.Logger
	met  *obs.Registry

	mu sync.Mutex
	f  *os.File
	// recovered and closed gate appends. They change under mu, but the
	// append path reads them without it: an appender must not queue
	// behind a group's fsync, which runs under mu.
	recovered, closed atomic.Bool

	bat *batcher // group-commit state

	// testHookRewrite runs after each step of a rewrite — "written",
	// "synced", "renamed" — the crash points the tests freeze.
	testHookRewrite func(step string)

	mAppends, mAppendBytes, mFsyncs *obs.Counter
}

// Open opens (creating if needed) the WAL in dir. Recover must be called
// before the first Append.
func Open(dir string, o Options) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open: %w", err)
	}
	if o.MaxBatchFrames <= 0 {
		o.MaxBatchFrames = 256
	}
	if o.MaxBatchHold <= 0 {
		o.MaxBatchHold = 5 * time.Millisecond
	}
	f, err := os.OpenFile(filepath.Join(dir, logFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open: %w", err)
	}
	w := &WAL{dir: dir, opts: o, log: obs.OrNop(o.Log), met: o.Met, f: f, testHookRewrite: func(string) {},
		mAppends: o.Met.Counter("wal.appends"), mAppendBytes: o.Met.Counter("wal.append.bytes"),
		mFsyncs: o.Met.Counter("wal.fsyncs")}
	w.bat = newBatcher(w)
	return w, nil
}

// Recover replays the longest valid prefix of the log (rec, one call per
// frame with the offset of its header), truncating any torn tail so the
// file ends on a frame boundary. It must be called exactly once, before
// the first Append.
func (w *WAL) Recover(rec func(off int64, payload []byte) error) (RecoveryStats, error) {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	var st RecoveryStats
	if w.recovered.Load() {
		return st, fmt.Errorf("durable: Recover called twice")
	}
	if _, err := os.Stat(filepath.Join(w.dir, oldSnapFile)); err == nil {
		return st, fmt.Errorf("%w: %s belongs to the two-file layout", ErrWALFormat, oldSnapFile)
	}

	data, err := os.ReadFile(filepath.Join(w.dir, logFile))
	if err != nil {
		return st, fmt.Errorf("durable: recover: %w", err)
	}
	off, prefix, err := compactedPrefix(data)
	if err != nil {
		return st, err
	}
	for {
		payload, n, ok := parseFrame(data[off:])
		inPrefix := off < prefix
		if inPrefix && (!ok || off+n > prefix) {
			return st, fmt.Errorf("%w: no whole frame at offset %d", errCorruptPrefix, off)
		}
		if !ok {
			break
		}
		if rec != nil {
			if err := rec(int64(off), payload); err != nil {
				if inPrefix {
					return st, fmt.Errorf("%w: record %d: %w", errCorruptPrefix, st.Records, err)
				}
				if errors.Is(err, ErrMalformedFrame) {
					// The frame's bytes are intact (CRC matched) but the
					// payload does not decode into a record. Replaying a
					// half-decoded record would silently restore zeroed
					// state, so stop here and discard the frame and
					// everything after it as a torn tail.
					st.MalformedFrames++
					w.log.Log(obs.LevelWarn, "wal malformed frame; truncating as torn tail",
						"dir", w.dir, "record", st.Records, "err", err.Error())
					break
				}
				return st, fmt.Errorf("durable: replay record %d: %w", st.Records, err)
			}
		}
		st.Records++
		if inPrefix {
			st.Compacted++
		}
		off += n
	}
	if torn := len(data) - off; torn > 0 {
		st.TornBytes = int64(torn)
		if err := w.f.Truncate(int64(off)); err != nil {
			return st, fmt.Errorf("durable: truncate torn tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return st, fmt.Errorf("durable: recover: %w", err)
		}
		w.log.Log(obs.LevelInfo, "wal torn tail truncated", "dir", w.dir, "bytes", torn)
	}
	if _, err := w.f.Seek(int64(off), 0); err != nil {
		return st, fmt.Errorf("durable: recover: %w", err)
	}
	w.recovered.Store(true)
	st.Elapsed = time.Since(start)
	w.met.Counter("wal.recovery.records").Add(int64(st.Records))
	w.met.Counter("wal.recovery.torn_bytes").Add(st.TornBytes)
	w.met.Counter("wal.recovery.malformed").Add(int64(st.MalformedFrames))
	w.met.Histogram("wal.recovery.millis").Observe(float64(st.Elapsed) / float64(time.Millisecond))
	w.met.Gauge("wal.snapshot.bytes").Set(int64(prefix))
	return st, nil
}

// compactedPrefix reads the prefix frame a rewritten log opens with and
// returns where the frames behind it start and where the compacted prefix
// ends; a log that opens with anything else has none (0, 0).
func compactedPrefix(data []byte) (start, end int, err error) {
	if len(data) <= frameHeader || data[frameHeader] != prefixMark {
		return 0, 0, nil
	}
	var e uint64 // where the prefix ends, past at least one frame; 0 when unreadable
	if p, n, ok := parseFrame(data); ok && n == prefixFrameLen {
		e = binary.LittleEndian.Uint64(p[1:])
	}
	if e <= prefixFrameLen || e > uint64(len(data)) {
		return 0, 0, fmt.Errorf("%w: prefix frame gives end %d in a %d-byte log", errCorruptPrefix, e, len(data))
	}
	return prefixFrameLen, int(e), nil
}

// parseFrame decodes one frame from the head of data, returning the
// payload, the total frame length consumed, and whether the frame was
// valid (plausible length, full payload present, checksum match).
func parseFrame(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < frameHeader {
		return nil, 0, false
	}
	length := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if length > maxFrameSize || int(length) > len(data)-frameHeader {
		return nil, 0, false
	}
	payload = data[frameHeader : frameHeader+int(length)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, frameHeader + int(length), true
}

// frameInto encodes into hdr (frameHeader bytes) the length+CRC frame
// header of the payload head followed by body.
func frameInto(hdr, head, body []byte) {
	binary.LittleEndian.PutUint32(hdr, uint32(len(head)+len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, body))
}

// Append writes one frame and parks on its commit group: it returns once
// the group is written and, under FsyncBatch, on stable storage.
func (w *WAL) Append(payload []byte) error {
	return w.appendParts(payload, nil).Err()
}

// appendParts writes one frame whose payload is head followed by body,
// without joining them first, and does not wait for durability: the frame
// joins the pending commit group, and the returned ticket — the group's —
// resolves when the group's single write (and fsync) completes. Both parts
// are copied before appendParts returns.
func (w *WAL) appendParts(head, body []byte) *Pending {
	if !w.recovered.Load() {
		return failedPending(fmt.Errorf("durable: Append before Recover"))
	}
	if w.closed.Load() {
		return failedPending(fmt.Errorf("durable: Append on closed WAL"))
	}
	lead := head
	if len(lead) == 0 {
		lead = body
	}
	if len(lead) > 0 && lead[0] == prefixMark {
		return failedPending(fmt.Errorf("durable: a payload may not start with byte %#x", prefixMark))
	}
	return w.bat.enqueue(head, body)
}

func (w *WAL) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync: %w", err)
	}
	w.mFsyncs.Inc()
	return nil
}

// Rewrite replaces the log with a compacted one: a prefix frame, then what
// write produces — whole frames, streamed through a pooled buffered writer
// into wal.log.tmp, never materialised in memory — synced under either
// fsync policy and renamed over wal.log; appends go on behind it. A write
// that produces nothing leaves an empty log. A failure before the rename
// leaves the log as it was; once it is renamed, nothing can fail. It
// returns the new log's size.
func (w *WAL) Rewrite(write func(io.Writer) error) (int64, error) {
	// Settle the pending group first so the old log holds every frame
	// whose ticket was issued before the rewrite.
	w.bat.drain()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.recovered.Load() {
		return 0, fmt.Errorf("durable: Rewrite before Recover")
	}
	if w.closed.Load() {
		return 0, fmt.Errorf("durable: Rewrite on closed WAL")
	}
	tmp := filepath.Join(w.dir, logFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durable: rewrite: %w", err)
	}
	size, err := fillLog(f, write)
	if err == nil {
		w.testHookRewrite("written")
		err = f.Sync()
	}
	if err == nil {
		w.mFsyncs.Inc()
		w.testHookRewrite("synced")
		err = os.Rename(tmp, filepath.Join(w.dir, logFile))
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("durable: rewrite: %w", err)
	}
	w.testHookRewrite("renamed")
	if d, err := os.Open(w.dir); err == nil { // make the rename durable
		d.Sync() // some filesystems refuse a directory fsync
		d.Close()
	}
	w.f.Close()
	w.f = f
	w.met.Counter("wal.snapshots").Inc()
	w.met.Gauge("wal.snapshot.bytes").Set(size)
	w.met.Counter("wal.snapshot.bytes.total").Add(size)
	w.log.Log(obs.LevelDebug, "wal rewrite", "dir", w.dir, "bytes", size)
	return size, nil
}

// fillLog writes a placeholder prefix frame and what write produces into
// the empty file f, then patches the frame with where the prefix ends —
// or, when write produced nothing, empties f again. It returns the size.
func fillLog(f *os.File, write func(io.Writer) error) (int64, error) {
	bw := bufpool.Writer(f)
	defer bufpool.PutWriter(bw)
	var frame [prefixFrameLen]byte
	bw.Write(frame[:])
	if err := write(bw); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	if size == prefixFrameLen { // no frames: an empty log
		if err := f.Truncate(0); err != nil {
			return 0, err
		}
		_, err = f.Seek(0, io.SeekStart)
		return 0, err
	}
	p := frame[frameHeader:]
	p[0] = prefixMark
	binary.LittleEndian.PutUint64(p[1:], uint64(size))
	frameInto(frame[:], p, nil)
	_, err = f.WriteAt(frame[:], 0)
	return size, err
}

// Close drains the pending commit group, so every ticket resolves, syncs
// the log — under FsyncOff too, so a clean shutdown leaves nothing to the
// page cache — and releases the file. Further appends fail.
func (w *WAL) Close() error {
	w.bat.drain()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return nil
	}
	var err error
	if w.recovered.Load() {
		err = w.syncLocked()
	}
	w.closed.Store(true)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
