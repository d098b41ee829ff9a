// Package durable is the crash-safety subsystem of the exchange
// architecture: an append-only write-ahead log with CRC32-framed,
// length-prefixed records, one group-commit append path (batch.go),
// snapshot+compact cycles, and recovery that truncates a torn tail and
// replays the longest valid prefix. The reliability layer
// (internal/reliable) promises exactly-once resumable exchanges; this
// package makes the state backing that promise — session checkpoints and
// committed chunks — survive a SIGKILL, so a restarted endpoint resumes
// from its last committed chunk instead of forgetting the transfer.
//
// On-disk layout of a WAL directory:
//
//	wal.log       frames appended since the last snapshot
//	snapshot.xdx  one frame holding the compacted state (atomic rename);
//	              the session Journal fills it with its own frames, back
//	              to back (journal.go)
//
// Frame format (all integers little-endian):
//
//	uint32 length | uint32 CRC32(payload) | payload
//
// Recovery replays the snapshot first, then every log frame whose length
// is plausible and whose checksum matches; the first bad frame ends the
// replay and the file is truncated there (the torn tail a crash mid-append
// leaves behind). Replay handlers must therefore be idempotent against the
// snapshot/truncate race: a crash between the snapshot rename and the log
// truncation replays pre-snapshot records on top of the snapshot state.
package durable

import (
	"bufio"
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
	// MaxBatchBytes caps a commit group's coalesced frame bytes; a group
	// at the cap commits without waiting out the hold. Default 1MiB.
	MaxBatchBytes int
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
	// Log receives recovery and snapshot events. Nil is off.
	Log obs.Logger
	// Met receives the wal.* metric family. Nil is off.
	Met *obs.Registry
}

// RecoveryStats reports what Recover found.
type RecoveryStats struct {
	// SnapshotBytes is the size of the replayed snapshot payload (0 when
	// no snapshot exists).
	SnapshotBytes int64
	// Records is how many valid log frames were replayed.
	Records int
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
	snapFile     = "snapshot.xdx"
	frameHeader  = 8
	maxFrameSize = 1 << 30 // length sanity bound: longer is a torn header
)

// WAL is an append-only log with CRC framing and snapshot+compact cycles.
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

	mAppends, mAppendBytes, mFsyncs *obs.Counter
}

// Open opens (creating if needed) the WAL in dir. Recover must be called
// before the first Append.
func Open(dir string, o Options) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open: %w", err)
	}
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 1 << 20
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
	w := &WAL{dir: dir, opts: o, log: obs.OrNop(o.Log), met: o.Met, f: f,
		mAppends: o.Met.Counter("wal.appends"), mAppendBytes: o.Met.Counter("wal.append.bytes"),
		mFsyncs: o.Met.Counter("wal.fsyncs")}
	w.bat = newBatcher(w)
	return w, nil
}

// Recover replays the snapshot (snap callback, skipped when no snapshot
// exists) and then the longest valid prefix of the log (rec callback, one
// call per frame), truncating any torn tail so the file ends on a frame
// boundary. It must be called exactly once, before the first Append.
func (w *WAL) Recover(snap func(payload []byte) error, rec func(payload []byte) error) (RecoveryStats, error) {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	var st RecoveryStats
	if w.recovered.Load() {
		return st, fmt.Errorf("durable: Recover called twice")
	}

	if data, err := os.ReadFile(filepath.Join(w.dir, snapFile)); err == nil {
		payload, _, ok := parseFrame(data)
		if !ok || len(data) != frameHeader+len(payload) {
			return st, fmt.Errorf("durable: corrupt snapshot %s", filepath.Join(w.dir, snapFile))
		}
		if snap != nil {
			if err := snap(payload); err != nil {
				return st, fmt.Errorf("durable: replay snapshot: %w", err)
			}
		}
		st.SnapshotBytes = int64(len(payload))
	} else if !os.IsNotExist(err) {
		return st, fmt.Errorf("durable: recover: %w", err)
	}

	data, err := os.ReadFile(filepath.Join(w.dir, logFile))
	if err != nil {
		return st, fmt.Errorf("durable: recover: %w", err)
	}
	off := 0
	for {
		payload, n, ok := parseFrame(data[off:])
		if !ok {
			break
		}
		if rec != nil {
			if err := rec(payload); err != nil {
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
	if w.met != nil {
		w.met.Counter("wal.recovery.records").Add(int64(st.Records))
		w.met.Counter("wal.recovery.torn_bytes").Add(st.TornBytes)
		w.met.Counter("wal.recovery.malformed").Add(int64(st.MalformedFrames))
		w.met.Histogram("wal.recovery.millis").Observe(float64(st.Elapsed) / float64(time.Millisecond))
		w.met.Gauge("wal.snapshot.bytes").Set(st.SnapshotBytes)
	}
	return st, nil
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
	return w.bat.enqueue(head, body)
}

// Flush hurries the pending commit group out without waiting for it: the
// leader commits what is queued instead of holding for more. The endpoint
// calls this before parking on the tail chunk's tickets, so a quiet
// session never waits out the hold.
func (w *WAL) Flush() { w.bat.hurryUp() }

func (w *WAL) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync: %w", err)
	}
	w.mFsyncs.Inc()
	return nil
}

// Snapshot atomically replaces the snapshot with what write produces and
// compacts the log to empty. The state streams through a pooled buffered
// writer straight into the temp file — it is never materialised in memory — and
// the length+CRC frame header is patched in once the length is known.
// Ordering makes a crash at any point safe: the new snapshot is fully
// durable (temp file + fsync + rename + directory fsync) before the log is
// truncated, and a crash in between merely replays old log records over
// the new snapshot — which replay handlers must treat idempotently. A
// failure before the rename leaves the previous snapshot and the log as
// they were.
func (w *WAL) Snapshot(write func(io.Writer) error) error {
	// Settle the pending group first so the truncated log never holds
	// frames whose tickets are still unresolved.
	w.bat.drain()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.recovered.Load() {
		return fmt.Errorf("durable: Snapshot before Recover")
	}
	if w.closed.Load() {
		return fmt.Errorf("durable: Snapshot on closed WAL")
	}
	tmp := filepath.Join(w.dir, snapFile+".tmp")
	size, err := writeSnapshotFile(tmp, write)
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	syncDir(w.dir)
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if w.met != nil {
		w.met.Counter("wal.snapshots").Inc()
		w.met.Gauge("wal.snapshot.bytes").Set(size)
		w.met.Counter("wal.snapshot.bytes.total").Add(size)
	}
	w.log.Log(obs.LevelDebug, "wal snapshot", "dir", w.dir, "bytes", size)
	return nil
}

// frameWriter accumulates the length and CRC of a frame payload streamed
// through it.
type frameWriter struct {
	w   *bufio.Writer
	n   int64
	crc uint32
}

func (fw *frameWriter) Write(p []byte) (int, error) {
	fw.n += int64(len(p))
	fw.crc = crc32.Update(fw.crc, crc32.IEEETable, p)
	return fw.w.Write(p)
}

// writeSnapshotFile writes one durable frame to path — header placeholder,
// the payload write streams, header patched in place, fsync — and returns
// the payload length.
func writeSnapshotFile(path string, write func(io.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	var hdr [frameHeader]byte
	fw := &frameWriter{w: bufpool.Writer(f)}
	defer bufpool.PutWriter(fw.w)
	_, err = fw.w.Write(hdr[:])
	if err == nil {
		err = write(fw)
	}
	if err == nil {
		err = fw.w.Flush()
	}
	if err == nil && fw.n > maxFrameSize {
		err = fmt.Errorf("state of %d bytes exceeds the %d-byte frame limit", fw.n, maxFrameSize)
	}
	if err == nil {
		binary.LittleEndian.PutUint32(hdr[:], uint32(fw.n))
		binary.LittleEndian.PutUint32(hdr[4:], fw.crc)
		_, err = f.WriteAt(hdr[:], 0)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return fw.n, err
}

// syncDir fsyncs a directory so a rename inside it is durable. Errors are
// ignored: some filesystems refuse directory fsync, and the rename itself
// already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
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
