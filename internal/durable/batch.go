package durable

// Group commit, the WAL's one append path: concurrent appenders enqueue
// framed records and park on a ticket; a leader goroutine coalesces
// everything queued into one write + one fsync and resolves the whole group
// at once — every frame of a group shares the group's one ticket. The cost
// of a sync is amortized over every frame that arrived while the previous
// one was in flight — the classic group-commit self-clocking loop —
// without giving up ack-after-sync: under FsyncBatch a ticket resolves
// successfully only after its frames are on stable storage. FsyncOff
// commits the same groups and skips the fsync.
//
// Batch cut rules, in order:
//
//   - the group reaches maxBatchBytes or MaxBatchFrames (an appender kicks
//     the leader immediately);
//   - Flush is called, or someone waits on the group's ticket (Err): the
//     hold only exists to gather frames while nobody is waiting;
//   - MaxBatchHold elapses — the bound on how long a lone appender waits
//     for company (wal.batch.stalls counts these expiries);
//   - a previous group's sync completes while frames are queued: the next
//     group commits immediately, no hold — the sync itself was the hold.

import (
	"fmt"
	"sync"
	"time"
)

// maxBatchBytes caps a commit group's coalesced frame bytes: a group at
// the cap commits without waiting out the hold.
const maxBatchBytes = 1 << 20

// Pending is the ticket of an asynchronous append. It resolves — Done()
// closes, Err() returns — when the frame's commit group has been written
// and fsynced (or failed). Every frame of a group holds the group's one
// ticket.
type Pending struct {
	done chan struct{}
	err  error
	b    *batcher // to hurry the group along when someone waits on it
}

// Done returns a channel closed when the append's group has committed.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Err blocks until the group commits and returns its outcome: nil means
// the frame is on stable storage. Waiting cuts the group's hold short.
func (p *Pending) Err() error {
	select {
	case <-p.done:
	default:
		if p.b != nil {
			p.b.hurryUp()
		}
		<-p.done
	}
	return p.err
}

var closedPending = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// failedPending is the ticket of an append refused before it queued.
func failedPending(err error) *Pending {
	return &Pending{done: closedPending, err: err}
}

// batcher owns the pending commit group. It has its own mutex —
// never held while writing or syncing — so appenders keep queueing frames
// for the next group while the leader holds w.mu for the current one.
type batcher struct {
	w *WAL

	mu     sync.Mutex
	cond   *sync.Cond // flush completions, for drain
	buf    []byte     // framed bytes of the pending group, append order
	ticket *Pending   // the pending group's ticket; nil when none is pending
	frames int        // frames in the pending group
	leader bool       // a leader goroutine is running
	hurry  bool       // Flush requested: cut the hold short
	kick   chan struct{}
	// free recycles group buffers. At most two are in use at once — the
	// group being synced and the one filling behind it — so keeping both
	// lets a steady stream of groups stop allocating once they have grown.
	free [][]byte

	// testHookPreSync, when set, runs after the group's write and before
	// its sync — the crash window the durability tests freeze.
	testHookPreSync func()
}

func newBatcher(w *WAL) *batcher {
	b := &batcher{w: w, kick: make(chan struct{}, 1), free: make([][]byte, 0, 2)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// enqueue frames head+body into the pending group and returns the group's
// ticket, spawning a leader for the group if none is running. Called with
// neither lock held.
func (b *batcher) enqueue(head, body []byte) *Pending {
	var hdr [frameHeader]byte
	frameInto(hdr[:], head, body)
	b.mu.Lock()
	if n := len(b.free); b.buf == nil && n > 0 {
		b.buf, b.free = b.free[n-1][:0], b.free[:n-1]
	}
	b.buf = append(b.buf, hdr[:]...)
	b.buf = append(b.buf, head...)
	b.buf = append(b.buf, body...)
	if b.ticket == nil {
		b.ticket = &Pending{done: make(chan struct{}), b: b}
	}
	p := b.ticket
	b.frames++
	full := len(b.buf) >= maxBatchBytes || b.frames >= b.w.opts.MaxBatchFrames
	spawn := !b.leader
	if spawn {
		b.leader = true
	}
	b.mu.Unlock()
	b.w.mAppends.Inc()
	b.w.mAppendBytes.Add(int64(frameHeader + len(head) + len(body)))
	if spawn {
		go b.lead()
	} else if full {
		b.kickLeader()
	}
	return p
}

// kickLeader wakes a leader parked on its hold timer. The channel holds
// one token, so a kick before the leader parks is not lost.
func (b *batcher) kickLeader() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// hurryUp asks the leader to commit the pending group now instead of
// waiting out the hold. No-op when nothing is pending.
func (b *batcher) hurryUp() {
	b.mu.Lock()
	pending := b.frames > 0
	if pending {
		b.hurry = true
	}
	b.mu.Unlock()
	if pending {
		b.kickLeader()
	}
}

// lead runs one leader: commit groups until the queue is empty. The first
// group of a run waits out the hold window (unless already full); groups
// that accumulate while a sync is in flight commit immediately after it.
func (b *batcher) lead() {
	holdNext := true
	for {
		if holdNext {
			b.mu.Lock()
			ready := len(b.buf) >= maxBatchBytes ||
				b.frames >= b.w.opts.MaxBatchFrames || b.hurry
			b.mu.Unlock()
			if !ready {
				t := time.NewTimer(b.w.opts.MaxBatchHold)
				select {
				case <-b.kick:
					t.Stop()
				case <-t.C:
					if b.w.met != nil {
						b.w.met.Counter("wal.batch.stalls").Inc()
					}
				}
			}
		}
		b.mu.Lock()
		buf, p, frames := b.buf, b.ticket, b.frames
		b.buf, b.ticket, b.frames = nil, nil, 0
		b.hurry = false
		// Taking the group satisfies any queued kick; dropping the token
		// keeps a stale one from cutting a future group's hold short.
		select {
		case <-b.kick:
		default:
		}
		b.mu.Unlock()

		p.err = b.commit(buf, frames)
		close(p.done)

		b.mu.Lock()
		if len(b.free) < cap(b.free) {
			b.free = append(b.free, buf)
		}
		more := b.frames > 0
		if !more {
			b.leader = false
		}
		b.cond.Broadcast()
		b.mu.Unlock()
		if !more {
			return
		}
		// The sync just paid was this group's hold: commit it now.
		holdNext = false
	}
}

// commit writes one coalesced group and, under FsyncBatch, syncs it —
// under the WAL mutex, so group writes serialize with Rewrite's file swap.
func (b *batcher) commit(buf []byte, frames int) error {
	w := b.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return fmt.Errorf("durable: Append on closed WAL")
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if b.testHookPreSync != nil {
		b.testHookPreSync()
	}
	if w.opts.Fsync == FsyncBatch {
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	if w.met != nil {
		w.met.Histogram("wal.batch.size").Observe(float64(len(buf)))
		w.met.Histogram("wal.batch.frames").Observe(float64(frames))
	}
	return nil
}

// drain hurries the pending group out and blocks until the batcher is
// idle: every ticket issued before the call has resolved. Rewrite, Close
// and Journal.Sessions run behind this barrier.
func (b *batcher) drain() {
	for {
		b.mu.Lock()
		if !b.leader && b.frames == 0 {
			b.mu.Unlock()
			return
		}
		b.hurry = true
		b.mu.Unlock()
		b.kickLeader()
		b.mu.Lock()
		if b.leader || b.frames > 0 {
			b.cond.Wait()
		}
		b.mu.Unlock()
	}
}
