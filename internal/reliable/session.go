package reliable

// Resumable shipment sessions. A cross-edge shipment travels as a sequence
// of seq-numbered <instance> chunks (cut by the source's
// ShipmentWriter.SetChunk, or by ChunkShipment's re-batching of a
// materialized map). Each exchange transfer gets a session ID, which keys
// one entry in each party's SessionStore; the target's entry keeps a
// Ledger that checkpoints the highest contiguously received chunk — the
// ack a reconnecting source resumes from, and the session's one
// idempotency key: a chunk below it was already committed, so a replay of
// it is declined wholesale instead of doubling its records.

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xdx/internal/core"
	"xdx/internal/xmltree"
)

// Ledger is the target-side idempotency state of one shipment session: the
// chunk checkpoint and how many replayed chunks it declined. The zero
// value is an empty ledger expecting chunk 0.
type Ledger struct {
	mu       sync.Mutex
	next     int64 // lowest chunk seq not yet fully received
	declined int64
}

// AdmitChunk reports whether a chunk with this seq should be consumed:
// chunks below the checkpoint were already committed, so they are skipped
// wholesale and counted as declined.
func (l *Ledger) AdmitChunk(seq int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.next {
		l.declined++
		return false
	}
	return true
}

// ChunkDone advances the checkpoint past a fully received chunk.
func (l *Ledger) ChunkDone(seq int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= l.next {
		l.next = seq + 1
	}
}

// Restore seeds the chunk checkpoint from recovered durable state. It is
// for rebuilding a ledger on boot, before the session sees traffic; it
// never moves the checkpoint backwards.
func (l *Ledger) Restore(next int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next > l.next {
		l.next = next
	}
}

// Checkpoint returns the next chunk seq the session expects — the ack a
// resuming source skips to.
func (l *Ledger) Checkpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Declined returns how many replayed chunks the ledger skipped.
func (l *Ledger) Declined() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.declined
}

// session is one entry of a SessionStore: the owner's state of one
// delivery session and its idleness clock.
type session[T any] struct {
	state T
	// touched is the last store access — the clock Sweep runs on, so a
	// session in active use is never collected mid-transfer. Guarded by
	// the store's mutex.
	touched time.Time
}

// SessionStore is one endpoint's table of live delivery sessions, by
// session id. Each entry holds the owner's state of the session as a T
// (the endpoint keeps a source's held render and a target's ledger,
// instances and stored response there), minted zero on first sight and
// collected when ended or idle past MaxAge.
type SessionStore[T any] struct {
	// MaxAge is how long an idle session survives before Sweep collects
	// it. Default 10 minutes.
	MaxAge time.Duration

	// OnChange, when set, observes every change to the live-session
	// population: the live count after the change and how many idle
	// sessions the change swept (zero for mints and deletes). It runs
	// outside the store's lock and must be safe for concurrent use; set it
	// before the store sees traffic.
	OnChange func(live, swept int)

	// OnEvict, when set, receives the IDs of every session leaving the
	// store — explicit deletes and idle sweeps alike — so a durable
	// endpoint can release their journaled state. It runs outside the
	// store's lock, after the sessions are gone, and must be safe for
	// concurrent use; set it before the store sees traffic.
	OnEvict func(ids []string)

	mu  sync.Mutex
	m   map[string]*session[T]
	now func() time.Time
}

// NewSessionStore returns an empty store.
func NewSessionStore[T any]() *SessionStore[T] {
	return &SessionStore[T]{MaxAge: 10 * time.Minute, m: make(map[string]*session[T]), now: time.Now}
}

// Get returns the session's state, or nil when unknown. Access refreshes
// the session's idleness clock.
func (s *SessionStore[T]) Get(id string) *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.m[id]; sess != nil {
		sess.touched = s.now()
		return &sess.state
	}
	return nil
}

// GetOrCreate returns the session's state, minting a zero one (and
// sweeping idle peers) on first sight.
func (s *SessionStore[T]) GetOrCreate(id string) *T {
	s.mu.Lock()
	now := s.now()
	if sess := s.m[id]; sess != nil {
		sess.touched = now
		s.mu.Unlock()
		return &sess.state
	}
	gone := s.sweepLocked(now)
	sess := &session[T]{touched: now}
	s.m[id] = sess
	live := len(s.m)
	s.mu.Unlock()
	s.notify(live, gone)
	return &sess.state
}

// notify fires OnChange and OnEvict outside the lock.
func (s *SessionStore[T]) notify(live int, gone []string) {
	if s.OnEvict != nil && len(gone) > 0 {
		s.OnEvict(gone)
	}
	if s.OnChange != nil {
		s.OnChange(live, len(gone))
	}
}

// Sweep collects sessions idle past MaxAge and reports how many went.
// GetOrCreate sweeps opportunistically as new sessions arrive; an endpoint
// that stops receiving sessions should also run Sweep in the background
// (StartSweeper) so completed state is not held indefinitely.
func (s *SessionStore[T]) Sweep() int {
	s.mu.Lock()
	gone := s.sweepLocked(s.now())
	live := len(s.m)
	s.mu.Unlock()
	if len(gone) > 0 {
		s.notify(live, gone)
	}
	return len(gone)
}

func (s *SessionStore[T]) sweepLocked(now time.Time) []string {
	var gone []string
	for k, v := range s.m {
		if now.Sub(v.touched) > s.MaxAge {
			delete(s.m, k)
			gone = append(gone, k)
		}
	}
	return gone
}

// StartSweeper sweeps the store every interval (MaxAge/2 when zero) until
// the returned stop function is called.
func (s *SessionStore[T]) StartSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = s.MaxAge / 2
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.Sweep()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Delete drops a session.
func (s *SessionStore[T]) Delete(id string) { s.DeleteIf(id, nil) }

// DeleteIf drops a session when drop, called under the store's lock,
// reports its state holds nothing more; a nil drop always drops. It is
// how one party's half of a shared entry leaves without taking the
// other's with it.
func (s *SessionStore[T]) DeleteIf(id string, drop func(*T) bool) {
	s.mu.Lock()
	sess, had := s.m[id]
	had = had && (drop == nil || drop(&sess.state))
	if had {
		delete(s.m, id)
	}
	live := len(s.m)
	s.mu.Unlock()
	if had {
		if s.OnEvict != nil {
			s.OnEvict([]string{id})
		}
		if s.OnChange != nil {
			// Deletes report zero swept: sweeping is idle collection only.
			s.OnChange(live, 0)
		}
	}
}

// Len reports the live session count.
func (s *SessionStore[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// sessionCounter disambiguates session IDs minted in the same process.
var sessionCounter atomic.Int64

// NewSessionID mints a wire-safe session identifier.
func NewSessionID(seed int64) string { return mintID("x", seed) }

// NewExchangeID mints a wire-safe exchange identifier: the id every call
// of one exchange, and the source's call to the target, carries.
func NewExchangeID(seed int64) string { return mintID("e", seed) }

// mintID mints a wire-safe session ("x") or exchange ("e") identifier.
// The seed folds in the exchange's reliability seed so ID sequences are
// reproducible per config; the process-wide counter keeps concurrent
// exchanges distinct.
func mintID(kind string, seed int64) string {
	b := make([]byte, 0, 24)
	b = strconv.AppendUint(append(b, kind...), uint64(seed)&0xffffff, 16)
	return string(strconv.AppendInt(append(b, '-'), sessionCounter.Add(1), 10))
}

// Chunk is one resumable unit of a shipment: a batch of records of one
// cross-edge instance, with its global sequence number.
type Chunk struct {
	Seq  int64
	Key  string
	Frag *core.Fragment
	Recs []*xmltree.Node
}

// ChunkShipment slices a materialized shipment into resumable chunks of at
// most size records, in deterministic (sorted edge key) order. Every edge
// key yields at least one chunk — an empty instance still has to announce
// itself to the target.
func ChunkShipment(out map[string]*core.Instance, size int) []Chunk {
	if size <= 0 {
		size = 64
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var chunks []Chunk
	var seq int64
	for _, key := range keys {
		in := out[key]
		recs := in.Records
		if len(recs) == 0 {
			chunks = append(chunks, Chunk{Seq: seq, Key: key, Frag: in.Frag})
			seq++
			continue
		}
		for start := 0; start < len(recs); start += size {
			end := start + size
			if end > len(recs) {
				end = len(recs)
			}
			chunks = append(chunks, Chunk{Seq: seq, Key: key, Frag: in.Frag, Recs: recs[start:end]})
			seq++
		}
	}
	return chunks
}
