package reliable

// Resumable shipment sessions. A cross-edge shipment travels as a sequence
// of <instance> chunks (cut by the source's ShipmentWriter.SetChunk, or by
// ChunkShipment's re-batching of a materialized map). Each exchange
// transfer gets a session ID; the
// target keeps a Ledger per session that (a) checkpoints the highest
// contiguously received chunk — the ack a reconnecting source resumes
// from — and (b) remembers every (edge, record ID) pair it committed, so
// records replayed by an overlapping resume dedup instead of doubling.
// The ID sets are keyed by the records' own ID strings: a session's ledger
// lives exactly as long as the records it admitted, so it pins nothing the
// session does not already hold.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xdx/internal/core"
	"xdx/internal/xmltree"
)

// Ledger is the target-side idempotency state of one shipment session.
// Its methods match the wire.ShipmentDecoder hooks (AdmitChunk/KeepRecords/
// ChunkDone), so an endpoint plugs a ledger straight into the decoder.
type Ledger struct {
	mu      sync.Mutex
	next    int64                          // lowest chunk seq not yet fully received
	seen    map[string]map[string]struct{} // edge -> record IDs committed
	deduped int64
}

// NewLedger returns an empty ledger expecting chunk 0.
func NewLedger() *Ledger {
	return &Ledger{seen: make(map[string]map[string]struct{})}
}

// AdmitChunk reports whether a chunk with this seq should be consumed:
// chunks below the checkpoint were already committed and are skipped
// wholesale. Chunks without a seq (-1) are always admitted — they carry
// their own record-level dedup.
func (l *Ledger) AdmitChunk(seq int64) bool {
	if seq < 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return seq >= l.next
}

// ChunkDone advances the checkpoint past a fully received chunk.
func (l *Ledger) ChunkDone(seq int64) {
	if seq < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= l.next {
		l.next = seq + 1
	}
}

// KeepRecords implements record-level idempotency for one chunk: the first
// time an (edge, ID) pair is committed it is remembered and kept; replays
// are dropped and counted. Records without IDs pass through — the chunk
// checkpoint already covers them. It filters recs in place and returns the
// kept prefix, deciding the whole chunk under one lock and one lookup of
// the edge's ID set (the caller holds the session's commit lock meanwhile).
func (l *Ledger) KeepRecords(edge string, recs []*xmltree.Node) []*xmltree.Node {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := l.seen[edge]
	if ids == nil {
		ids = make(map[string]struct{})
		l.seen[edge] = ids
	}
	kept := recs[:0]
	for _, rec := range recs {
		if rec.ID != "" {
			if _, dup := ids[rec.ID]; dup {
				l.deduped++
				continue
			}
			ids[rec.ID] = struct{}{}
		}
		kept = append(kept, rec)
	}
	return kept
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

// Deduped returns how many replayed records the ledger dropped.
func (l *Ledger) Deduped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deduped
}

// Session is one resumable transfer tracked by a SessionStore. Owners
// (the endpoint) attach their protocol state to Data under Mu.
type Session struct {
	// ID names the session on the wire.
	ID string
	// Ledger is the session's idempotency state.
	Ledger *Ledger
	// Created is when the session first appeared.
	Created time.Time
	// touched is the last store access — the idleness clock Sweep runs
	// on, so a session in active use is never collected mid-transfer.
	// Guarded by the store's mutex.
	touched time.Time

	// Mu guards Data against a status probe racing a late request.
	Mu sync.Mutex
	// Data is owner-attached state (the endpoint keeps its decoded
	// program, accumulating instances, and the execute-once response
	// here).
	Data any
}

// SessionStore tracks the live sessions of one endpoint.
type SessionStore struct {
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
	m   map[string]*Session
	now func() time.Time
}

// NewSessionStore returns an empty store.
func NewSessionStore() *SessionStore {
	return &SessionStore{MaxAge: 10 * time.Minute, m: make(map[string]*Session), now: time.Now}
}

// Get returns the session, or nil when unknown. Access refreshes the
// session's idleness clock.
func (s *SessionStore) Get(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.m[id]; sess != nil {
		sess.touched = s.now()
		return sess
	}
	return nil
}

// GetOrCreate returns the session, minting (and sweeping idle peers) on
// first sight.
func (s *SessionStore) GetOrCreate(id string) *Session {
	s.mu.Lock()
	now := s.now()
	if sess := s.m[id]; sess != nil {
		sess.touched = now
		s.mu.Unlock()
		return sess
	}
	gone := s.sweepLocked(now)
	sess := &Session{ID: id, Ledger: NewLedger(), Created: now, touched: now}
	s.m[id] = sess
	live := len(s.m)
	s.mu.Unlock()
	s.notify(live, gone)
	return sess
}

// notify fires OnChange and OnEvict outside the lock.
func (s *SessionStore) notify(live int, gone []string) {
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
func (s *SessionStore) Sweep() int {
	s.mu.Lock()
	gone := s.sweepLocked(s.now())
	live := len(s.m)
	s.mu.Unlock()
	if len(gone) > 0 {
		s.notify(live, gone)
	}
	return len(gone)
}

func (s *SessionStore) sweepLocked(now time.Time) []string {
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
func (s *SessionStore) StartSweeper(interval time.Duration) (stop func()) {
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
func (s *SessionStore) Delete(id string) {
	s.mu.Lock()
	_, had := s.m[id]
	delete(s.m, id)
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
func (s *SessionStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// sessionCounter disambiguates session IDs minted in the same process.
var sessionCounter atomic.Int64

// NewSessionID mints a wire-safe session identifier. The seed folds in the
// exchange's reliability seed so ID sequences are reproducible per config;
// the process-wide counter keeps concurrent exchanges distinct.
func NewSessionID(seed int64) string {
	return fmt.Sprintf("x%x-%d", uint64(seed)&0xffffff, sessionCounter.Add(1))
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
