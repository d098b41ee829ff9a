package endpoint

// Resumable ExecuteTarget sessions (the reliable-exchange subsystem's
// endpoint side). Every ExecuteTarget names a session="id", which gives
// the delivery at-most-once semantics across reconnects:
//
//   - the shipment is sequenced, and the decoder commits its chunks into a
//     per-session instance map behind the session ledger's chunk
//     checkpoint, so chunks that survived a torn connection are kept and
//     replays below the checkpoint are declined;
//   - the target slice executes once; if the response was lost on the way
//     back, a retried request replays the stored response instead of
//     loading the backend twice;
//   - SessionStatus reports the chunk checkpoint — the ack a reconnecting
//     source resumes emission from.

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// session is one entry of the endpoint's session table, by delivery
// session id: the source render the session's attempts stream from, held
// while a resume may follow, and the target state receiving them. An
// endpoint that is both parties to an exchange keeps both halves under the
// one id. Each half has its own lock, so a probe of the target half never
// waits on a render.
type session struct {
	// renderMu is held across the render, so overlapping attempts of one
	// session render once.
	renderMu sync.Mutex
	render   *sourceRender

	targetMu sync.Mutex
	target   *targetSession
}

// targetSession is the endpoint's protocol state for one resumable
// ExecuteTarget transfer: the ledger, the instance map delivery attempts
// accumulate into, the execute-once latch, and the stored response
// replayed when a completed execution's reply was lost in transit.
type targetSession struct {
	// mu serializes shipment commits (it is wire.ShipmentDecoder.CommitLock
	// for every delivery attempt of the session) and the target execution
	// they feed, so a straggling attempt's chunk commits never interleave
	// with the execute reading the instance map.
	mu      sync.Mutex
	ledger  reliable.Ledger
	inbound map[string]*core.Instance
	// tombs accumulates, per edge key, the record IDs a delta shipment
	// tombstones (guarded by mu, alongside inbound).
	tombs map[string][]string

	// j and id journal this session's commits when the endpoint is
	// durable (SetJournal); nil j is the memory-only default.
	j  *durable.Journal
	id string
	// recovered holds the payloads of chunks journaled before a restart,
	// waiting for the first delivery attempt to replay them into inbound —
	// the resumed request carries the program whose schema and fragment
	// dictionary decode them (guarded by mu). A replay failure sticks in
	// hydrateErr: the checkpoint already covers those chunks, so the
	// session can never complete without them.
	recovered  []durable.SessionChunk
	hydrateErr error

	// stateMu guards the execute-once outcome and the in-flight latch. It
	// is never held across backend execution or response writing, so
	// SessionStatus probes answer immediately while a slow execute runs on
	// mu. Once done is true, resp is immutable and safe to write
	// concurrently.
	stateMu sync.Mutex
	running bool
	done    bool
	resp    *xmltree.Node
}

// replay returns the stored (immutable) response when the session already
// executed, else nil.
func (ts *targetSession) replay() *xmltree.Node {
	ts.stateMu.Lock()
	defer ts.stateMu.Unlock()
	if !ts.done {
		return nil
	}
	return ts.resp
}

// setRunning flips the in-flight latch SessionStatus reports as running.
func (ts *targetSession) setRunning(v bool) {
	ts.stateMu.Lock()
	ts.running = v
	ts.stateMu.Unlock()
}

// finish publishes the execute-once outcome. resp must not be mutated
// after this call.
func (ts *targetSession) finish(resp *xmltree.Node) {
	ts.stateMu.Lock()
	ts.done = true
	ts.resp = resp
	ts.stateMu.Unlock()
}

// targetSessionFor returns the session's endpoint state, attaching it on
// first sight.
func (e *Endpoint) targetSessionFor(id, exchange string) *targetSession {
	s := e.sessions.GetOrCreate(id)
	s.targetMu.Lock()
	defer s.targetMu.Unlock()
	if s.target == nil {
		s.target = &targetSession{inbound: map[string]*core.Instance{}, tombs: map[string][]string{}}
		if e.journal != nil {
			s.target.j, s.target.id = e.journal, id
			if err := e.journal.Mint(id); err != nil {
				e.log.Log(obs.LevelWarn, "journal mint failed", "exchange", exchange, "session", id, "err", err.Error())
			}
		}
	}
	return s.target
}

// dropRender releases a session's held render, and its entry with it
// unless this endpoint is also the session's target, whose stored response
// must outlive the render until EndSession or the sweep.
func (e *Endpoint) dropRender(id string, s *session) {
	s.renderMu.Lock()
	s.render = nil
	s.renderMu.Unlock()
	e.sessions.DeleteIf(id, func(s *session) bool {
		s.targetMu.Lock()
		defer s.targetMu.Unlock()
		return s.target == nil
	})
}

// decoder builds this delivery attempt's shipment decoder over the
// session's accumulating instance map and tombstone set, with the ledger
// plugged into the chunk-admission and checkpoint hooks and, on a durable
// endpoint, the journal as the Commit hook: a chunk applies
// and checkpoints only once its frame's ticket resolves, so parsing
// overlaps a group commit's fsync while the ack waits for it. Delivery
// attempts for one session can overlap (a client that timed out retries
// while the server is still draining the torn request), so the decoder
// commits chunks under the session mutex and re-checks admission there;
// without the lock a straggler's map writes would race the retry's.
func (ts *targetSession) decoder(sch *schema.Schema, lookup func(name string) *core.Fragment) (*wire.ShipmentDecoder, error) {
	ts.mu.Lock()
	err := ts.hydrateLocked(sch, lookup)
	inbound := ts.inbound
	ts.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if inbound == nil {
		// Late retry after the execute released the map: decode into a
		// throwaway so the deferred apply below has a concrete target.
		inbound = map[string]*core.Instance{}
	}
	d := wire.NewShipmentDecoderInto(sch, lookup, inbound)
	d.CommitLock = &ts.mu
	d.OnChunk = ts.admit
	d.ChunkDone = ts.ledger.ChunkDone
	d.Tombs = ts.tombs
	if ts.j != nil {
		d.Commit = func(c *wire.Chunk) (wire.Ticket, error) { return ts.j.Commit(ts.id, c), nil }
	}
	return d, nil
}

// admit is the session's chunk admission (the decoder's OnChunk). A
// session delivery is sequenced, and an attempt starts at or below the
// checkpoint: chunks between the checkpoint and a later first chunk never
// arrived — the session was lost after the source probed it — and
// checkpointing past them would report a shipment with holes as loaded.
// Later chunks follow the first densely (the decoder's own rule), and may
// run ahead of the checkpoint while earlier ones wait on their journal
// tickets. Below the checkpoint, the ledger declines.
func (ts *targetSession) admit(seq int64, first bool) (bool, error) {
	if seq < 0 {
		return false, fmt.Errorf("%w: a session delivery's chunks carry seqs", wire.ErrChunkOrder)
	}
	if first {
		if next := ts.ledger.Checkpoint(); seq > next {
			return false, fmt.Errorf("%w: delivery starts at chunk %d, past the session's checkpoint %d", wire.ErrChunkOrder, seq, next)
		}
	}
	return ts.ledger.AdmitChunk(seq), nil
}

// hydrateLocked replays the chunks recovered from the journal into the
// session's instance map and tombstone set through the wire package's one
// chunk decoder, with the resumed request's schema and fragment
// dictionary — the decode a received chunk gets, so a recovered instance
// is indistinguishable from one that never crashed. The journal hands back
// each seq once, and the restored checkpoint declines their replays.
// Runs once, under ts.mu, on the first delivery attempt after a restart.
func (ts *targetSession) hydrateLocked(sch *schema.Schema, lookup func(name string) *core.Fragment) error {
	if len(ts.recovered) == 0 || ts.inbound == nil {
		return ts.hydrateErr
	}
	d := wire.NewShipmentDecoderInto(sch, lookup, ts.inbound)
	d.Tombs = ts.tombs
	for _, c := range ts.recovered {
		if err := d.Replay(c.Key, c.Frag, c.Seq, c.Payload); err != nil {
			ts.hydrateErr = fmt.Errorf("session %s: replay journaled chunk %d: %w", ts.id, c.Seq, err)
			break
		}
	}
	ts.recovered = nil
	return ts.hydrateErr
}

// respondSession runs once the request is fully consumed: execute once,
// stamp the ledger's checkpoint and declined count onto the response, and
// replay the stored response on retries of a completed execution. Runs
// under the commit lock (mu) so duplicate requests wait and then replay,
// but never under stateMu — SessionStatus probes answer throughout.
func (t *targetScan) respondSession(w io.Writer) error {
	ts := t.ts
	if resp := ts.replay(); resp != nil {
		t.e.met.Counter("endpoint.session.replays").Inc()
		return xmltree.Write(w, resp, xmltree.WriteOptions{EmitAllIDs: true})
	}
	if t.g == nil {
		return &soap.Fault{Code: "soap:Client", String: "missing program"}
	}
	if !t.sawShipment {
		return &soap.Fault{Code: "soap:Client", String: "missing shipment"}
	}
	if _, err := t.dec.Result(); err != nil {
		return err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	// A duplicate request may have won the execute race while this one
	// waited on the commit lock; replay its response instead of loading
	// the backend twice.
	if resp := ts.replay(); resp != nil {
		t.e.met.Counter("endpoint.session.replays").Inc()
		return xmltree.Write(w, resp, xmltree.WriteOptions{EmitAllIDs: true})
	}
	var resp *xmltree.Node
	var err error
	ts.setRunning(true)
	if t.delta {
		resp, err = t.applyDelta()
	} else {
		if t.stream != "" {
			// A stream's full snapshot replaces the previous one instead of
			// appending to it.
			t.e.clearBackend()
		}
		resp, err = t.e.runTarget(t.exchange, t.g, t.a, ts.inbound)
		if st := t.e.rowStore(); st != nil && t.stream != "" && err == nil {
			// The rows now hold this session's snapshot: the base the
			// stream's next delta applies to.
			st.SetBase(t.stream, t.epoch, t.session)
		}
	}
	ts.setRunning(false)
	if err != nil {
		return err
	}
	if t.exchange != "" {
		resp.SetAttr("exchange", t.exchange)
	}
	resp.SetAttr("checkpoint", strconv.FormatInt(ts.ledger.Checkpoint(), 10))
	resp.SetAttr("declined", strconv.FormatInt(ts.ledger.Declined(), 10))
	t.e.met.Counter("endpoint.session.executes").Inc()
	t.e.met.Counter("endpoint.session.declined").Add(ts.ledger.Declined())
	// Publish the outcome before the winner's copy goes out: a response
	// torn mid-write must leave its retry a stored copy to replay, not a
	// second execution. The stored copy carries replayed="1" and is frozen.
	stored := resp.Clone()
	stored.SetAttr("replayed", "1")
	ts.finish(stored)
	// The instances are loaded; replays only need the stored response, so
	// release the decoded map instead of holding shipment-sized state for
	// the rest of the session's lifetime. A late retry's decoder finds nil
	// and decodes into a throwaway map — its chunks are all checkpointed
	// anyway.
	ts.inbound = nil
	return xmltree.Write(w, resp, xmltree.WriteOptions{EmitAllIDs: true})
}

// sessionStatus answers a SessionStatus probe: the chunk checkpoint a
// resuming source should skip to, whether the target already executed —
// with its stored response when it did — and how many replayed chunks were
// declined. A session without target state here answers known="0" with a
// zero checkpoint — a source that never reached the target resumes from
// the start.
func (e *Endpoint) sessionStatus(req *xmltree.Node) (*xmltree.Node, error) {
	id, _ := req.Attr("session")
	if id == "" {
		return nil, &soap.Fault{Code: "soap:Client", String: "SessionStatus without session id"}
	}
	resp := &xmltree.Node{Name: "SessionStatusResponse"}
	resp.SetAttr("session", id)
	var ts *targetSession
	if s := e.sessions.Get(id); s != nil {
		s.targetMu.Lock()
		ts = s.target
		s.targetMu.Unlock()
	}
	if ts == nil {
		resp.SetAttr("known", "0")
		resp.SetAttr("next", "0")
		resp.SetAttr("done", "0")
		return resp, nil
	}
	resp.SetAttr("known", "1")
	// Probe state lives behind stateMu and the ledger's own lock — never
	// the commit/execute lock — so a probe answers immediately even while
	// a slow backend execution is in flight for this session.
	ts.stateMu.Lock()
	done, running, stored := ts.done, ts.running, ts.resp
	ts.stateMu.Unlock()
	resp.SetAttr("next", strconv.FormatInt(ts.ledger.Checkpoint(), 10))
	d := "0"
	if done {
		// The outcome rides along: an agency whose source answer was lost
		// after the target executed completes from here.
		d = "1"
		resp.AddKid(stored)
	}
	resp.SetAttr("done", d)
	if running {
		resp.SetAttr("running", "1")
	}
	resp.SetAttr("declined", strconv.FormatInt(ts.ledger.Declined(), 10))
	return resp, nil
}

// endSession releases a session's state once the agency has the response
// it needs — without it, a completed session (ledger, stored response) or
// a source render held for a resume would sit in memory for the store's
// full MaxAge. Ending an unknown session is fine: it may already have been
// swept.
func (e *Endpoint) endSession(req *xmltree.Node) (*xmltree.Node, error) {
	id, _ := req.Attr("session")
	if id == "" {
		return nil, &soap.Fault{Code: "soap:Client", String: "EndSession without session id"}
	}
	e.sessions.Delete(id)
	resp := &xmltree.Node{Name: "EndSessionResponse"}
	resp.SetAttr("session", id)
	return resp, nil
}
