package endpoint

// Resumable ExecuteTarget sessions (the reliable-exchange subsystem's
// endpoint side). Every ExecuteTarget names a session="id", which gives
// the delivery at-most-once semantics across reconnects:
//
//   - the shipment decoder commits chunks into a per-session instance map,
//     guarded by the session's idempotency ledger, so chunks that survived
//     a torn connection are kept and replays are dropped;
//   - the target slice executes once; if the response was lost on the way
//     back, a retried request replays the stored response instead of
//     loading the backend twice;
//   - SessionStatus reports the chunk checkpoint — the ack a reconnecting
//     source resumes emission from.

import (
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

// targetSession is the endpoint's protocol state for one resumable
// ExecuteTarget transfer: the instance map delivery attempts accumulate
// into, the execute-once latch, and the stored response replayed when a
// completed execution's reply was lost in transit.
type targetSession struct {
	// mu serializes shipment commits (it is wire.ShipmentDecoder.CommitLock
	// for every delivery attempt of the session) and the target execution
	// they feed, so a straggling attempt's chunk commits never interleave
	// with the execute reading the instance map.
	mu      sync.Mutex
	ledger  *reliable.Ledger
	inbound map[string]*core.Instance
	// tombs accumulates, per edge key, the record IDs a delta shipment
	// tombstones (guarded by mu, alongside inbound).
	tombs map[string][]string

	// j and id journal this session's commits when the endpoint is
	// durable (SetJournal); nil j is the memory-only default.
	j  *durable.Journal
	id string
	// recovered holds chunks replayed from the journal on boot, waiting
	// for the first delivery attempt to hydrate them into inbound — the
	// resumed request carries the program whose fragment dictionary the
	// instances need (guarded by mu).
	recovered []durable.SessionChunk

	// pending (guarded by mu) is the group-commit queue used when the
	// journal runs group commit: chunks whose journal frame is submitted
	// but not yet fsynced. Each entry's records enter the instance map
	// and its seq checkpoints (ChunkDone) only when its durability ticket
	// resolves, in submission order — so the ack-after-sync invariant of
	// the synchronous path holds while parsing overlaps the sync.
	pending []pendingCommit

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

// pendingCommit is one journaled-but-not-yet-durable chunk: the ticket to
// park on, and everything needed to apply the chunk once it resolves.
type pendingCommit struct {
	p    *durable.Pending
	out  map[string]*core.Instance // the attempt's decode target
	key  string
	frag *core.Fragment
	seq  int64
	recs []*xmltree.Node
	// del marks a tombstone chunk: ids join the session's tombstone set
	// instead of recs entering the instance map.
	del bool
	ids []string
}

// maxPendingCommits bounds the group-commit window: past this many
// in-flight chunks the decoder blocks on the oldest ticket, so a slow
// disk applies backpressure to the wire instead of growing the queue.
const maxPendingCommits = 256

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
func (e *Endpoint) targetSessionFor(id string) *targetSession {
	s := e.sessions.GetOrCreate(id)
	s.Mu.Lock()
	defer s.Mu.Unlock()
	ts, ok := s.Data.(*targetSession)
	if !ok {
		ts = &targetSession{ledger: s.Ledger, inbound: map[string]*core.Instance{}}
		if e.journal != nil {
			ts.j, ts.id = e.journal, id
			if err := e.journal.Mint(id); err != nil {
				e.log.Log(obs.LevelWarn, "journal mint failed", "session", id, "err", err.Error())
			}
		}
		s.Data = ts
	}
	return ts
}

// decoder builds this delivery attempt's shipment decoder over the
// session's accumulating instance map, with the ledger plugged into the
// chunk-admission, record-dedup, and checkpoint hooks. Delivery attempts
// for one session can overlap (a client that timed out retries while the
// server is still draining the torn request), so the decoder commits
// chunks under the session mutex and re-checks admission there; without
// the lock a straggler's map writes would race the retry's.
func (ts *targetSession) decoder(sch *schema.Schema, lookup func(name string) *core.Fragment) *wire.ShipmentDecoder {
	ts.mu.Lock()
	ts.hydrateLocked(lookup)
	inbound := ts.inbound
	ts.mu.Unlock()
	if inbound == nil {
		// Late retry after the execute released the map: decode into a
		// throwaway so the deferred apply below has a concrete target.
		inbound = map[string]*core.Instance{}
	}
	d := wire.NewShipmentDecoderInto(sch, lookup, inbound)
	d.CommitLock = &ts.mu
	d.OnChunk = ts.ledger.AdmitChunk
	d.KeepRecords = ts.ledger.KeepRecords
	d.ChunkDone = ts.ledger.ChunkDone
	d.OnTombs = func(key string, seq int64, ids []string) error {
		return ts.commitTombLocked(key, seq, ids)
	}
	if ts.j != nil && ts.j.Batched() {
		// Group commit: submit the journal frame, queue the
		// apply, keep parsing. The map append and checkpoint advance
		// happen in commitAsyncLocked/resolve once the frame's group
		// fsyncs.
		d.CommitAsync = func(key string, frag *core.Fragment, seq int64, recs []*xmltree.Node) error {
			return ts.commitAsyncLocked(inbound, key, frag, seq, recs)
		}
	} else if ts.j != nil {
		d.OnCommit = func(key string, frag *core.Fragment, seq int64, recs []*xmltree.Node) error {
			if err := ts.j.Chunk(ts.id, key, frag.Name, seq, recs); err != nil {
				// The ledger marked these records seen before the journal
				// write; forget them again or the retried chunk would dedup
				// them away and lose data.
				for _, rec := range recs {
					ts.ledger.Unmark(key, rec.ID)
				}
				return err
			}
			return nil
		}
	}
	return d
}

// commitAsyncLocked is the group-commit chunk commit (CommitAsync hook; runs
// under ts.mu via CommitLock). It journals the chunk asynchronously and
// queues the apply behind the durability ticket, first settling whatever
// older commits have already synced — so the queue drains as fast as the
// disk does, and the write-ahead ordering (journaled before applied,
// applied before checkpointed) holds per chunk.
func (ts *targetSession) commitAsyncLocked(out map[string]*core.Instance, key string, frag *core.Fragment, seq int64, recs []*xmltree.Node) error {
	unmark := func() {
		// KeepRecords marked these seen before the commit; forget them
		// again or a retried chunk would dedup them away and lose data.
		for _, rec := range recs {
			ts.ledger.Unmark(key, rec.ID)
		}
	}
	if err := ts.resolveReadyLocked(); err != nil {
		unmark()
		return err
	}
	for len(ts.pending) >= maxPendingCommits {
		// Window full: the wire waits for the disk. Hurry the group out
		// and park on the oldest ticket.
		ts.j.Flush()
		if err := ts.resolveHeadLocked(); err != nil {
			unmark()
			return err
		}
	}
	p, err := ts.j.ChunkAsync(ts.id, key, frag.Name, seq, recs)
	if err != nil {
		unmark()
		return err
	}
	ts.pending = append(ts.pending, pendingCommit{p: p, out: out, key: key, frag: frag, seq: seq, recs: recs})
	return nil
}

// commitTombLocked commits one tombstone chunk (the decoder's OnTombs
// hook; runs under ts.mu via CommitLock) with the same write-ahead
// discipline as record chunks: journaled before applied, applied before
// checkpointed. Batch journals ride the group-commit queue, sync
// journals block, and the memory-only default applies immediately.
// Tombstone IDs never pass KeepRecords, so there is nothing to unmark on
// failure.
func (ts *targetSession) commitTombLocked(key string, seq int64, ids []string) error {
	if ts.j != nil && ts.j.Batched() {
		if err := ts.resolveReadyLocked(); err != nil {
			return err
		}
		for len(ts.pending) >= maxPendingCommits {
			ts.j.Flush()
			if err := ts.resolveHeadLocked(); err != nil {
				return err
			}
		}
		p, err := ts.j.TombAsync(ts.id, key, seq, ids)
		if err != nil {
			return err
		}
		ts.pending = append(ts.pending, pendingCommit{p: p, key: key, seq: seq, del: true, ids: ids})
		return nil
	}
	if ts.j != nil {
		if err := ts.j.Tomb(ts.id, key, seq, ids); err != nil {
			return err
		}
	}
	ts.applyTombLocked(key, ids)
	ts.ledger.ChunkDone(seq)
	return nil
}

// applyTombLocked adds tombstoned record IDs to the session's deletion
// set, which the delta apply subtracts from the retained base.
func (ts *targetSession) applyTombLocked(key string, ids []string) {
	if ts.tombs == nil {
		ts.tombs = map[string][]string{}
	}
	ts.tombs[key] = append(ts.tombs[key], ids...)
}

// resolveReadyLocked applies, in order, every queued commit whose ticket
// has already resolved, without blocking.
func (ts *targetSession) resolveReadyLocked() error {
	for len(ts.pending) > 0 {
		select {
		case <-ts.pending[0].p.Done():
		default:
			return nil
		}
		if err := ts.resolveHeadLocked(); err != nil {
			return err
		}
	}
	return nil
}

// resolveHeadLocked waits for the oldest queued commit's ticket and
// applies it: records enter the instance map and the seq checkpoints. A
// failed ticket rolls back the whole queue — every queued chunk's records
// are unmarked so a retry re-ships them — and fails the attempt.
func (ts *targetSession) resolveHeadLocked() error {
	pc := ts.pending[0]
	if err := pc.p.Err(); err != nil {
		for _, q := range ts.pending {
			for _, rec := range q.recs {
				ts.ledger.Unmark(q.key, rec.ID)
			}
		}
		ts.pending = nil
		return err
	}
	if pc.del {
		ts.applyTombLocked(pc.key, pc.ids)
	} else {
		in := pc.out[pc.key]
		if in == nil {
			in = &core.Instance{Frag: pc.frag}
			pc.out[pc.key] = in
		}
		in.Records = append(in.Records, pc.recs...)
	}
	ts.ledger.ChunkDone(pc.seq)
	ts.pending = ts.pending[1:]
	if len(ts.pending) == 0 {
		ts.pending = nil
	}
	return nil
}

// drainPendingLocked settles the whole group-commit queue: hurry the
// journal's commit group out, then apply every queued chunk in order.
// The session ack — checkpoint stamp, execute, HTTP response — runs
// behind this barrier, which is what makes batch-mode acks exactly as
// durable as FsyncAlways ones.
func (ts *targetSession) drainPendingLocked() error {
	if len(ts.pending) == 0 {
		return nil
	}
	ts.j.Flush()
	for len(ts.pending) > 0 {
		if err := ts.resolveHeadLocked(); err != nil {
			return err
		}
	}
	return nil
}

// hydrateLocked materializes chunks recovered from the journal into the
// session's instance map, resolving fragment names through the resumed
// request's program dictionary — the same lookup live commits use, so a
// recovered instance is indistinguishable from one that never crashed.
// Runs once, under ts.mu, on the first delivery attempt after a restart.
func (ts *targetSession) hydrateLocked(lookup func(name string) *core.Fragment) {
	if len(ts.recovered) == 0 || ts.inbound == nil {
		return
	}
	for _, c := range ts.recovered {
		if c.Del {
			// A journaled tombstone chunk: the IDs rejoin the deletion
			// set; there are no records to materialize.
			ids := make([]string, 0, len(c.Recs))
			for _, rec := range c.Recs {
				ids = append(ids, rec.ID)
			}
			ts.applyTombLocked(c.Key, ids)
			continue
		}
		f := lookup(c.Frag)
		if f == nil {
			// The resumed program does not know this fragment; without a
			// definition the records cannot feed an execute. Should not
			// happen — resumes re-send the same program — but skipping
			// beats poisoning the whole session.
			continue
		}
		in := ts.inbound[c.Key]
		if in == nil {
			in = &core.Instance{Frag: f}
			ts.inbound[c.Key] = in
		}
		in.Records = append(in.Records, c.Recs...)
	}
	ts.recovered = nil
}

// respondSession runs once the request is fully consumed: execute once,
// stamp the ledger's checkpoint and dedup count onto the response, and
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
	// Settle the group commits before acking anything: the checkpoint
	// stamped below and the execute's view of the instance map must only
	// cover chunks whose journal frames are on stable storage.
	if err := ts.drainPendingLocked(); err != nil {
		return err
	}
	run := ts.inbound
	if t.delta {
		base := t.e.deltaBaseFor(t.stream, t.epoch)
		if base == nil {
			// The warm base vanished between delivery start and execute (a
			// raced restart); the agency reacts with a full reship.
			t.e.met.Counter("endpoint.delta.cold").Inc()
			return soap.ColdDeltaFault("stream " + t.stream + " epoch " + t.epoch)
		}
		run = patchDelta(base, ts.inbound, ts.tombs)
		t.e.met.Counter("endpoint.delta.applies").Inc()
	}
	exec := run
	if t.stream != "" {
		// Stream-tagged exchanges carry (or patch up to) the full logical
		// snapshot: replace the previous one instead of appending to it,
		// and hand the executor copy-on-write views so the retained base
		// never sees combine-time mutations.
		t.e.clearBackend()
		exec = shareInstances(run)
	}
	ts.setRunning(true)
	resp, err := t.e.runTarget(t.g, t.a, exec)
	ts.setRunning(false)
	if err != nil {
		return err
	}
	if t.stream != "" {
		t.e.storeDeltaBase(t.stream, t.epoch, run)
	}
	resp.SetAttr("checkpoint", strconv.FormatInt(ts.ledger.Checkpoint(), 10))
	resp.SetAttr("deduped", strconv.FormatInt(ts.ledger.Deduped(), 10))
	t.e.met.Counter("endpoint.session.executes").Inc()
	t.e.met.Counter("endpoint.session.deduped").Add(ts.ledger.Deduped())
	// Write the winner's copy before stamping the replay marker, then
	// freeze: every later reader sees replayed="1" on an immutable node.
	werr := xmltree.Write(w, resp, xmltree.WriteOptions{EmitAllIDs: true})
	resp.SetAttr("replayed", "1")
	ts.finish(resp)
	// The instances are loaded; replays only need the stored response, so
	// release the decoded map instead of holding shipment-sized state for
	// the rest of the session's lifetime. A late retry's decoder finds nil
	// and decodes into a throwaway map — its chunks are all checkpointed
	// anyway.
	ts.inbound = nil
	return werr
}

// patchDelta overlays a delta shipment onto the retained base: per
// shipped edge, tombstoned and re-shipped record IDs drop out of the base
// and the inbound records append — the inverse of how the source derived
// the delta, so the patched map equals the full shipment it stands in
// for. Edges absent from the delta vanished from the source's output (all
// their IDs are tombstoned) and are simply omitted.
func patchDelta(base, delta map[string]*core.Instance, tombs map[string][]string) map[string]*core.Instance {
	out := make(map[string]*core.Instance, len(delta))
	for key, din := range delta {
		drop := make(map[string]bool, len(tombs[key])+len(din.Records))
		for _, id := range tombs[key] {
			drop[id] = true
		}
		for _, rec := range din.Records {
			drop[rec.ID] = true
		}
		var recs []*xmltree.Node
		if bin := base[key]; bin != nil {
			recs = make([]*xmltree.Node, 0, len(bin.Records)+len(din.Records))
			for _, rec := range bin.Records {
				if !drop[rec.ID] {
					recs = append(recs, rec)
				}
			}
		}
		recs = append(recs, din.Records...)
		out[key] = &core.Instance{Frag: din.Frag, Records: recs}
	}
	return out
}

// shareInstances wraps every instance in a copy-on-write view (see
// core.Instance.Share), keeping the underlying records immutable while
// the target slice executes over them.
func shareInstances(in map[string]*core.Instance) map[string]*core.Instance {
	out := make(map[string]*core.Instance, len(in))
	for k, v := range in {
		out[k] = v.Share()
	}
	return out
}

// sessionStatus answers a SessionStatus probe: the chunk checkpoint a
// resuming source should skip to, whether the target already executed, and
// how many replayed records were deduped. Unknown sessions answer
// known="0" with a zero checkpoint — a source that never reached the
// target resumes from the start.
func (e *Endpoint) sessionStatus(req *xmltree.Node) (*xmltree.Node, error) {
	id, _ := req.Attr("session")
	if id == "" {
		return nil, &soap.Fault{Code: "soap:Client", String: "SessionStatus without session id"}
	}
	resp := &xmltree.Node{Name: "SessionStatusResponse"}
	resp.SetAttr("session", id)
	s := e.sessions.Get(id)
	if s == nil {
		resp.SetAttr("known", "0")
		resp.SetAttr("next", "0")
		resp.SetAttr("done", "0")
		return resp, nil
	}
	s.Mu.Lock()
	ts, _ := s.Data.(*targetSession)
	s.Mu.Unlock()
	resp.SetAttr("known", "1")
	if ts == nil {
		resp.SetAttr("next", "0")
		resp.SetAttr("done", "0")
		return resp, nil
	}
	// Probe state lives behind stateMu and the ledger's own lock — never
	// the commit/execute lock — so a probe answers immediately even while
	// a slow backend execution is in flight for this session.
	ts.stateMu.Lock()
	done, running := ts.done, ts.running
	ts.stateMu.Unlock()
	resp.SetAttr("next", strconv.FormatInt(ts.ledger.Checkpoint(), 10))
	d := "0"
	if done {
		d = "1"
	}
	resp.SetAttr("done", d)
	if running {
		resp.SetAttr("running", "1")
	}
	resp.SetAttr("deduped", strconv.FormatInt(ts.ledger.Deduped(), 10))
	return resp, nil
}

// endSession releases a session's state once the source has the response
// it needs — without it, a completed session (ledger, stored response)
// would sit in memory for the store's full MaxAge. Ending an unknown
// session is fine: it may already have been swept.
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
