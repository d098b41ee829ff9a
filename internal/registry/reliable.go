package registry

// The exchange driver. There is one way to drive an exchange, and it goes
// through internal/reliable whether or not the caller asked for retries.
// The agency coordinates; it never carries the data (Figure 2):
//
//   - it mints the exchange id and the target's delivery session, and asks
//     the source to run its slice and deliver the shipment straight to the
//     target's registered URL as seq-numbered chunks;
//   - a failed call is re-issued under backoff: the agency first probes the
//     target's SessionStatus and re-issues from the chunk checkpoint the
//     target acked, and the source re-emits the chunks from there out of
//     the one render it holds for the session — the target's ledger
//     declines any chunk it already holds, so the loaded instances are
//     byte-identical to a fault-free run;
//   - a source that no longer holds that render refuses the resume, and
//     the agency starts over on a fresh session unless the target already
//     executed (the probe then carries its stored response);
//   - every attempt passes the source's circuit breaker when the caller
//     shares a breaker set, and the whole exchange shares one retry
//     budget and deadline;
//   - a delta exchange adds attributes, not a path: the target names the
//     session whose snapshot it holds, the source diffs against exactly
//     that snapshot or ships in full, and a target that lost its base
//     answers xdx:ColdDelta, which the source relays unchanged and the
//     agency answers by re-running without one.
//
// An exchange without ExecOptions.Reliability runs the same protocol under
// a single-attempt policy: one source call, one sessioned delivery, and any
// failure ends it.

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xdx/internal/core"
	"xdx/internal/endpoint"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// wireExchangeObs registers the retry hook of one exchange onto the
// options' observability sinks. Breakers are the caller's shared set, which
// its owner wires once (Service.SetObs).
func wireExchangeObs(r *reliable.Retrier, exchange string, opts ExecOptions) {
	met, log := opts.Metrics, obs.OrNop(opts.Logger)
	r.OnRetry = func(op string, try int, delay time.Duration, err error) {
		met.Counter("exchange.retries").Inc()
		log.Log(obs.LevelWarn, "retrying call", "exchange", exchange,
			"op", op, "try", try, "delayMillis", delay.Milliseconds(), "err", err.Error())
	}
}

// drive runs an exchange end-to-end under opts.Reliability (ExecuteOpts
// has resolved nil to the single-attempt config): the source executes and
// delivers, the agency probes and re-issues. A delta exchange is the same
// drive: the target names the snapshot it holds, and the source diffs
// against it.
func (a *Agency) drive(service string, plan *Plan, opts ExecOptions) (*Report, error) {
	src, tgt := a.parties(service)
	if src == nil || tgt == nil {
		return nil, fmt.Errorf("registry: service %q not fully registered", service)
	}
	progXML, err := wire.EncodeProgram(plan.Program, plan.Assign)
	if err != nil {
		return nil, err
	}
	codec, err := wire.ParseCodec(opts.Codec)
	if err != nil {
		return nil, err
	}
	if opts.Filter != "" {
		// The filter is this exchange's, not the plan's: it fails here,
		// against the schema both parties agreed on, before any call —
		// including a path outside the source's root fragment, which could
		// only ever filter out every record. The source checks it again,
		// since its input arrives off the wire.
		f, err := core.CompileFilter(opts.Filter, src.Fragmentation.Schema)
		if err == nil {
			err = f.CheckRoot(src.Fragmentation)
		}
		if err != nil {
			return nil, clientFault("registry: " + err.Error())
		}
	}
	// One retrier per exchange: its budget and deadline span every call.
	// Only the caller's shared breakers gate an attempt; nil is none.
	cfg := opts.Reliability
	retrier := reliable.NewRetrier(cfg.Policy, cfg.Seed)
	var breaker *reliable.Breaker
	if cfg.Breakers != nil {
		breaker = cfg.Breakers.For(src.URL)
	}
	hc := &http.Client{Transport: cfg.Transport} // nil is http.DefaultTransport
	exchange := reliable.NewExchangeID(cfg.Seed)
	client := func(url string) *soap.Client {
		return &soap.Client{URL: url, HTTPClient: hc, Timeout: cfg.Policy.AttemptTimeout, Exchange: exchange}
	}
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = 64
	}
	trace := obs.NewSpan("exchange")
	trace.Set("service", service)
	trace.Set("exchange", exchange)
	report := &Report{Plan: plan, Codec: codec.String(), Trace: trace, Exchange: exchange}
	wireExchangeObs(retrier, exchange, opts)
	log := obs.OrNop(opts.Logger)

	reqS := &xmltree.Node{Name: "ExecuteSource"}
	if opts.Filter != "" {
		reqS.SetAttr("filter", opts.Filter)
	}
	reqS.SetAttr("target", tgt.URL)
	reqS.SetAttr("codec", report.Codec)
	reqS.SetAttr("chunk", strconv.Itoa(chunk))
	ct := client(tgt.URL)
	base := ""
	if opts.Delta {
		// The source reconciles against the snapshot the target holds, so
		// it learns the stream, the epoch and that snapshot's session.
		stream, epoch := service, deltaEpoch(src, tgt)
		reqS.SetAttr("stream", stream)
		reqS.SetAttr("epoch", epoch)
		base = targetDeltaBase(ct, stream, epoch)
	}
	reqS.AddKid(progXML)
	cs := client(src.URL)

	// run drives one delivery session to its end: the source's answer, or
	// the target's stored one when the source's was lost after the target
	// executed.
	run := func(session, base string) (*sourceReply, error) {
		reqS.SetAttr("session", session)
		if opts.Delta {
			reqS.SetAttr("base", base)
		}
		span := trace.Child("source")
		defer span.End()
		span.Set("session", session)
		var reply *sourceReply
		var stored *xmltree.Node
		err := retrier.Do("ExecuteSource", breaker, func(try int) error {
			at := span.Child("attempt")
			at.Set("try", strconv.Itoa(try))
			defer at.End()
			from := int64(0)
			if try > 0 {
				// Never re-issue blind: a resume starts at the checkpoint
				// the target acked, and a failed probe is a failed attempt.
				st, err := probe(ct, at, session)
				if err != nil {
					at.Set("err", err.Error())
					return err
				}
				from, stored = resumePoint(st), storedResponse(st)
				if from > 0 {
					report.Resumes++
					opts.Metrics.Counter("exchange.resumes").Inc()
				}
			}
			reqS.SetAttr("from", strconv.FormatInt(from, 10))
			reply = &sourceReply{}
			err := cs.CallStream("ExecuteSource", func(w io.Writer) error {
				return xmltree.Write(w, reqS, xmltree.WriteOptions{EmitAllIDs: true})
			}, reply)
			if soap.IsRenderGone(err) {
				// The source lost the render this session began. If the
				// target executed it anyway (the source's answer was lost),
				// the session is complete; otherwise it can never be.
				if stored == nil {
					st, _ := probe(ct, at, session)
					stored = storedResponse(st)
				}
				if stored != nil {
					reply = &sourceReply{target: stored.Attrs}
					return nil
				}
			}
			if err != nil {
				at.Set("err", err.Error())
				if soap.IsColdDelta(err) || soap.IsRenderGone(err) {
					// No retry of this session can warm the base or bring
					// the render back; surface to the fresh session below.
					return reliable.Permanent(err)
				}
				return err
			}
			if !reply.ok {
				at.Set("err", "no response")
				return reliable.Permanent(fmt.Errorf("registry: source returned no response"))
			}
			return nil
		})
		if err != nil || retrier.Retries() > 0 {
			// Release what a failed attempt may have left: the target's
			// half-filled session and the source's held render. A clean
			// run holds neither, so the happy path adds no call.
			cs.Call("EndSession", sessionReq("EndSession", session))
		}
		if err != nil {
			ct.Call("EndSession", sessionReq("EndSession", session))
		}
		return reply, err
	}

	session := reliable.NewSessionID(cfg.Seed)
	reply, err := run(session, base)
	if err != nil && (soap.IsColdDelta(err) || soap.IsRenderGone(err)) {
		if soap.IsColdDelta(err) {
			// The target lost its base between the probe and the delivery
			// (sweep, restart or a raced exchange): re-run the source
			// without a base and ship the full snapshot.
			opts.Metrics.Counter("exchange.delta.fallbacks").Inc()
			log.Log(obs.LevelWarn, "delta fell back to full re-ship: target base cold", "exchange", exchange, "service", service)
			base = ""
		} else {
			log.Log(obs.LevelWarn, "source lost the delivery's render: restarting on a fresh session", "exchange", exchange, "service", service)
		}
		// A fresh session: the dead one's ledger state must not skip
		// chunks of a differently-numbered shipment.
		session = reliable.NewSessionID(cfg.Seed)
		reply, err = run(session, base)
	}
	report.Retries = retrier.Retries()
	if err != nil {
		return report, fmt.Errorf("registry: exchange: %w", err)
	}
	// The response is in hand, so the target's session state (ledger,
	// stored replay response) has served its purpose; release it now
	// rather than holding it for the store's full idle window. Best
	// effort — the target's sweeper collects it if this call is lost.
	commit := trace.Child("commit")
	ct.Call("EndSession", sessionReq("EndSession", session))
	commit.End()
	switch report.read(reply) {
	case "cold":
		opts.Metrics.Counter("exchange.delta.cold").Inc()
	case "unkeyed":
		// Records without IDs cannot be reconciled; this shipment shape is
		// never delta-able.
		opts.Metrics.Counter("exchange.delta.unkeyed").Inc()
		log.Log(obs.LevelInfo, "delta disabled: shipment carries records without IDs", "exchange", exchange, "service", service)
	}
	if report.Delta {
		opts.Metrics.Counter("exchange.delta.exchanges").Inc()
		opts.Metrics.Counter("exchange.delta.records").Add(int64(report.DeltaRecords))
		opts.Metrics.Counter("exchange.delta.tombstones").Add(int64(report.TombstoneRecords))
	}
	report.ShipTime = opts.Link.TransferTime(report.WireBytes)
	return report, nil
}

// sourceReply reads the source's answer: its <timing> and the target's
// response inside.
type sourceReply struct {
	ok             bool // the answer was an ExecuteSourceResponse
	timing, target []xmltree.Attr
}

// StartElement implements xmltree.AttrHandler.
func (r *sourceReply) StartElement(name string, attrs []xmltree.Attr) error {
	switch name {
	case "ExecuteSourceResponse":
		r.ok = true
	case "timing":
		r.timing = append(r.timing[:0], attrs...)
	case "ExecuteTargetResponse":
		r.target = append(r.target[:0], attrs...)
	}
	return nil
}

// Text implements xmltree.AttrHandler.
func (r *sourceReply) Text(string) error { return nil }

// EndElement implements xmltree.AttrHandler.
func (r *sourceReply) EndElement(string) error { return nil }

// attrOf returns the named attribute of a list, "" when absent.
func attrOf(attrs []xmltree.Attr, name string) string {
	for _, a := range attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// read fills the report from the source's answer: its <timing> and the
// target's response — or, when the source's answer was lost after the
// target executed, the target's stored response alone. It returns the
// source's reconciliation outcome on a delta exchange: "1" for a delta,
// "cold" or "unkeyed" for a full snapshot.
func (r *Report) read(reply *sourceReply) string {
	timing, target := reply.timing, reply.target
	r.SourceTime = endpoint.ParseMillis(attrOf(timing, "queryMillis"))
	r.WireBytes, _ = strconv.ParseInt(attrOf(timing, "wireBytes"), 10, 64)
	outcome := attrOf(timing, "delta")
	r.Delta = outcome == "1"
	r.DeltaRecords, _ = strconv.Atoi(attrOf(timing, "records"))
	r.TombstoneRecords, _ = strconv.Atoi(attrOf(timing, "tombstones"))
	r.TargetTime = endpoint.ParseMillis(attrOf(target, "execMillis"))
	r.WriteTime = endpoint.ParseMillis(attrOf(target, "writeMillis"))
	r.IndexTime = endpoint.ParseMillis(attrOf(target, "indexMillis"))
	r.DeclinedChunks, _ = strconv.ParseInt(attrOf(target, "declined"), 10, 64)
	return outcome
}

// probe asks the target where a delivery session stands.
func probe(ct *soap.Client, at *obs.Span, session string) (*xmltree.Node, error) {
	sp := at.Child("probe")
	defer sp.End()
	st, err := ct.Call("SessionStatus", sessionReq("SessionStatus", session))
	if err == nil && st == nil {
		err = fmt.Errorf("registry: empty SessionStatus answer")
	}
	if err != nil {
		return nil, err
	}
	v, _ := st.Attr("next")
	sp.Set("next", v)
	return st, nil
}

// deltaEpoch fingerprints the fragmentation agreement a reconciliation
// index is valid under: both parties' fragment signatures (and URLs). Any
// re-registration that changes a fragment set or endpoint changes the
// epoch, and both sides fall back to a full re-ship. The filter expression
// is deliberately NOT part of the epoch: a changed filter surfaces as
// adds/deletes in the content diff, which is exactly what a delta ships.
func deltaEpoch(src, tgt *Party) string {
	var b strings.Builder
	writeFragSig(&b, src)
	b.WriteByte('\x1f')
	writeFragSig(&b, tgt)
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return strconv.FormatUint(h.Sum64(), 16)
}

// targetDeltaBase asks the target which delivery session's snapshot it
// holds for the stream at this epoch. Any failure reads as cold (""): the
// source then ships the full snapshot, which is always correct.
func targetDeltaBase(ct *soap.Client, stream, epoch string) string {
	req := &xmltree.Node{Name: "DeltaStatus"}
	req.SetAttr("stream", stream)
	req.SetAttr("epoch", epoch)
	resp, err := ct.Call("DeltaStatus", req)
	if err != nil || resp == nil {
		return ""
	}
	v, _ := resp.Attr("base")
	return v
}

// sessionReq builds a SessionStatus probe or an EndSession release (op)
// for a session.
func sessionReq(op, id string) *xmltree.Node {
	req := &xmltree.Node{Name: op}
	req.SetAttr("session", id)
	return req
}

// resumePoint interprets a SessionStatus reply as the chunk to resume
// emission from. The reported checkpoint is adopted unconditionally —
// even when it is lower than what a previous attempt acked: a target
// that lost the session in between (idle sweep, endpoint restart)
// answers known="0" with a zero checkpoint, and resending chunks it
// already committed is safe (its ledger declines them), whereas skipping
// chunks a reset ledger never saw would drop records — which is why a
// target refuses a delivery that starts past its checkpoint. An
// unparsable checkpoint resumes from zero for the same reason.
func resumePoint(st *xmltree.Node) int64 {
	if st == nil {
		return 0
	}
	if v, _ := st.Attr("known"); v == "0" {
		return 0
	}
	v, _ := st.Attr("next")
	n, perr := strconv.ParseInt(v, 10, 64)
	if perr != nil || n < 0 {
		return 0
	}
	return n
}

// storedResponse returns the target's stored ExecuteTargetResponse a
// SessionStatus reply carries once the session executed, else nil.
func storedResponse(st *xmltree.Node) *xmltree.Node {
	if st == nil {
		return nil
	}
	if v, _ := st.Attr("done"); v != "1" {
		return nil
	}
	for _, k := range st.Kids {
		if k.Name == "ExecuteTargetResponse" {
			return k
		}
	}
	return nil
}
