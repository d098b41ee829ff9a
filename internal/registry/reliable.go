package registry

// The exchange driver. There is one way to drive an exchange, and it goes
// through internal/reliable whether or not the caller asked for retries:
//
//   - the source call streams the shipment back and is retried wholesale
//     under backoff — it is idempotent (the source recomputes its slice),
//     so each attempt restarts the relay's capture;
//   - the target delivery is a resumable session: the shipment travels as
//     seq-numbered chunks, a torn delivery is resumed from the chunk
//     checkpoint the target acked via SessionStatus, and the target's
//     ledger declines any chunk it already holds, so the loaded instances
//     are byte-identical to a fault-free run;
//   - every attempt passes the endpoint's circuit breaker, and the whole
//     exchange shares one retry budget and deadline;
//   - a delta exchange adds attributes, not a path: the target names the
//     session whose snapshot it holds, the source diffs against exactly
//     that snapshot or ships in full, and a target that lost its base
//     answers xdx:ColdDelta, which re-runs the source without one.
//
// An exchange without ExecOptions.Reliability runs the same protocol under
// a single-attempt policy: one source call, one sessioned delivery, and any
// failure ends it.

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"

	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// wireExchangeObs registers the retry and breaker hooks of one exchange
// onto the options' observability sinks. A shared breaker set (one the
// caller passed in via Config.Breakers) is left alone — its owner wires
// it once, so per-exchange callbacks don't stack up.
func wireExchangeObs(ex *reliable.Exchange, opts ExecOptions) {
	met, log := opts.Metrics, obs.OrNop(opts.Logger)
	if met == nil && opts.Logger == nil {
		return
	}
	ex.Retrier().OnRetry = func(op string, try int, delay time.Duration, err error) {
		met.Counter("exchange.retries").Inc()
		log.Log(obs.LevelWarn, "retrying call",
			"op", op, "try", try, "delayMillis", delay.Milliseconds(), "err", err.Error())
	}
	if !ex.SharedBreakers() {
		ex.Breakers().OnStateChange(func(url string, from, to reliable.BreakerState) {
			met.Counter("exchange.breaker.transitions").Inc()
			log.Log(obs.LevelInfo, "breaker state change",
				"url", url, "from", from.String(), "to", to.String())
		})
	}
}

// drive runs an exchange end-to-end under opts.Reliability (ExecuteOpts
// has resolved nil to the single-attempt config): retried source
// execution, resumable chunked target delivery. A delta exchange is the
// same drive: the target names the snapshot it holds, the source diffs
// against it, and the agency relays whatever the source wrote.
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
	trace := obs.NewSpan("exchange")
	trace.Set("service", service)
	report := &Report{Plan: plan, Codec: codec.String(), Trace: trace}
	ex := reliable.NewExchange(opts.Reliability)
	wireExchangeObs(ex, opts)
	log := obs.OrNop(opts.Logger)

	reqS := &xmltree.Node{Name: "ExecuteSource"}
	if opts.Filter != "" {
		reqS.SetAttr("filter", opts.Filter)
	}
	reqS.SetAttr("chunk", strconv.Itoa(ex.ChunkSize()))
	ct := ex.Client(tgt.URL)
	stream, epoch, base := service, deltaEpoch(src, tgt), ""
	if opts.Delta {
		// The source reconciles against the snapshot the target holds, so
		// it learns the stream, the epoch and that snapshot's session.
		reqS.SetAttr("stream", stream)
		reqS.SetAttr("epoch", epoch)
		base = targetDeltaBase(ct, stream, epoch)
	}
	reqS.AddKid(progXML)

	// Phase 1: source execution, retried wholesale. The source recomputes
	// its slice on every attempt, so each try restarts the capture and a
	// torn partial shipment never reaches the target.
	ship := wire.NewRelay()
	defer ship.Release()
	var scanS *sourceCapture
	cs := ex.Client(src.URL)
	advertise(cs, codec)
	execSource := func(session, base string) error {
		if opts.Delta {
			reqS.SetAttr("session", session)
			reqS.SetAttr("base", base)
		}
		srcSpan := trace.Child("source")
		defer srcSpan.End()
		err := ex.Do("ExecuteSource", src.URL, func(try int) error {
			at := srcSpan.Child("attempt")
			at.Set("try", strconv.Itoa(try))
			defer at.End()
			ship.Reset()
			scanS = &sourceCapture{relay: ship}
			if err := cs.CallStream("ExecuteSource", func(w io.Writer) error {
				return xmltree.Write(w, reqS, xmltree.WriteOptions{EmitAllIDs: true})
			}, scanS); err != nil {
				at.Set("err", err.Error())
				return err
			}
			if !scanS.sawShipment {
				at.Set("err", "no shipment")
				return reliable.Permanent(fmt.Errorf("registry: source returned no shipment"))
			}
			return nil
		})
		if err != nil {
			report.Retries = ex.Retries()
			return fmt.Errorf("registry: source execution: %w", err)
		}
		if scanS.codec != "" {
			// What the source answered is what travels on both hops.
			report.Codec = scanS.codec
			if _, err = wire.ParseCodec(scanS.codec); err != nil {
				return fmt.Errorf("registry: source execution: %w", err)
			}
		}
		report.SourceTime = endpoint.ParseMillis(scanS.queryMillis)
		report.PayloadBytes, _ = strconv.ParseInt(scanS.payloadBytes, 10, 64)
		report.Delta = scanS.delta == "1"
		report.DeltaRecords, _ = strconv.Atoi(scanS.deltaRecords)
		report.TombstoneRecords, _ = strconv.Atoi(scanS.tombstones)
		return nil
	}

	// Phase 2: resumable target delivery. The chunks travel as the source
	// wrote them; each redelivery first asks the target which chunk it
	// acked last and resumes there.
	deliver := func(sessionID string) (*xmltree.Node, error) {
		open := `<ExecuteTarget session="` + sessionID + `"`
		if opts.Delta {
			// Every sessioned delivery of a delta-enabled exchange names its
			// stream and epoch, so the target retains the applied snapshot
			// as the base the next delta patches.
			open += ` stream="` + attrEscape(stream) + `" epoch="` + epoch + `"`
		}
		if report.Delta {
			open += ` delta="1" base="` + attrEscape(base) + `"`
		}
		open += `>`
		var respT *xmltree.Node
		delSpan := trace.Child("deliver")
		defer delSpan.End()
		delSpan.Set("session", sessionID)
		delSpan.Set("chunks", strconv.Itoa(ship.Len()))
		if report.Delta {
			delSpan.Set("delta", "1")
		}
		next := int64(0)
		err := ex.Do("ExecuteTarget", tgt.URL, func(try int) error {
			at := delSpan.Child("attempt")
			at.Set("try", strconv.Itoa(try))
			defer at.End()
			if try > 0 {
				probe := at.Child("probe")
				next = resumePoint(ct.Call("SessionStatus", sessionStatusReq(sessionID)))
				probe.Set("next", strconv.FormatInt(next, 10))
				probe.End()
				if next > 0 {
					report.Resumes++
					opts.Metrics.Counter("exchange.resumes").Inc()
				}
			}
			tb := &xmltree.TreeBuilder{}
			if err := ct.CallStream("ExecuteTarget", func(w io.Writer) error {
				if _, err := io.WriteString(w, open); err != nil {
					return err
				}
				if err := xmltree.Write(w, progXML, xmltree.WriteOptions{EmitAllIDs: true}); err != nil {
					return err
				}
				m := netsim.NewMeter(w)
				// Accumulated on every exit path: an attempt torn mid-chunk
				// still spent its bytes on the wire, and WireBytes counts the
				// retransmission cost across all attempts.
				defer func() { report.WireBytes += m.Bytes() }()
				if err := ship.WriteShipment(m, next, report.Delta); err != nil {
					return err
				}
				_, err := io.WriteString(w, `</ExecuteTarget>`)
				return err
			}, tb); err != nil {
				at.Set("err", err.Error())
				if soap.IsColdDelta(err) {
					// The target has no base to patch; no retry of this
					// session can warm it. Surface to the re-run below.
					return reliable.Permanent(err)
				}
				return err
			}
			if tb.Root() == nil || tb.Root().Name != "ExecuteTargetResponse" {
				at.Set("err", "no response")
				return reliable.Permanent(fmt.Errorf("registry: target returned no response"))
			}
			respT = tb.Root()
			return nil
		})
		if err != nil {
			// Given up: release the half-filled session now rather than leave
			// it to the target's idle sweeper.
			ct.Call("EndSession", endSessionReq(sessionID))
			return nil, err
		}
		// The response is in hand, so the target's session state (ledger,
		// stored replay response) has served its purpose; release it now
		// rather than holding it for the store's full idle window. Best
		// effort — the target's sweeper collects it if this call is lost.
		commit := trace.Child("commit")
		ct.Call("EndSession", endSessionReq(sessionID))
		commit.End()
		return respT, nil
	}

	session := ex.SessionID()
	if err := execSource(session, base); err != nil {
		return report, err
	}
	switch scanS.delta {
	case "cold":
		opts.Metrics.Counter("exchange.delta.cold").Inc()
	case "unkeyed":
		// Records without IDs cannot be reconciled; this shipment shape is
		// never delta-able.
		opts.Metrics.Counter("exchange.delta.unkeyed").Inc()
		log.Log(obs.LevelInfo, "delta disabled: shipment carries records without IDs", "service", service)
	}
	respT, err := deliver(session)
	if err != nil && soap.IsColdDelta(err) {
		// The target lost its base between the probe and the delivery
		// (sweep, restart or a raced exchange). Re-run the source without a base
		// and ship the full snapshot on a fresh session — the dead
		// session's ledger state must not skip chunks of a
		// differently-numbered shipment.
		opts.Metrics.Counter("exchange.delta.fallbacks").Inc()
		log.Log(obs.LevelWarn, "delta fell back to full re-ship: target base cold", "service", service)
		session = ex.SessionID()
		if err := execSource(session, ""); err != nil {
			return report, err
		}
		respT, err = deliver(session)
	}
	report.Retries = ex.Retries()
	if err != nil {
		return report, fmt.Errorf("registry: target execution: %w", err)
	}
	if report.Delta {
		opts.Metrics.Counter("exchange.delta.exchanges").Inc()
		opts.Metrics.Counter("exchange.delta.records").Add(int64(report.DeltaRecords))
		opts.Metrics.Counter("exchange.delta.tombstones").Add(int64(report.TombstoneRecords))
	}
	report.ShipTime = opts.Link.TransferTime(report.WireBytes)
	if v, ok := respT.Attr("execMillis"); ok {
		report.TargetTime = endpoint.ParseMillis(v)
	}
	if v, ok := respT.Attr("writeMillis"); ok {
		report.WriteTime = endpoint.ParseMillis(v)
	}
	if v, ok := respT.Attr("indexMillis"); ok {
		report.IndexTime = endpoint.ParseMillis(v)
	}
	if v, ok := respT.Attr("declined"); ok {
		report.DeclinedChunks, _ = strconv.ParseInt(v, 10, 64)
	}
	return report, nil
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

// attrEscape escapes a string for embedding in a double-quoted XML
// attribute of a hand-built open tag.
var attrEscape = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace

// sessionStatusReq builds a SessionStatus probe for a session.
func sessionStatusReq(id string) *xmltree.Node {
	req := &xmltree.Node{Name: "SessionStatus"}
	req.SetAttr("session", id)
	return req
}

// endSessionReq builds the EndSession release for a session.
func endSessionReq(id string) *xmltree.Node {
	req := &xmltree.Node{Name: "EndSession"}
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
// target refuses a delivery that starts past its checkpoint. A failed or
// unparsable probe resumes from zero for the same reason.
func resumePoint(st *xmltree.Node, err error) int64 {
	if err != nil || st == nil {
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
