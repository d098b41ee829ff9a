package endpoint

// Execution handlers. Both execute operations dispatch through the SOAP
// server's streaming path, so the endpoint never materializes an envelope:
//
//   - ExecuteSource consumes the (small) request tree, runs the source
//     slice, and delivers the outbound shipment itself: it serializes it,
//     chunk by chunk, straight onto an ExecuteTarget request to the target
//     the agency named, and answers with the target's response — the
//     agency coordinates and never carries the data.
//   - ExecuteTarget scans its (large) request as SAX events: the program
//     subtree is materialized, the shipment subtree flows straight into
//     the session's shipment decoder (see session.go), and the envelope
//     tree is never built.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"xdx/internal/core"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// attrTrue reports whether a flag attribute is set.
func attrTrue(v string) bool { return v == "1" || v == "true" }

// findAttr returns the named attribute from a reused scan-attrs slice.
func findAttr(attrs []xmltree.Attr, name string) string {
	for _, a := range attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// executeSource is the stream dispatch for ExecuteSource: the request tree
// is materialized, the shipment streams to the target.
func (e *Endpoint) executeSource(env soap.Header, attrs []xmltree.Attr) (xmltree.AttrHandler, soap.RespondFunc, error) {
	tb := &xmltree.TreeBuilder{}
	return tb, func(w io.Writer) error { return e.respondSource(env, tb.Root(), w) }, nil
}

// delivery is what an ExecuteSource request asks of the source besides
// running its slice: the target to deliver to, the delivery session the
// agency minted there, the codec to ship in, the chunk size, and the chunk
// to start from — the target's checkpoint on a resumed delivery. A delta
// exchange adds its stream, epoch and the base the target holds.
type delivery struct {
	target, session     string
	stream, epoch, base string
	codec               wire.Codec
	chunk               int
	from                int64
}

// parseDelivery checks an ExecuteSource request's delivery contract before
// anything is scanned: the target must be an absolute http or https URL —
// a source dials nothing else — the session non-empty, the codec one
// wire.ParseCodec names (absent is xml), the chunk size positive and the
// first chunk non-negative. Anything else is the caller's fault.
func parseDelivery(req *xmltree.Node) (delivery, error) {
	var d delivery
	d.target, _ = req.Attr("target")
	d.session, _ = req.Attr("session")
	d.stream, _ = req.Attr("stream")
	d.epoch, _ = req.Attr("epoch")
	d.base, _ = req.Attr("base")
	refuse := func(why string) (delivery, error) {
		return d, &soap.Fault{Code: "soap:Client", String: why}
	}
	if u, err := url.Parse(d.target); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return refuse("target must be an absolute http or https URL")
	}
	if d.session == "" {
		return refuse("ExecuteSource without session id")
	}
	v, _ := req.Attr("codec")
	codec, err := wire.ParseCodec(v)
	if err != nil {
		return refuse(err.Error())
	}
	d.codec = codec
	v, _ = req.Attr("chunk")
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return refuse("chunk must be a positive integer")
	}
	d.chunk = n
	if v, ok := req.Attr("from"); ok {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return refuse("from must be a non-negative integer")
		}
		d.from = n
	}
	return d, nil
}

// sourceRender is what one execution of the source slice produced for a
// delivery session: the outbound records (a delta's changed records), a
// delta's tombstones, and the reconciliation outcome the agency reads on
// <timing>. Every attempt of the session ships its chunks from this one
// render, so a resumed delivery completes exactly the shipment its first
// attempt began. A Scan that only ships its fragment is held as a snapshot
// of the store's rows, not as trees: each chunk's records are built as the
// chunk is encoded, and the rows a snapshot holds never change.
type sourceRender struct {
	ship     map[string]core.Outbound
	tombs    map[string][]string
	tombKeys []string // tombs' keys, sorted: their chunks' order
	delta    bool
	outcome  string
	query    time.Duration
	wire     atomic.Int64 // shipment bytes written across every attempt
}

// respondSource executes the source slice — scans plus the operations
// placed at this system — and delivers the cross-edge shipment straight
// to the target: it opens ExecuteTarget there, streams its chunks into
// that request, and answers with its <timing> and the target's response.
// The render is held under the delivery session while attempts may
// follow: a failed delivery keeps it for the agency's resume, which
// re-emits the chunks from the target's checkpoint on; success, a
// permanent failure, EndSession or the idle sweep drops it.
func (e *Endpoint) respondSource(env soap.Header, req *xmltree.Node, w io.Writer) error {
	d, err := parseDelivery(req)
	if err != nil {
		return err
	}
	prog := programChild(req)
	if prog == nil {
		return &soap.Fault{Code: "soap:Client", String: "missing program"}
	}
	g, a, err := wire.DecodeProgram(prog, e.backend.Layout().Schema)
	if err != nil {
		return err
	}
	s := e.renders.GetOrCreate(d.session)
	s.Mu.Lock()
	r, _ := s.Data.(*sourceRender)
	if r == nil && d.from > 0 {
		err = soap.RenderGoneFault(fmt.Sprintf("session %s resumes at chunk %d", d.session, d.from))
	} else if r == nil {
		r, err = e.renderSource(req, g, a, d)
		s.Data = r
	}
	s.Mu.Unlock()
	if err != nil {
		e.renders.Delete(d.session)
		return err
	}
	resp, payload, err := e.deliver(env.Exchange, d, prog, r)
	if err != nil {
		retry := reliable.Retryable(err)
		if retry {
			e.log.Log(obs.LevelWarn, "target delivery failed; render held for resume",
				"exchange", env.Exchange, "session", d.session, "from", d.from, "err", err.Error())
		} else {
			e.renders.Delete(d.session)
		}
		return hopFault(err, retry)
	}
	e.renders.Delete(d.session)
	if e.log.Enabled(obs.LevelDebug) {
		e.log.Log(obs.LevelDebug, "source delivered", "exchange", env.Exchange, "endpoint", e.Name,
			"session", d.session, "from", d.from, "wireBytes", r.wire.Load())
	}
	b := make([]byte, 0, 512)
	b = append(b, `<ExecuteSourceResponse><timing queryMillis="`...)
	b = append(append(b, formatMillis(r.query)...), `" payloadBytes="`...)
	b = append(strconv.AppendInt(b, payload, 10), `" wireBytes="`...)
	b = append(strconv.AppendInt(b, r.wire.Load(), 10), '"')
	if env.Exchange != "" {
		b = append(append(append(b, ` exchange="`...), attrEscape(env.Exchange)...), '"')
	}
	b = append(append(b, r.outcome...), `/><ExecuteTargetResponse`...)
	for _, a := range resp {
		b = append(append(append(append(append(b, ' '), a.Name...), `="`...), attrEscape(a.Value)...), '"')
	}
	b = append(b, `/></ExecuteSourceResponse>`...)
	_, err = w.Write(b)
	return err
}

// targetReply keeps the attributes of the target's ExecuteTargetResponse,
// which the source's answer carries on to the agency.
type targetReply struct {
	ok    bool
	attrs []xmltree.Attr
}

// StartElement implements xmltree.AttrHandler.
func (r *targetReply) StartElement(name string, attrs []xmltree.Attr) error {
	if name == "ExecuteTargetResponse" {
		r.ok, r.attrs = true, append(r.attrs[:0], attrs...)
	}
	return nil
}

// Text implements xmltree.AttrHandler.
func (r *targetReply) Text(string) error { return nil }

// EndElement implements xmltree.AttrHandler.
func (r *targetReply) EndElement(string) error { return nil }

// renderSource executes the source slice for a delivery session and, on a
// delta exchange (a request naming a stream), reconciles its outbound
// records. The source diffs them against the entry of the base the target
// holds, hashing each record once (reliable.DiffShipment), and files the
// fresh hashes under the delivery's session, keeping that base's entry in
// case this delivery never lands (reliable.ReconIndex.Render). When its
// index held that base at this epoch the render is the diff: changed
// records, then each edge's tombstones in sorted-key order, numbered after
// them so the session ledger checkpoints deletions like any chunk.
// Otherwise it is the full snapshot.
func (e *Endpoint) renderSource(req *xmltree.Node, g *core.Graph, a core.Assignment, d delivery) (*sourceRender, error) {
	scan, rows, err := e.sourceScan(req, g, a)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out, _, err := core.ExecuteSlice(g, e.backend.Layout().Schema, a, core.LocSource, core.SliceIO{Scan: scan})
	if err != nil {
		return nil, err
	}
	r := &sourceRender{ship: make(map[string]core.Outbound, len(out))}
	for key, in := range out {
		o := core.Outbound{Frag: in.Frag, Recs: in}
		if snap := rows[in.Frag]; snap != nil {
			o.Recs = snap
		}
		r.ship[key] = o
	}
	if d.stream != "" {
		held := e.recon.Held(d.stream, d.epoch, d.base)
		var prev map[string]reliable.EdgeHashes
		if held != nil {
			prev = held.Edges
		}
		diff, err := reliable.DiffRecords(r.ship, prev)
		if err != nil {
			return nil, err
		}
		// Between Held and Render another exchange may have replaced base's
		// entry; the diff stands only if the entry kept is the one it read.
		switch {
		case diff.Unkeyed:
			// Records without IDs cannot be diffed or tombstoned.
			r.outcome = ` delta="unkeyed"`
		case e.recon.Render(d.stream, d.epoch, d.session, d.base, diff.Fresh) != held || held == nil:
			r.outcome = ` delta="cold"`
		default:
			r.ship, r.tombs, r.delta = diff.Out, diff.Tombs, true
			for k := range diff.Tombs {
				r.tombKeys = append(r.tombKeys, k)
			}
			sort.Strings(r.tombKeys)
			r.outcome = fmt.Sprintf(` delta="1" records="%d" tombstones="%d"`, diff.Records, diff.Tombstones)
		}
	}
	r.query = time.Since(start)
	e.met.Counter("endpoint.source.executes").Inc()
	e.met.Histogram("endpoint.source.millis").Observe(float64(r.query) / float64(time.Millisecond))
	return r, nil
}

// deliver opens ExecuteTarget on the delivery's target and streams the
// render's chunks with seq >= from into it: the session, stream, epoch and
// delta attributes, the program, then the shipment as the ShipmentWriter
// cuts and numbers it. It returns the target's response attributes and the
// shipment's tree-codec size, and adds the bytes inside <shipment> to the
// render's wire count, torn attempts too.
func (e *Endpoint) deliver(exchange string, d delivery, prog *xmltree.Node, r *sourceRender) ([]xmltree.Attr, int64, error) {
	open := `<ExecuteTarget session="` + attrEscape(d.session) + `"`
	if d.stream != "" {
		// Every delivery of a delta-enabled exchange names its stream and
		// epoch, so the target records its rows as the base the next delta
		// applies to.
		open += ` stream="` + attrEscape(d.stream) + `" epoch="` + attrEscape(d.epoch) + `"`
	}
	if r.delta {
		open += ` delta="1" base="` + attrEscape(d.base) + `"`
	}
	open += `>`
	sch := e.backend.Layout().Schema
	c := &soap.Client{URL: d.target, Logger: e.log, Metrics: e.met, Exchange: exchange}
	var payload int64
	reply := &targetReply{}
	err := c.CallStream("ExecuteTarget", func(w io.Writer) error {
		if _, err := io.WriteString(w, open); err != nil {
			return err
		}
		if err := xmltree.Write(w, prog, xmltree.WriteOptions{EmitAllIDs: true}); err != nil {
			return err
		}
		m := netsim.NewMeter(w)
		defer func() { r.wire.Add(m.Bytes()) }()
		sw := wire.NewShipmentWriterCodec(m, sch, d.codec)
		sw.SetObs(e.met)
		sw.SetChunk(d.chunk, d.from)
		sw.SetDelta(r.delta)
		err := wire.EmitShipment(sw, r.ship)
		for _, key := range r.tombKeys {
			if err == nil {
				err = sw.EmitTombstones(key, r.tombs[key], 0) // sw numbers it
			}
		}
		if cerr := sw.Close(); err == nil {
			err = cerr
		}
		payload = sw.PayloadBytes()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, `</ExecuteTarget>`)
		return err
	}, reply)
	if err == nil && !reply.ok {
		err = reliable.Permanent(fmt.Errorf("endpoint %s: target returned no response", e.Name))
	}
	return reply.attrs, payload, err
}

// hopFault answers the agency for a failed target hop. A fault the target
// sent travels on unchanged — code, strings and HTTP status — so its
// ColdDelta reaches the agency's fallback and its client faults stay
// final; any other failure becomes a 502 when retry says the agency's
// policy may resume it, a 500 when not.
func hopFault(err error, retry bool) error {
	var f *soap.Fault
	if errors.As(err, &f) {
		return &soap.Fault{Code: f.Code, String: f.String, Detail: f.Detail, HTTPStatus: f.HTTPStatus}
	}
	status := http.StatusInternalServerError
	if retry {
		status = http.StatusBadGateway
	}
	return &soap.Fault{Code: "soap:Server", String: "target delivery failed", Detail: err.Error(), HTTPStatus: status}
}

// attrEscape escapes a string for embedding in a double-quoted XML
// attribute of a hand-built open tag.
var attrEscape = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace

// executeTarget is the stream dispatch for ExecuteTarget: one SAX pass
// over the request, program tree materialized, shipment decoded
// incrementally. Every delivery is a session — the ledger is what makes a
// retried request load once — so a request without one is rejected before
// anything is decoded.
func (e *Endpoint) executeTarget(env soap.Header, attrs []xmltree.Attr) (xmltree.AttrHandler, soap.RespondFunc, error) {
	id := findAttr(attrs, "session")
	if id == "" {
		return nil, nil, &soap.Fault{Code: "soap:Client", String: "ExecuteTarget without session id"}
	}
	h := &targetScan{e: e, session: id, exchange: env.Exchange, ts: e.targetSessionFor(id, env.Exchange)}
	return h, h.respondSession, nil
}

// targetScan routes an ExecuteTarget request's subtrees: <program> into a
// tree builder (programs are small), <shipment> into the streaming
// session's shipment decoder, which restores interior PARENT links as
// elements arrive.
type targetScan struct {
	e *Endpoint

	depth int
	skip  int

	sub      xmltree.AttrHandler
	subDepth int
	subProg  bool

	session     string
	exchange    string
	stream      string
	epoch       string
	base        string
	delta       bool
	ts          *targetSession
	tb          *xmltree.TreeBuilder
	dec         *wire.ShipmentDecoder
	g           *core.Graph
	a           core.Assignment
	sawShipment bool
}

// StartElement implements xmltree.AttrHandler.
func (t *targetScan) StartElement(name string, attrs []xmltree.Attr) error {
	if t.skip > 0 {
		t.skip++
		return nil
	}
	if t.sub != nil {
		t.subDepth++
		return chunkFault(t.sub.StartElement(name, attrs))
	}
	t.depth++
	switch t.depth {
	case 1:
		t.stream = findAttr(attrs, "stream")
		t.epoch = findAttr(attrs, "epoch")
		t.base = findAttr(attrs, "base")
		t.delta = attrTrue(findAttr(attrs, "delta"))
		if !t.delta {
			break
		}
		if b := t.e.heldBase(t.stream, t.epoch); b == nil || b.session != t.base && b.session != t.session {
			// Fail the delivery before any chunk flows: a delta diffed
			// against any snapshot but the one held here cannot be
			// applied, and the agency's fallback is a full reship on a
			// fresh session. A retry of a delivery that already ran (its
			// response was lost) passes: the held base is then its own,
			// and respondSession replays the stored response.
			return t.coldDelta()
		}
	case 2:
		switch name {
		case "program":
			t.tb = &xmltree.TreeBuilder{}
			t.sub, t.subDepth, t.subProg = t.tb, 1, true
			return t.tb.StartElement(name, attrs)
		case "shipment":
			if t.dec == nil {
				return &soap.Fault{Code: "soap:Client", String: "shipment before program"}
			}
			t.sawShipment = true
			t.sub, t.subDepth, t.subProg = t.dec, 1, false
			return chunkFault(t.dec.StartElement(name, attrs))
		default:
			t.depth--
			t.skip = 1
		}
	}
	return nil
}

// coldDelta counts and returns the xdx:ColdDelta fault for a delta this
// target holds no matching base for.
func (t *targetScan) coldDelta() error {
	t.e.met.Counter("endpoint.delta.cold").Inc()
	return soap.ColdDeltaFault("stream " + t.stream + " epoch " + t.epoch + " base " + t.base)
}

// chunkFault makes the decoder's refusal of an oversized, out-of-sequence
// or unknown-format chunk the sender's fault: a soap:Client fault, which no
// driver retries.
func chunkFault(err error) error {
	if errors.Is(err, wire.ErrChunkTooLarge) || errors.Is(err, wire.ErrChunkOrder) || errors.Is(err, wire.ErrChunkFormat) {
		return &soap.Fault{Code: "soap:Client", String: err.Error()}
	}
	return err
}

// Text implements xmltree.AttrHandler.
func (t *targetScan) Text(data string) error {
	if t.skip > 0 || t.sub == nil {
		return nil
	}
	return chunkFault(t.sub.Text(data))
}

// TextBytes implements xmltree.TextBytesHandler: shipment character data
// (dominant in an ExecuteTarget request — the base64 bodies of binary
// chunks flow through here) reaches the decoder without a string per
// event; the program tree builder takes the plain path.
func (t *targetScan) TextBytes(data []byte) error {
	if t.skip > 0 || t.sub == nil {
		return nil
	}
	if tb, ok := t.sub.(xmltree.TextBytesHandler); ok {
		return chunkFault(tb.TextBytes(data))
	}
	return t.sub.Text(string(data))
}

// EndElement implements xmltree.AttrHandler.
func (t *targetScan) EndElement(name string) error {
	switch {
	case t.skip > 0:
		t.skip--
	case t.sub != nil:
		t.subDepth--
		sub := t.sub
		if t.subDepth == 0 {
			t.sub = nil
			t.depth--
		}
		// A chunk parses as its element closes (or, pooled, as a later
		// one does), so an inflated chunk's size fault surfaces here.
		if err := sub.EndElement(name); err != nil {
			return chunkFault(err)
		}
		if t.sub == nil && t.subProg {
			return t.programDone()
		}
	default:
		t.depth--
	}
	return nil
}

// programDone decodes the completed program subtree and prepares the
// shipment decoder with the program's fragment dictionary.
func (t *targetScan) programDone() error {
	g, a, err := wire.DecodeProgram(t.tb.Root(), t.e.backend.Layout().Schema)
	if err != nil {
		return err
	}
	t.g, t.a = g, a
	frags := g.FragmentsByName()
	// Decode into the session's accumulating map, with the ledger guarding
	// chunk admission.
	t.dec, err = t.ts.decoder(t.e.backend.Layout().Schema, func(name string) *core.Fragment { return frags[name] })
	if err != nil {
		return err
	}
	t.dec.Met = t.e.met
	return nil
}

// runTarget executes the target slice over decoded inbound instances and
// reports the timing split the agency's cost model is validated against.
func (e *Endpoint) runTarget(exchange string, g *core.Graph, a core.Assignment, inbound map[string]*core.Instance) (*xmltree.Node, error) {
	var writeTime time.Duration
	start := time.Now()
	_, _, err := core.ExecuteSlice(g, e.backend.Layout().Schema, a, core.LocTarget, core.SliceIO{
		Inbound: inbound,
		Write: func(in *core.Instance) error {
			ws := time.Now()
			err := e.backend.Write(in)
			writeTime += time.Since(ws)
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	execTime := time.Since(start) - writeTime
	is := time.Now()
	if err := e.backend.BuildIndexes(); err != nil {
		return nil, err
	}
	return e.targetResponse(exchange, start, execTime, writeTime, time.Since(is)), nil
}

// applyDelta lands the session's delta shipment as row edits on the rows
// of the base it was diffed against (see relstore.Store.ApplyDelta), which
// it takes (see takeBase), and returns the store generation the rows then
// hold the session's snapshot at: the edges' shipped records and
// tombstones, with no target slice run. A base the rows no longer hold —
// replaced, reloaded, taken by an overlapping delta or gone since the
// delivery started — and a delta that does not fit them fault ColdDelta
// before any row changes, and the agency reships in full. The whole apply
// is the store write: there is no slice, and the index upkeep is part of
// each row edit.
func (t *targetScan) applyDelta() (*xmltree.Node, uint64, error) {
	b := t.e.takeBase(t.stream, t.epoch, t.base)
	if b == nil {
		return nil, 0, t.coldDelta()
	}
	start := time.Now()
	// An edit per shipped edge, whether it shipped records, tombstones or
	// nothing; edges several ops consume ship once.
	var edits []relstore.Edit
	seen := map[string]bool{}
	for _, op := range t.g.Ops {
		for _, ce := range t.g.Out(op) {
			if key := core.EdgeKey(ce); t.a[ce.From.ID] != t.a[ce.To.ID] && !seen[key] {
				seen[key] = true
				ed := relstore.Edit{Frag: ce.Frag, Tombs: t.ts.tombs[key]}
				if in := t.ts.inbound[key]; in != nil {
					ed.Records = in.Records
				}
				edits = append(edits, ed)
			}
		}
	}
	ws := time.Now()
	rows, err := t.e.rowStore().ApplyDelta(b.gen, edits)
	if errors.Is(err, relstore.ErrStale) {
		t.e.log.Log(obs.LevelWarn, "delta does not fit the stored rows", "exchange", t.exchange, "stream", t.stream, "err", err.Error())
		return nil, 0, t.coldDelta()
	}
	if err != nil {
		return nil, 0, err
	}
	t.e.met.Counter("endpoint.delta.applies").Inc()
	t.e.met.Counter("endpoint.delta.rows").Add(int64(rows))
	return t.e.targetResponse(t.exchange, start, ws.Sub(start), time.Since(ws), 0), b.gen, nil
}

// targetResponse counts a target execution and reports its timing split,
// the one the agency's cost model is validated against.
func (e *Endpoint) targetResponse(exchange string, start time.Time, execTime, writeTime, indexTime time.Duration) *xmltree.Node {
	e.met.Counter("endpoint.target.executes").Inc()
	e.met.Histogram("endpoint.target.millis").ObserveSince(start)
	if e.log.Enabled(obs.LevelDebug) {
		e.log.Log(obs.LevelDebug, "target slice executed", "exchange", exchange,
			"endpoint", e.Name, "execMillis", formatMillis(execTime),
			"writeMillis", formatMillis(writeTime), "indexMillis", formatMillis(indexTime))
	}
	resp := &xmltree.Node{Name: "ExecuteTargetResponse"}
	resp.SetAttr("execMillis", formatMillis(execTime))
	resp.SetAttr("writeMillis", formatMillis(writeTime))
	resp.SetAttr("indexMillis", formatMillis(indexTime))
	return resp
}
