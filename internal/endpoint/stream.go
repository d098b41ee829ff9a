package endpoint

// Execution handlers. Both execute operations dispatch through the SOAP
// server's streaming path, so the endpoint never materializes an envelope:
//
//   - ExecuteSource consumes the (small) request tree, runs the source
//     slice, and serializes the outbound shipment directly onto the HTTP
//     response, chunk by chunk, without building a response tree.
//   - ExecuteTarget scans its (large) request as SAX events: the program
//     subtree is materialized, the shipment subtree flows straight into
//     the session's shipment decoder (see session.go), and the envelope
//     tree is never built.

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"xdx/internal/core"
	"xdx/internal/obs"
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
// is materialized, the response shipment streams.
func (e *Endpoint) executeSource(env soap.Header, attrs []xmltree.Attr) (xmltree.AttrHandler, soap.RespondFunc, error) {
	tb := &xmltree.TreeBuilder{}
	return tb, func(w io.Writer) error { return e.respondSource(env, tb.Root(), w) }, nil
}

// stampCodec records the negotiated codec on the response envelope, when
// the transport exposes one (the streaming SOAP server does; a bare
// io.Writer in tests may not).
func stampCodec(w io.Writer, c wire.Codec) {
	if aw, ok := w.(soap.EnvelopeAttrWriter); ok {
		aw.SetEnvelopeAttr("codec", c.String())
	}
}

// respondSource executes the source slice — scans plus the operations
// placed at this system — and streams the cross-edge shipment onto w as it
// is produced. Since serialization overlaps execution, the query time
// cannot ride on the response root's attributes; it follows the shipment
// as a trailing <timing> element.
func (e *Endpoint) respondSource(env soap.Header, req *xmltree.Node, w io.Writer) error {
	g, a, err := decodeProgramChild(req, e.backend.Layout())
	if err != nil {
		return err
	}
	codec, negotiated, err := e.pickCodec(env, req)
	if err != nil {
		return err
	}
	if negotiated {
		stampCodec(w, codec)
	}
	scan, err := e.sourceScan(req)
	if err != nil {
		return err
	}
	chunk := 0
	if v, ok := req.Attr("chunk"); ok {
		// The caller relays the shipment chunk by chunk, so the chunks are
		// cut and numbered here, at the one place they are rendered.
		if chunk, err = strconv.Atoi(v); err != nil || chunk <= 0 {
			return &soap.Fault{Code: "soap:Client", String: "chunk must be a positive integer"}
		}
	}
	sch := e.backend.Layout().Schema
	start := time.Now()
	if _, err := io.WriteString(w, "<ExecuteSourceResponse>"); err != nil {
		return err
	}
	sw := wire.NewShipmentWriterCodec(w, sch, codec)
	sw.SetWorkers(e.codecWorkers)
	sw.SetObs(e.met)
	sw.SetChunk(chunk)
	outbound, _, err := core.ExecuteSlice(g, sch, a, core.LocSource, core.SliceIO{Scan: scan})
	if err == nil {
		err = wire.EmitShipment(sw, outbound)
	}
	if err != nil {
		sw.Close()
		return err
	}
	if err := sw.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	e.met.Counter("endpoint.source.executes").Inc()
	e.met.Histogram("endpoint.source.millis").Observe(float64(elapsed) / float64(time.Millisecond))
	if _, err := fmt.Fprintf(w, `<timing queryMillis="%s" payloadBytes="%d"/>`, formatMillis(elapsed), sw.PayloadBytes()); err != nil {
		return err
	}
	_, err = io.WriteString(w, "</ExecuteSourceResponse>")
	return err
}

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
	h := &targetScan{e: e, ts: e.targetSessionFor(id)}
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

	stream      string
	epoch       string
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
		return t.sub.StartElement(name, attrs)
	}
	t.depth++
	switch t.depth {
	case 1:
		t.stream = findAttr(attrs, "stream")
		t.epoch = findAttr(attrs, "epoch")
		t.delta = attrTrue(findAttr(attrs, "delta"))
		if t.delta {
			// Fail the delivery before any chunk flows: without a warm
			// base the delta cannot be applied, and the agency's fallback
			// is a full reship on a fresh session.
			if !t.e.deltaWarm(t.stream, t.epoch) {
				t.e.met.Counter("endpoint.delta.cold").Inc()
				return soap.ColdDeltaFault("stream " + t.stream + " epoch " + t.epoch)
			}
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
			return t.dec.StartElement(name, attrs)
		default:
			t.depth--
			t.skip = 1
		}
	}
	return nil
}

// chunkFault makes the decoder's refusal of an oversized chunk the
// sender's fault: a soap:Client fault, which no driver retries.
func chunkFault(err error) error {
	if errors.Is(err, wire.ErrChunkTooLarge) {
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
	// chunk admission and record dedup.
	t.dec, err = t.ts.decoder(t.e.backend.Layout().Schema, func(name string) *core.Fragment { return frags[name] })
	if err != nil {
		return err
	}
	t.dec.Workers = t.e.codecWorkers
	t.dec.Met = t.e.met
	return nil
}

// runTarget executes the target slice over decoded inbound instances and
// reports the timing split the agency's cost model is validated against.
func (e *Endpoint) runTarget(g *core.Graph, a core.Assignment, inbound map[string]*core.Instance) (*xmltree.Node, error) {
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
	indexTime := time.Since(is)
	e.met.Counter("endpoint.target.executes").Inc()
	e.met.Histogram("endpoint.target.millis").ObserveSince(start)
	if e.log.Enabled(obs.LevelDebug) {
		e.log.Log(obs.LevelDebug, "target slice executed",
			"endpoint", e.Name, "execMillis", formatMillis(execTime),
			"writeMillis", formatMillis(writeTime), "indexMillis", formatMillis(indexTime))
	}
	resp := &xmltree.Node{Name: "ExecuteTargetResponse"}
	resp.SetAttr("execMillis", formatMillis(execTime))
	resp.SetAttr("writeMillis", formatMillis(writeTime))
	resp.SetAttr("indexMillis", formatMillis(indexTime))
	return resp, nil
}
