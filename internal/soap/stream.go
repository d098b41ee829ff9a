package soap

// Streaming SOAP binding. The tree binding in soap.go buffers whole
// envelopes on both sides; for fragment shipments — the dominant payloads
// of an exchange — that re-materializes data the wire codec already
// streams. This file adds the zero-materialization path: requests flow
// through an io.Pipe (chunked transfer, no full-request buffer), responses
// are consumed by SAX handlers, and the server dispatches payloads to
// stream handlers that read the body as events and write the reply
// directly to the connection. Both bindings speak the same envelopes, so
// buffered and streaming peers interoperate.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"xdx/internal/bufpool"
	"xdx/internal/obs"
	"xdx/internal/xmltree"
)

const (
	envPrefix = `<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Body>`
	envSuffix = `</soap:Body></soap:Envelope>`
)

// attrEscaper covers the characters that must not appear raw in an
// attribute value.
var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// envOpen renders an envelope open (through <soap:Body>) carrying extra
// envelope attributes — the channel content negotiation rides on.
func envOpen(attrs []xmltree.Attr) string {
	if len(attrs) == 0 {
		return envPrefix
	}
	var b strings.Builder
	b.WriteString(`<soap:Envelope xmlns:soap="` + EnvelopeNS + `"`)
	for _, a := range attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		attrEscaper.WriteString(&b, a.Value)
		b.WriteByte('"')
	}
	b.WriteString(`><soap:Body>`)
	return b.String()
}

// Header is the envelope-level request context a stream handler may
// consult — the codec half of content negotiation plus any SOAP Header
// entries the request carried.
type Header struct {
	// Codecs is the client's advertised shipment codecs, in preference
	// order; empty when the request did not negotiate. It may arrive as an
	// envelope attribute or as a codecs header entry.
	Codecs []string
	// Entries holds the request's parsed soap:Header entries in document
	// order (nil when the request carried none). Entries marked
	// mustUnderstand="1" that dispatch does not recognize have already
	// faulted by the time a handler runs.
	Entries []*xmltree.Node
}

// EnvelopeAttrWriter is implemented by the response writer handed to
// stream responders: attributes set before the first body write travel on
// the response envelope — the server's half of content negotiation.
type EnvelopeAttrWriter interface {
	// SetEnvelopeAttr stamps an attribute onto the response envelope. It
	// fails once the envelope has started flowing.
	SetEnvelopeAttr(name, value string) error
}

// EnvelopeObserver may additionally be implemented by a CallStream
// response handler to see the response envelope's own attributes (the
// server's negotiation answer) before any payload events arrive.
type EnvelopeObserver interface {
	ObserveEnvelope(attrs []xmltree.Attr)
}

// DefaultTimeout bounds a Client call when Client.Timeout is zero.
const DefaultTimeout = 2 * time.Minute

// callContext derives the request context from the client's timeout
// policy: zero means DefaultTimeout, negative disables the bound.
func (c *Client) callContext() (context.Context, context.CancelFunc) {
	d := c.Timeout
	if d == 0 {
		d = DefaultTimeout
	}
	if d < 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

// CallStream posts a SOAP request whose body is produced by writeBody
// directly onto the wire (chunked, never buffered whole) and feeds the
// response payload's parse events to h. h may be nil to ignore a non-fault
// response. SOAP faults come back as *Fault errors carrying the HTTP
// status.
func (c *Client) CallStream(action string, writeBody func(io.Writer) error, h xmltree.AttrHandler) error {
	start := time.Now()
	ctx, cancel := c.callContext()
	defer cancel()
	pr, pw := io.Pipe()
	var envAttrs []xmltree.Attr
	if len(c.Codecs) > 0 {
		envAttrs = []xmltree.Attr{{Name: "codecs", Value: strings.Join(c.Codecs, " ")}}
	}
	reqCount := &countingWriter{w: pw}
	errc := make(chan error, 1)
	go func() {
		// The pooled buffer coalesces the body producer's small writes into
		// pipe-sized chunks; without it every framing fragment crosses the
		// pipe (and the chunked transfer encoding) on its own.
		bw := bufpool.Writer(reqCount)
		_, err := bw.WriteString(envOpen(envAttrs))
		if err == nil {
			err = writeBody(bw)
		}
		if err == nil {
			_, err = bw.WriteString(envSuffix)
		}
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		bufpool.PutWriter(bw)
		pw.CloseWithError(err)
		errc <- err
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL, pr)
	if err != nil {
		pr.Close()
		<-errc
		return err
	}
	req.Header.Set("Content-Type", `text/xml; charset="utf-8"`)
	req.Header.Set("SOAPAction", `"`+action+`"`)
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		pr.CloseWithError(err)
		if werr := <-errc; werr != nil && !errors.Is(werr, io.ErrClosedPipe) {
			err = fmt.Errorf("soap: write request: %w", werr)
		}
		c.observe(action, start, reqCount.n, 0, err)
		return err
	}
	defer func() {
		drainBody(resp.Body)
		resp.Body.Close()
	}()
	respCount := &countingReader{r: resp.Body}
	fault, scanErr := ScanEnvelope(respCount, h)
	pr.CloseWithError(io.ErrClosedPipe)
	werr := <-errc
	var callErr error
	switch {
	case fault != nil:
		fault.HTTPStatus = resp.StatusCode
		callErr = fault
	case scanErr != nil:
		var pe *PayloadError
		var f *Fault
		if !errors.As(scanErr, &pe) && errors.As(scanErr, &f) {
			// The scanner itself faulted (an un-understood mandatory header
			// entry); carry the status like a wire fault.
			f.HTTPStatus = resp.StatusCode
			callErr = f
		} else {
			callErr = httpStatusError(resp.StatusCode, scanErr)
		}
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		// The body scanned as a non-fault envelope, but the status says the
		// call failed (proxy substitution, broken gateway). Surface it as a
		// fault carrying the status so retry policies can classify it.
		callErr = &Fault{
			Code:       "soap:HTTP",
			String:     fmt.Sprintf("HTTP %s with non-fault body", http.StatusText(resp.StatusCode)),
			HTTPStatus: resp.StatusCode,
		}
	case werr != nil && !errors.Is(werr, io.ErrClosedPipe):
		callErr = fmt.Errorf("soap: write request: %w", werr)
	}
	c.observe(action, start, reqCount.n, respCount.n, callErr)
	return callErr
}

// countingWriter counts bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

// Write implements io.Writer.
func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// PayloadError marks an error raised by the caller's payload handler
// while a response envelope was being scanned: the envelope itself
// arrived and parsed, so the failure is an application-level decode
// rejecting the payload's contents — a permanent condition, unlike the
// tokenizer errors a truncated stream raises. Retry policies use the
// distinction to fail fast instead of re-requesting a payload that will
// be rejected identically every time.
type PayloadError struct{ Err error }

// Error implements error.
func (e *PayloadError) Error() string { return e.Err.Error() }

// Unwrap exposes the handler's error to errors.Is/As.
func (e *PayloadError) Unwrap() error { return e.Err }

// ScanEnvelope consumes a serialized envelope from r in one SAX pass,
// delegating the payload element's events (including its own start/end) to
// h. A soap:Fault payload is collected and returned instead of being
// delegated. h may be nil to discard a non-fault payload. Errors raised by
// h come back wrapped in *PayloadError; parse errors come back as-is.
func ScanEnvelope(r io.Reader, h xmltree.AttrHandler) (*Fault, error) {
	v := &envelopeScanner{h: h}
	if err := xmltree.ScanAttrs(r, v); err != nil {
		return v.fault, err
	}
	if !v.sawEnvelope {
		// Plain-text bodies (proxy error pages) scan to EOF without ever
		// opening an element; that is not a SOAP response.
		return v.fault, fmt.Errorf("soap: response carried no envelope")
	}
	return v.fault, nil
}

// payloadErr wraps a delegated handler's error in *PayloadError.
func payloadErr(err error) error {
	if err == nil {
		return nil
	}
	return &PayloadError{Err: err}
}

// envelopeScanner walks Envelope/Body framing around a delegated payload.
type envelopeScanner struct {
	h xmltree.AttrHandler

	depth       int
	skip        int
	inPayload   int
	payloadSeen bool
	sawEnvelope bool
	rawTo       io.Writer // the payload handler's sink for the element being copied verbatim

	inHeader int
	hdr      *xmltree.TreeBuilder

	fault      *Fault
	inFault    int
	faultField string
}

// StartElement implements xmltree.AttrHandler.
func (v *envelopeScanner) StartElement(name string, attrs []xmltree.Attr) error {
	if v.skip > 0 {
		v.skip++
		return nil
	}
	if v.inHeader > 0 {
		v.inHeader++
		return v.hdr.StartElement(name, attrs)
	}
	if v.inFault > 0 {
		v.inFault++
		if v.inFault == 2 {
			v.faultField = name
		}
		return nil
	}
	if v.inPayload > 0 {
		v.inPayload++
		return payloadErr(v.h.StartElement(name, attrs))
	}
	v.depth++
	switch v.depth {
	case 1:
		if name != "Envelope" {
			return fmt.Errorf("soap: not an envelope: %s", name)
		}
		v.sawEnvelope = true
		if o, ok := v.h.(EnvelopeObserver); ok {
			o.ObserveEnvelope(attrs)
		}
	case 2:
		if name != "Body" {
			if name == "Header" {
				// Collect header entries so mandatory ones can be enforced
				// (SOAP 1.1 §4.2.3) instead of silently skipped.
				v.depth--
				v.inHeader = 1
				v.hdr = &xmltree.TreeBuilder{}
				return v.hdr.StartElement(name, attrs)
			}
			// Foreign envelope siblings are not the payload.
			v.depth--
			v.skip = 1
		}
	case 3:
		if v.payloadSeen {
			// Like the tree binding, only the first payload element counts.
			v.depth--
			v.skip = 1
			return nil
		}
		v.payloadSeen = true
		if name == "Fault" {
			v.fault = &Fault{}
			v.inFault = 1
			return nil
		}
		if v.h == nil {
			v.depth--
			v.skip = 1
			return nil
		}
		v.inPayload = 1
		return payloadErr(v.h.StartElement(name, attrs))
	}
	return nil
}

// Text implements xmltree.AttrHandler.
func (v *envelopeScanner) Text(data string) error {
	switch {
	case v.skip > 0:
	case v.inHeader > 0:
		return v.hdr.Text(data)
	case v.inFault > 1:
		switch v.faultField {
		case "faultcode":
			v.fault.Code += data
		case "faultstring":
			v.fault.String += data
		case "detail":
			v.fault.Detail += data
		}
	case v.inPayload > 0:
		return payloadErr(v.h.Text(data))
	}
	return nil
}

// TextBytes implements xmltree.TextBytesHandler so a payload handler with
// a zero-copy text path (the shipment decoder) keeps it through the
// envelope walk; header and fault text take the string path.
func (v *envelopeScanner) TextBytes(data []byte) error {
	switch {
	case v.skip > 0:
		return nil
	case v.inPayload > 0:
		if tb, ok := v.h.(xmltree.TextBytesHandler); ok {
			return payloadErr(tb.TextBytes(data))
		}
	}
	return v.Text(string(data))
}

// StartRaw implements xmltree.RawHandler, forwarding the payload handler's
// verbatim-element path the way TextBytes forwards its zero-copy text path.
func (v *envelopeScanner) StartRaw(name string) io.Writer {
	if rh, ok := v.h.(xmltree.RawHandler); ok && v.skip == 0 && v.inPayload > 0 {
		if v.rawTo = rh.StartRaw(name); v.rawTo != nil {
			return v
		}
	}
	return nil
}

// Write passes a claimed element's bytes to the payload handler's sink.
func (v *envelopeScanner) Write(p []byte) (int, error) {
	n, err := v.rawTo.Write(p)
	return n, payloadErr(err)
}

// EndRaw implements xmltree.RawHandler.
func (v *envelopeScanner) EndRaw(name string) error {
	return payloadErr(v.h.(xmltree.RawHandler).EndRaw(name))
}

// EndElement implements xmltree.AttrHandler.
func (v *envelopeScanner) EndElement(name string) error {
	switch {
	case v.skip > 0:
		v.skip--
	case v.inHeader > 0:
		v.inHeader--
		if err := v.hdr.EndElement(name); err != nil {
			return err
		}
		if v.inHeader == 0 {
			entries := headerEntries(v.hdr.Root())
			v.hdr = nil
			// This caller recognizes no response-header vocabulary, so any
			// mandatory entry aborts the scan as a protocol breach.
			if f := MustUnderstandFault(entries, nil); f != nil {
				return f
			}
		}
	case v.inFault > 0:
		v.inFault--
		if v.inFault == 0 {
			v.depth--
		}
	case v.inPayload > 0:
		v.inPayload--
		if err := v.h.EndElement(name); err != nil {
			return payloadErr(err)
		}
		if v.inPayload == 0 {
			v.depth--
		}
	default:
		v.depth--
	}
	return nil
}

// RespondFunc writes a response payload body. The first write opens the
// response envelope; writing nothing yields an empty body.
type RespondFunc func(w io.Writer) error

// StreamHandlerFunc accepts one request payload as a stream. It receives
// the envelope-level header (content negotiation) and the payload root's
// attributes, and returns a handler for the payload's parse events (the
// root's own start/end included) plus the responder that runs once the
// request is fully consumed. Returning an error — here or from the event
// handler — produces a SOAP fault.
type StreamHandlerFunc func(env Header, attrs []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error)

// HandleStream registers a streaming handler for requests whose body root
// is elem. Stream handlers take precedence over Handle handlers for the
// same element.
func (s *Server) HandleStream(elem string, h StreamHandlerFunc) { s.streams[elem] = h }

// handlerError marks an error raised by application handler code during
// the request scan, so dispatch can distinguish it from a malformed
// envelope.
type handlerError struct{ err error }

func (e *handlerError) Error() string { return e.err.Error() }
func (e *handlerError) Unwrap() error { return e.err }

// reqFault aborts the request scan with a specific fault and HTTP status.
type reqFault struct {
	status int
	f      *Fault
}

func (e *reqFault) Error() string { return e.f.String }

// serverWalker is the server's request-side envelope scanner: it enforces
// the Envelope/Body framing and routes the payload subtree to the
// dispatched handler without materializing the envelope.
type serverWalker struct {
	s *Server

	depth int
	skip  int

	env         Header
	sawBody     bool
	payloadName string
	notFound    bool

	inHeader int
	hdr      *xmltree.TreeBuilder

	inPayload int
	delegate  xmltree.AttrHandler
	respond   RespondFunc
	legacy    HandlerFunc
	tree      *xmltree.TreeBuilder
}

// closeHeader runs once the request's soap:Header closes: enforce
// mustUnderstand (SOAP 1.1 §4.2.3), expose the entries to handlers, and
// honor a codecs entry as the negotiation carrier when the envelope
// attribute did not already negotiate.
func (v *serverWalker) closeHeader() error {
	entries := headerEntries(v.hdr.Root())
	v.hdr = nil
	v.env.Entries = entries
	if f := MustUnderstandFault(entries, serverRecognizes); f != nil {
		return &reqFault{status: http.StatusInternalServerError, f: f}
	}
	for _, e := range entries {
		if localName(e.Name) == "codecs" && len(v.env.Codecs) == 0 {
			v.env.Codecs = strings.Fields(e.Text)
		}
	}
	return nil
}

// StartElement implements xmltree.AttrHandler.
func (v *serverWalker) StartElement(name string, attrs []xmltree.Attr) error {
	if v.skip > 0 {
		v.skip++
		return nil
	}
	if v.inHeader > 0 {
		v.inHeader++
		return v.hdr.StartElement(name, attrs)
	}
	if v.inPayload > 0 {
		v.inPayload++
		if err := v.delegate.StartElement(name, attrs); err != nil {
			return &handlerError{err}
		}
		return nil
	}
	v.depth++
	switch v.depth {
	case 1:
		if name != "Envelope" {
			return &reqFault{status: http.StatusBadRequest,
				f: &Fault{Code: "soap:Client", String: "soap: not an envelope: " + name}}
		}
		for _, a := range attrs {
			if a.Name == "codecs" {
				v.env.Codecs = strings.Fields(a.Value)
			}
		}
	case 2:
		if name == "Body" {
			v.sawBody = true
		} else if name == "Header" {
			// Collect entries instead of silently skipping them, so
			// mandatory ones are enforced and handlers can read the rest.
			v.depth--
			v.inHeader = 1
			v.hdr = &xmltree.TreeBuilder{}
			return v.hdr.StartElement(name, attrs)
		} else {
			v.depth--
			v.skip = 1
		}
	case 3:
		if v.payloadName != "" {
			v.depth--
			v.skip = 1
			return nil
		}
		v.payloadName = name
		switch {
		case v.s.streams[name] != nil:
			h, respond, err := v.s.streams[name](v.env, attrs)
			if err != nil {
				return &handlerError{err}
			}
			v.delegate, v.respond = h, respond
		case v.s.handlers[name] != nil:
			v.legacy = v.s.handlers[name]
			v.tree = &xmltree.TreeBuilder{}
			v.delegate = v.tree
		default:
			// Keep scanning so a malformed body still reports 400, like the
			// tree dispatch which parsed before looking up handlers.
			v.notFound = true
			v.depth--
			v.skip = 1
			return nil
		}
		v.inPayload = 1
		if err := v.delegate.StartElement(name, attrs); err != nil {
			return &handlerError{err}
		}
	}
	return nil
}

// Text implements xmltree.AttrHandler.
func (v *serverWalker) Text(data string) error {
	if v.skip > 0 {
		return nil
	}
	if v.inHeader > 0 {
		return v.hdr.Text(data)
	}
	if v.inPayload == 0 {
		return nil
	}
	if err := v.delegate.Text(data); err != nil {
		return &handlerError{err}
	}
	return nil
}

// TextBytes implements xmltree.TextBytesHandler: the server side of the
// same fast path — a streaming request handler (the endpoint's target
// scan) that accepts raw bytes gets them without a string per event.
func (v *serverWalker) TextBytes(data []byte) error {
	switch {
	case v.skip > 0:
		return nil
	case v.inHeader == 0 && v.inPayload > 0:
		if tb, ok := v.delegate.(xmltree.TextBytesHandler); ok {
			if err := tb.TextBytes(data); err != nil {
				return &handlerError{err}
			}
			return nil
		}
	}
	return v.Text(string(data))
}

// EndElement implements xmltree.AttrHandler.
func (v *serverWalker) EndElement(name string) error {
	switch {
	case v.skip > 0:
		v.skip--
	case v.inHeader > 0:
		v.inHeader--
		if err := v.hdr.EndElement(name); err != nil {
			return err
		}
		if v.inHeader == 0 {
			return v.closeHeader()
		}
	case v.inPayload > 0:
		v.inPayload--
		if err := v.delegate.EndElement(name); err != nil {
			return &handlerError{err}
		}
		if v.inPayload == 0 {
			v.depth--
		}
	default:
		v.depth--
	}
	return nil
}

// envelopeWriter lazily opens the response envelope on first write, so a
// responder that fails before producing output can still get a clean SOAP
// fault instead of a half-written envelope — and so envelope attributes
// (the negotiation answer) can still be stamped before anything flows.
type envelopeWriter struct {
	w       http.ResponseWriter
	attrs   []xmltree.Attr
	started bool
}

// SetEnvelopeAttr implements EnvelopeAttrWriter.
func (e *envelopeWriter) SetEnvelopeAttr(name, value string) error {
	if e.started {
		return fmt.Errorf("soap: envelope already started, cannot set %s", name)
	}
	for i, a := range e.attrs {
		if a.Name == name {
			e.attrs[i].Value = value
			return nil
		}
	}
	e.attrs = append(e.attrs, xmltree.Attr{Name: name, Value: value})
	return nil
}

func (e *envelopeWriter) open() error {
	e.started = true
	e.w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	_, err := io.WriteString(e.w, envOpen(e.attrs))
	return err
}

// Write implements io.Writer.
func (e *envelopeWriter) Write(p []byte) (int, error) {
	if !e.started {
		if err := e.open(); err != nil {
			return 0, err
		}
	}
	return e.w.Write(p)
}

// finish closes the envelope (emitting an empty one if nothing was
// written). A non-nil error means the peer saw a truncated response —
// the write failed and the framing never completed.
func (e *envelopeWriter) finish() error {
	if !e.started {
		if err := e.open(); err != nil {
			return err
		}
	}
	_, err := io.WriteString(e.w, envSuffix)
	return err
}

// countingResponseWriter wraps an http.ResponseWriter to record the status
// line and the bytes that actually reached the connection.
type countingResponseWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

// WriteHeader implements http.ResponseWriter.
func (c *countingResponseWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

// Write implements io.Writer.
func (c *countingResponseWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// truncated records a response that was cut off after its envelope started
// flowing — the only remaining failure signal once headers are gone, so it
// must at least reach the metrics.
func (s *Server) truncated(payload string, err error) {
	s.metrics.Counter("soap.server.truncated").Inc()
	obs.OrNop(s.logger).Log(obs.LevelWarn, "soap response truncated",
		"payload", payload, "err", err)
}

// ServeHTTP implements http.Handler. Requests are consumed in one SAX
// pass: payloads with a registered stream handler flow through it
// event-by-event and the response is written directly to the connection;
// payloads with a tree handler are materialized (payload only — never the
// envelope) and dispatched as before.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "soap endpoint requires POST", http.StatusMethodNotAllowed)
		return
	}
	walk := &serverWalker{s: s}
	body := io.Reader(r.Body)
	if s.metrics != nil || s.logger != nil {
		// Wrapping only when observability is on keeps the default path
		// allocation-identical to the unobserved server.
		cr := &countingReader{r: r.Body}
		cw := &countingResponseWriter{ResponseWriter: w}
		body, w = cr, cw
		start := time.Now()
		defer func() {
			status := cw.status
			if status == 0 {
				status = http.StatusOK
			}
			m := s.metrics
			m.Counter("soap.server.requests").Inc()
			m.Counter("soap.server.req_bytes").Add(cr.n)
			m.Counter("soap.server.resp_bytes").Add(cw.n)
			if status >= 400 {
				m.Counter("soap.server.faults").Inc()
			}
			m.Histogram("soap.server.millis").ObserveSince(start)
			if l := obs.OrNop(s.logger); l.Enabled(obs.LevelDebug) {
				l.Log(obs.LevelDebug, "soap request",
					"payload", walk.payloadName, "status", status,
					"reqBytes", cr.n, "respBytes", cw.n)
			}
		}()
	}
	if err := xmltree.ScanAttrs(body, walk); err != nil {
		var rf *reqFault
		var he *handlerError
		switch {
		case errors.As(err, &rf):
			s.fault(w, rf.status, rf.f)
		case errors.As(err, &he):
			if f, ok := he.err.(*Fault); ok {
				s.fault(w, faultStatus(f), f)
			} else {
				s.fault(w, http.StatusInternalServerError, &Fault{Code: "soap:Server", String: he.err.Error()})
			}
		default:
			s.fault(w, http.StatusBadRequest, &Fault{Code: "soap:Client", String: "malformed envelope", Detail: err.Error()})
		}
		return
	}
	switch {
	case !walk.sawBody:
		s.fault(w, http.StatusBadRequest, &Fault{Code: "soap:Client", String: "soap: envelope has no body"})
	case walk.payloadName == "":
		s.fault(w, http.StatusBadRequest, &Fault{Code: "soap:Client", String: "empty body"})
	case walk.notFound:
		s.fault(w, http.StatusNotFound, &Fault{Code: "soap:Client", String: "no handler for " + walk.payloadName})
	case walk.respond != nil:
		ew := &envelopeWriter{w: w}
		if err := walk.respond(ew); err != nil {
			if !ew.started {
				if f, ok := err.(*Fault); ok {
					s.fault(w, faultStatus(f), f)
				} else {
					s.fault(w, http.StatusInternalServerError, &Fault{Code: "soap:Server", String: err.Error()})
				}
				return
			}
			// The envelope is already flowing; truncating it is the only way
			// left to signal failure — the client's parser will report it.
			s.truncated(walk.payloadName, err)
			return
		}
		if err := ew.finish(); err != nil {
			s.truncated(walk.payloadName, err)
		}
	default:
		resp, err := walk.legacy(walk.tree.Root())
		if err != nil {
			if f, ok := err.(*Fault); ok {
				s.fault(w, faultStatus(f), f)
				return
			}
			s.fault(w, http.StatusInternalServerError, &Fault{Code: "soap:Server", String: err.Error()})
			return
		}
		s.reply(w, Envelope(resp))
	}
}
