package soap

// Streaming SOAP binding. Every envelope, request or response, is read in
// one SAX pass by the envelope walker below; only the payload a tree
// handler or Call asks for is materialized. For fragment shipments — the
// dominant payloads of an exchange — nothing is: requests flow through an
// io.Pipe (chunked transfer, no full-request buffer), responses are consumed
// by SAX handlers, and the server dispatches payloads to stream handlers
// that read the body as events and write the reply directly to the
// connection. Buffered and streaming peers speak the same envelopes, so
// they interoperate.

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

// envOpen renders a request envelope's open (through <soap:Body>),
// carrying the exchange id header entry when exchange is set. That entry is
// mandatory (mustUnderstand="1"): a peer that cannot stamp the id on its
// log lines refuses the call rather than drop the thread.
func envOpen(exchange string) string {
	if exchange == "" {
		return envPrefix
	}
	var b strings.Builder
	b.Grow(256)
	b.WriteString(`<soap:Envelope xmlns:soap="` + EnvelopeNS + `">`)
	b.WriteString(`<soap:Header><xdx:exchange xmlns:xdx="urn:xdx" soap:mustUnderstand="1">`)
	attrEscaper.WriteString(&b, exchange)
	b.WriteString(`</xdx:exchange></soap:Header><soap:Body>`)
	return b.String()
}

// Header is the envelope-level request context a stream handler may
// consult: what the request's soap:Header entries carried.
type Header struct {
	// Exchange is the exchange id the request's exchange header entry
	// carried (see envOpen), "" when it carried none.
	Exchange string
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
	pr, pw := io.Pipe()
	reqCount := &countingWriter{w: pw}
	errc := make(chan error, 1)
	go func() {
		// The pooled buffer coalesces the body producer's small writes into
		// pipe-sized chunks; without it every framing fragment crosses the
		// pipe (and the chunked transfer encoding) on its own.
		bw := bufpool.Writer(reqCount)
		_, err := bw.WriteString(envOpen(c.Exchange))
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
	return c.post(action, start, pr, &reqCount.n, func(cause error) error {
		pr.CloseWithError(cause)
		if werr := <-errc; werr != nil && !errors.Is(werr, io.ErrClosedPipe) {
			return werr
		}
		return nil
	}, h)
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

// PayloadError marks an error raised by a payload handler while an
// envelope was being scanned: the caller's response handler on the client,
// the dispatched handler on the server. The envelope itself arrived and
// parsed, so the failure is an application-level decode rejecting the
// payload's contents — a permanent condition, unlike the tokenizer errors
// a truncated stream raises. Retry policies use the distinction to fail
// fast instead of re-requesting a payload that will be rejected
// identically every time; the server answers it as the handler's fault.
type PayloadError struct{ Err error }

// Error implements error.
func (e *PayloadError) Error() string { return e.Err.Error() }

// Unwrap exposes the handler's error to errors.Is/As.
func (e *PayloadError) Unwrap() error { return e.Err }

// ScanEnvelope consumes a serialized envelope from r in one SAX pass,
// delegating the payload element's events (including its own start/end) to
// h. A soap:Fault payload is collected and returned instead of being
// delegated. h may be nil to discard a non-fault payload. Errors raised by
// h come back wrapped in *PayloadError, a mandatory header entry comes back
// as a soap:MustUnderstand *Fault error, and parse errors come back as-is.
func ScanEnvelope(r io.Reader, h xmltree.AttrHandler) (*Fault, error) {
	var fault *faultReader
	v := &envelopeWalker{pick: func(name string, _ []xmltree.Attr) (xmltree.AttrHandler, error) {
		if name == "Fault" {
			fault = &faultReader{}
			return fault, nil
		}
		return h, nil
	}}
	err := v.scan(r)
	if fault != nil {
		return &fault.f, err
	}
	return nil, err
}

// payloadErr wraps a delegated handler's error in *PayloadError.
func payloadErr(err error) error {
	if err == nil {
		return nil
	}
	return &PayloadError{Err: err}
}

// faultReader collects a soap:Fault payload's code, string and detail.
type faultReader struct {
	f     Fault
	depth int
	field string // the name of the Fault child last opened
}

// StartElement implements xmltree.AttrHandler.
func (r *faultReader) StartElement(name string, _ []xmltree.Attr) error {
	if r.depth++; r.depth == 2 {
		r.field = name
	}
	return nil
}

// Text implements xmltree.AttrHandler.
func (r *faultReader) Text(data string) error {
	if r.depth < 2 {
		return nil
	}
	switch r.field {
	case "faultcode":
		r.f.Code += data
	case "faultstring":
		r.f.String += data
	case "detail":
		r.f.Detail += data
	}
	return nil
}

// EndElement implements xmltree.AttrHandler.
func (r *faultReader) EndElement(string) error {
	r.depth--
	return nil
}

// envelopeWalker reads one SOAP envelope in a single SAX pass, a response
// on the client and a request on the server alike. It enforces the
// Envelope/Body framing, checks each soap:Header entry as it opens —
// reading the exchange id in place, refusing any other mandatory entry
// (SOAP 1.1 §4.2.3) and skipping the rest — and routes the first body
// element's subtree to the handler pick chooses for it, without
// materializing the envelope. Other envelope children and any later body
// elements are skipped.
type envelopeWalker struct {
	// pick chooses the payload's handler as the body's first element
	// opens; a nil handler skips the payload. Its error, and any error the
	// handler raises, comes back as a *PayloadError.
	pick func(name string, attrs []xmltree.Attr) (xmltree.AttrHandler, error)

	env         Header // what the header entries carried
	payload     string // the payload's name, "" until it opens
	sawEnvelope bool
	sawBody     bool

	depth     int  // framing elements open: 1 in the Envelope, 2 in the Body
	skip      int  // depth inside a skipped element, 0 outside one
	inHeader  bool // inside soap:Header, outside its entries
	inID      bool // inside the exchange id entry, which skip counts
	inPayload int
	h         xmltree.AttrHandler // the payload's handler
}

// scan walks the envelope read from r.
func (v *envelopeWalker) scan(r io.Reader) error {
	if err := xmltree.ScanAttrs(r, v); err != nil {
		return err
	}
	switch {
	case !v.sawEnvelope:
		// Plain-text bodies (proxy error pages) scan to EOF without ever
		// opening an element; that is not a SOAP message.
		return errors.New("soap: no envelope")
	case !v.sawBody:
		return errors.New("soap: envelope has no body")
	}
	return nil
}

// StartElement implements xmltree.AttrHandler.
func (v *envelopeWalker) StartElement(name string, attrs []xmltree.Attr) error {
	switch {
	case v.skip > 0:
		v.skip++
		return nil
	case v.inPayload > 0:
		v.inPayload++
		return payloadErr(v.h.StartElement(name, attrs))
	case v.inHeader:
		// A header entry opens. The exchange id is the one entry this side
		// understands; it is read in place, never built into a tree.
		if name == "exchange" {
			v.inID = true
		} else if mustUnderstand(attrs) {
			return &Fault{
				Code:   "soap:MustUnderstand",
				String: "soap: mandatory header entry not understood: " + name,
			}
		}
		v.skip = 1
		return nil
	}
	switch v.depth {
	case 0:
		if name != "Envelope" {
			return fmt.Errorf("soap: not an envelope: %s", name)
		}
		v.sawEnvelope = true
		v.depth++
	case 1:
		switch name {
		case "Body":
			v.sawBody = true
			v.depth++
		case "Header":
			v.inHeader = true
		default:
			v.skip = 1
		}
	default:
		if v.payload != "" {
			v.skip = 1
			return nil
		}
		v.payload = name
		h, err := v.pick(name, attrs)
		if err != nil {
			return payloadErr(err)
		}
		if h == nil {
			v.skip = 1
			return nil
		}
		v.h, v.inPayload = h, 1
		return payloadErr(h.StartElement(name, attrs))
	}
	return nil
}

// Text implements xmltree.AttrHandler.
func (v *envelopeWalker) Text(data string) error {
	switch {
	case v.inID:
		v.env.Exchange += data
	case v.inPayload > 0:
		return payloadErr(v.h.Text(data))
	}
	return nil
}

// TextBytes implements xmltree.TextBytesHandler so a payload handler with
// a zero-copy text path (the shipment decoder, the endpoint's target scan)
// keeps it through the envelope walk; header text takes the string path.
func (v *envelopeWalker) TextBytes(data []byte) error {
	switch {
	case v.inPayload > 0:
		if tb, ok := v.h.(xmltree.TextBytesHandler); ok {
			return payloadErr(tb.TextBytes(data))
		}
	case !v.inID:
		return nil
	}
	return v.Text(string(data))
}

// EndElement implements xmltree.AttrHandler.
func (v *envelopeWalker) EndElement(name string) error {
	switch {
	case v.skip > 0:
		if v.skip--; v.skip == 0 {
			v.inID = false
		}
	case v.inPayload > 0:
		v.inPayload--
		return payloadErr(v.h.EndElement(name))
	case v.inHeader:
		v.inHeader = false
	default:
		v.depth--
	}
	return nil
}

// RespondFunc writes a response payload body. The first write opens the
// response envelope; writing nothing yields an empty body.
type RespondFunc func(w io.Writer) error

// StreamHandlerFunc accepts one request payload as a stream. It receives
// the envelope-level header (the exchange id) and the payload root's
// attributes, and returns a handler for the payload's parse events (the
// root's own start/end included) plus the responder that runs once the
// request is fully consumed. Returning an error — here or from the event
// handler — produces a SOAP fault.
type StreamHandlerFunc func(env Header, attrs []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error)

// HandleStream registers a streaming handler for requests whose body root
// is elem, replacing any handler registered for it before.
func (s *Server) HandleStream(elem string, h StreamHandlerFunc) { s.streams[elem] = h }

// envelopeWriter lazily opens the response envelope on first write, so a
// responder that fails before producing output can still get a clean SOAP
// fault instead of a half-written envelope.
type envelopeWriter struct {
	w       http.ResponseWriter
	started bool
}

func (e *envelopeWriter) open() error {
	e.started = true
	e.w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	_, err := io.WriteString(e.w, envPrefix)
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
func (s *Server) truncated(payload, exchange string, err error) {
	s.metrics.Counter("soap.server.truncated").Inc()
	obs.OrNop(s.logger).Log(obs.LevelWarn, "soap response truncated",
		withExchange(exchange, "payload", payload, "err", err)...)
}

// ServeHTTP implements http.Handler. Requests are consumed in one SAX
// pass: the payload flows through its handler event by event, and the
// response is written directly to the connection.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "soap endpoint requires POST", http.StatusMethodNotAllowed)
		return
	}
	var respond RespondFunc
	walk := &envelopeWalker{}
	walk.pick = func(name string, attrs []xmltree.Attr) (xmltree.AttrHandler, error) {
		sh := s.streams[name]
		if sh == nil {
			// Keep scanning so a malformed body still reports 400 rather
			// than 404.
			return nil, nil
		}
		h, rf, err := sh(walk.env, attrs)
		respond = rf
		return h, err
	}
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
				l.Log(obs.LevelDebug, "soap request", withExchange(walk.env.Exchange,
					"payload", walk.payload, "status", status,
					"reqBytes", cr.n, "respBytes", cw.n)...)
			}
		}()
	}
	truncated := func(err error) { s.truncated(walk.payload, walk.env.Exchange, err) }
	if err := walk.scan(body); err != nil {
		var pe *PayloadError
		if errors.As(err, &pe) {
			err = pe.Err
		} else if _, ok := err.(*Fault); !ok {
			s.fault(w, http.StatusBadRequest, &Fault{Code: "soap:Client", String: "malformed envelope", Detail: err.Error()})
			return
		}
		s.fail(w, err)
		return
	}
	switch {
	case walk.payload == "":
		s.fault(w, http.StatusBadRequest, &Fault{Code: "soap:Client", String: "empty body"})
	case respond != nil:
		ew := &envelopeWriter{w: w}
		if err := respond(ew); err != nil {
			if !ew.started {
				s.fail(w, err)
				return
			}
			// The envelope is already flowing; truncating it is the only way
			// left to signal failure — the client's parser will report it.
			truncated(err)
			return
		}
		if err := ew.finish(); err != nil {
			truncated(err)
		}
	default:
		s.fault(w, http.StatusNotFound, &Fault{Code: "soap:Client", String: "no handler for " + walk.payload})
	}
}
