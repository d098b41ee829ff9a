// Package soap implements the SOAP 1.1 over HTTP binding the paper's WSDL
// services deploy on (§1.1): envelope construction, one envelope walker
// that reads requests and responses alike, fault handling, a client, and
// an http.Handler server that dispatches on the body's root element.
package soap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"xdx/internal/obs"
	"xdx/internal/xmltree"
)

// EnvelopeNS is the SOAP 1.1 envelope namespace.
const EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"

// Fault is a SOAP 1.1 fault, usable as a Go error.
type Fault struct {
	Code   string
	String string
	Detail string
	// HTTPStatus is the HTTP status the fault arrived with, when it came
	// back through a client call (zero otherwise — e.g. server-side faults
	// about to be sent).
	HTTPStatus int
}

// Error implements error.
func (f *Fault) Error() string {
	if f.HTTPStatus != 0 {
		return fmt.Sprintf("soap: fault %s (HTTP %d): %s", f.Code, f.HTTPStatus, f.String)
	}
	return fmt.Sprintf("soap: fault %s: %s", f.Code, f.String)
}

// CodeOverloaded is the fault code a server sheds load with: the request
// was admissible but the server is over its concurrency or rate budget.
// Shed faults travel as HTTP 503 so intermediaries and retry policies see
// a standard transient-overload signal.
const CodeOverloaded = "soap:Server.Overloaded"

// OverloadedFault builds a load-shed fault. The detail string names the
// exhausted budget ("tenant svc over in-flight budget", "queue full") so
// clients can distinguish their own overdrive from global pressure.
func OverloadedFault(detail string) *Fault {
	return &Fault{
		Code:       CodeOverloaded,
		String:     "server over capacity",
		Detail:     detail,
		HTTPStatus: http.StatusServiceUnavailable,
	}
}

// IsOverloaded reports whether err is (or wraps) a load-shed fault.
func IsOverloaded(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Code == CodeOverloaded
}

// CodeColdDelta is the fault code a target answers a delta delivery with
// when it has no warm base snapshot for the exchange stream (endpoint
// restart, swept state, or a fragmentation-epoch change): the agency must
// fall back to a full re-ship. Retrying the delta cannot help, so the
// fault is permanent for the session that received it.
const CodeColdDelta = "xdx:ColdDelta"

// ColdDeltaFault builds the cold-base answer to a delta delivery.
func ColdDeltaFault(detail string) *Fault {
	return &Fault{Code: CodeColdDelta, String: "no warm delta base for stream", Detail: detail}
}

// IsColdDelta reports whether err is (or wraps) a cold-delta fault.
func IsColdDelta(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Code == CodeColdDelta
}

// CodeRenderGone is the fault code a source answers a resumed delivery
// (from > 0) with when it no longer holds the render the delivery session
// started from (a restart, an idle sweep): chunks from a second execution
// of the slice must never complete a session the first one began, so the
// agency ends that session and starts a fresh one.
const CodeRenderGone = "xdx:RenderGone"

// RenderGoneFault builds the source's refusal of a resume it holds no
// render for.
func RenderGoneFault(detail string) *Fault {
	return &Fault{Code: CodeRenderGone, String: "no render held for the delivery session", Detail: detail}
}

// IsRenderGone reports whether err is (or wraps) a render-gone fault.
func IsRenderGone(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Code == CodeRenderGone
}

// faultStatus picks the HTTP status a server-side fault is sent under: the
// fault's own HTTPStatus when a handler set one (e.g. 503 on load shed),
// 500 otherwise.
func faultStatus(f *Fault) int {
	if f.HTTPStatus >= 400 && f.HTTPStatus < 600 {
		return f.HTTPStatus
	}
	return http.StatusInternalServerError
}

// mustUnderstand reads a header entry's mustUnderstand flag (SOAP 1.1 uses
// "1"/"0"; the scanner has already stripped any prefix).
func mustUnderstand(attrs []xmltree.Attr) bool {
	for _, a := range attrs {
		if a.Name == "mustUnderstand" && a.Value == "1" {
			return true
		}
	}
	return false
}

// withExchange prepends the exchange id to a log line's key/value pairs,
// when there is one.
func withExchange(id string, kv ...any) []any {
	if id == "" {
		return kv
	}
	return append([]any{"exchange", id}, kv...)
}

// writeFault writes a fault envelope.
func writeFault(w io.Writer, f *Fault) error {
	n := &xmltree.Node{Name: "soap:Fault"}
	n.AddKid(&xmltree.Node{Name: "faultcode", Text: f.Code})
	n.AddKid(&xmltree.Node{Name: "faultstring", Text: f.String})
	if f.Detail != "" {
		n.AddKid(&xmltree.Node{Name: "detail", Text: f.Detail})
	}
	if _, err := io.WriteString(w, envPrefix); err != nil {
		return err
	}
	if err := xmltree.Write(w, n, xmltree.WriteOptions{}); err != nil {
		return err
	}
	_, err := io.WriteString(w, envSuffix)
	return err
}

// Client calls a SOAP endpoint.
type Client struct {
	// URL is the service address (the soap:address location of the WSDL
	// port).
	URL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Timeout bounds one call, body included. Zero means DefaultTimeout;
	// negative disables the bound.
	Timeout time.Duration
	// Logger, when set, narrates calls at debug level and failures at
	// warn. Nil is silent.
	Logger obs.Logger
	// Metrics, when set, receives per-call counters (calls, faults,
	// request/response bytes) and a call-duration histogram under
	// soap.client.*. Nil records nothing.
	Metrics *obs.Registry
	// Exchange, when set, is the id of the exchange the calls belong to:
	// it travels on every request as a mandatory header entry (see
	// envOpen) and is stamped on the client's log lines.
	Exchange string
}

// observe records one finished call on the client's logger and metrics.
func (c *Client) observe(action string, start time.Time, reqBytes, respBytes int64, err error) {
	m := c.Metrics
	m.Counter("soap.client.calls").Inc()
	m.Counter("soap.client.req_bytes").Add(reqBytes)
	m.Counter("soap.client.resp_bytes").Add(respBytes)
	m.Histogram("soap.client.millis").ObserveSince(start)
	if err != nil {
		m.Counter("soap.client.errors").Inc()
		obs.OrNop(c.Logger).Log(obs.LevelWarn, "soap call failed",
			withExchange(c.Exchange, "action", action, "url", c.URL, "err", err)...)
		return
	}
	if l := obs.OrNop(c.Logger); l.Enabled(obs.LevelDebug) {
		l.Log(obs.LevelDebug, "soap call", withExchange(c.Exchange,
			"action", action, "url", c.URL,
			"reqBytes", reqBytes, "respBytes", respBytes,
			"millis", fmt.Sprintf("%.3f", float64(time.Since(start))/float64(time.Millisecond)))...)
	}
}

// countingReader counts bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

// Read implements io.Reader.
func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Call posts the payload as a SOAP request with the given SOAPAction and
// returns the response payload, nil for an empty body. The request is
// buffered, so it travels with an explicit Content-Length. SOAP faults come
// back as *Fault errors carrying the HTTP status.
func (c *Client) Call(action string, payload *xmltree.Node) (*xmltree.Node, error) {
	start := time.Now()
	var buf bytes.Buffer
	buf.WriteString(envOpen(c.Exchange))
	if payload != nil {
		if err := xmltree.Write(&buf, payload, xmltree.WriteOptions{EmitAllIDs: true}); err != nil {
			return nil, fmt.Errorf("soap: marshal request: %w", err)
		}
	}
	buf.WriteString(envSuffix)
	sent := int64(buf.Len())
	var resp xmltree.TreeBuilder
	if err := c.post(action, start, &buf, &sent, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Root(), nil
}

// post sends one request envelope read from body and scans the response
// envelope's payload into h (nil discards it). It is what Call and
// CallStream share: the status→fault mapping, the response's mandatory
// header entries, the request writer's error and observe. stop, when
// non-nil, ends the request body's producer with the given cause and
// returns the producer's own error; *sent is read only after stop returns.
func (c *Client) post(action string, start time.Time, body io.Reader, sent *int64, stop func(cause error) error, h xmltree.AttrHandler) error {
	if stop == nil {
		stop = func(error) error { return nil }
	}
	ctx, cancel := c.callContext()
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL, body)
	if err != nil {
		stop(err)
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
		if werr := stop(err); werr != nil {
			err = fmt.Errorf("soap: write request: %w", werr)
		}
		c.observe(action, start, *sent, 0, err)
		return err
	}
	defer func() {
		// Drain (bounded) before close so the keep-alive connection stays
		// reusable even when the body was not consumed to EOF.
		drainBody(resp.Body)
		resp.Body.Close()
	}()
	cr := &countingReader{r: resp.Body}
	fault, err := ScanEnvelope(cr, h)
	werr := stop(io.ErrClosedPipe)
	switch {
	case fault != nil:
		fault.HTTPStatus = resp.StatusCode
		err = fault
	case err != nil:
		if f, ok := err.(*Fault); ok {
			// The walk itself faulted (an un-understood mandatory header
			// entry); carry the status like a wire fault.
			f.HTTPStatus = resp.StatusCode
		} else {
			err = httpStatusError(resp.StatusCode, err)
		}
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		// The body scanned as a non-fault envelope, but the status says the
		// call failed (proxy substitution, broken gateway). Surface it as a
		// fault carrying the status so retry policies can classify it.
		err = &Fault{
			Code:       "soap:HTTP",
			String:     fmt.Sprintf("HTTP %s with non-fault body", http.StatusText(resp.StatusCode)),
			HTTPStatus: resp.StatusCode,
		}
	case werr != nil:
		err = fmt.Errorf("soap: write request: %w", werr)
	}
	c.observe(action, start, *sent, cr.n, err)
	return err
}

// maxDrain bounds how much of an unconsumed response body Call reads
// before closing, trading connection reuse against unbounded garbage.
const maxDrain = 256 << 10

// drainBody consumes at most maxDrain leftover bytes of a response body.
func drainBody(r io.Reader) {
	io.Copy(io.Discard, io.LimitReader(r, maxDrain))
}

// httpStatusError converts a response that failed envelope parsing into
// the most useful error: on a non-2xx status the failure is the HTTP
// outage itself (a proxy error page, an injected 503 — bodies that were
// never SOAP), surfaced as a *Fault carrying the status so retry policies
// can classify it; on a 2xx it is a genuine malformed envelope.
func httpStatusError(status int, err error) error {
	if status < 200 || status >= 300 {
		return &Fault{
			Code:       "soap:HTTP",
			String:     fmt.Sprintf("HTTP %s with unparsable body", http.StatusText(status)),
			Detail:     err.Error(),
			HTTPStatus: status,
		}
	}
	return fmt.Errorf("soap: parse response (HTTP %d): %w", status, err)
}

// HandlerFunc processes one request payload and returns the response
// payload. Returning an error produces a SOAP fault.
type HandlerFunc func(req *xmltree.Node) (*xmltree.Node, error)

// Server dispatches SOAP requests to handlers by the body's root element
// name. Every handler is a stream handler (HandleStream), which consumes
// the payload as parse events and writes the response directly to the
// connection; Handle adapts a handler over the materialized payload onto
// that dispatch — see ServeHTTP in stream.go.
type Server struct {
	streams map[string]StreamHandlerFunc
	logger  obs.Logger
	metrics *obs.Registry
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{streams: make(map[string]StreamHandlerFunc)}
}

// Handle registers a handler for requests whose body root is elem: the
// payload is built into a tree, and the handler's answer is written as the
// response payload (a nil answer is an empty body).
func (s *Server) Handle(elem string, h HandlerFunc) {
	s.HandleStream(elem, func(Header, []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error) {
		req := &xmltree.TreeBuilder{}
		return req, func(w io.Writer) error {
			resp, err := h(req.Root())
			if err != nil || resp == nil {
				return err
			}
			return xmltree.Write(w, resp, xmltree.WriteOptions{EmitAllIDs: true})
		}, nil
	})
}

// SetObs attaches a logger and metric registry to the server; requests are
// counted and timed under soap.server.*. Either may be nil ("off"). Call
// before serving — the fields are read without locks.
func (s *Server) SetObs(l obs.Logger, m *obs.Registry) {
	s.logger = l
	s.metrics = m
}

// fail answers a request with a handler's error: a *Fault under its own
// status, any other error as a soap:Server fault.
func (s *Server) fail(w http.ResponseWriter, err error) {
	f, ok := err.(*Fault)
	if !ok {
		f = &Fault{Code: "soap:Server", String: err.Error()}
	}
	s.fault(w, faultStatus(f), f)
}

func (s *Server) fault(w http.ResponseWriter, status int, f *Fault) {
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	w.WriteHeader(status)
	writeFault(w, f)
}
