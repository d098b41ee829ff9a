package soap

// Regression tests for the status/header correctness fixes: non-2xx
// responses with parseable non-fault bodies, mustUnderstand enforcement
// (SOAP 1.1 §4.2.3) on both sides, and truncated response accounting.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xdx/internal/obs"
	"xdx/internal/xmltree"
)

// envelopeWith renders an envelope with the given header entries and body.
func envelopeWith(headers, body string) string {
	return `<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Header>` + headers +
		`</soap:Header><soap:Body>` + body + envSuffix
}

func TestCallNon2xxWithParseableNonFaultBody(t *testing.T) {
	// A proxy can substitute a well-formed (even SOAP-shaped) body while
	// the status still says the call failed. Before the fix the client
	// returned the payload as a success; it must surface a fault carrying
	// the status so retry policies see the failure.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "text/xml")
		w.WriteHeader(http.StatusBadGateway)
		io.WriteString(w, envPrefix+"<OpResponse>stale</OpResponse>"+envSuffix)
	}))
	defer srv.Close()
	c := &Client{URL: srv.URL}

	payload, err := c.Call("Op", &xmltree.Node{Name: "Op"})
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Call: want *Fault, got payload=%v err=%v", payload, err)
	}
	if f.Code != "soap:HTTP" || f.HTTPStatus != http.StatusBadGateway {
		t.Errorf("Call fault = %+v", f)
	}

	tb := &xmltree.TreeBuilder{}
	err = c.CallStream("Op", func(w io.Writer) error {
		_, err := io.WriteString(w, "<Op/>")
		return err
	}, tb)
	f = nil
	if !errors.As(err, &f) {
		t.Fatalf("CallStream: want *Fault, got %v", err)
	}
	if f.Code != "soap:HTTP" || f.HTTPStatus != http.StatusBadGateway {
		t.Errorf("CallStream fault = %+v", f)
	}
}

func TestServerFaultsOnUnrecognizedMustUnderstandHeader(t *testing.T) {
	srv := NewServer()
	srv.Handle("Echo", func(req *xmltree.Node) (*xmltree.Node, error) {
		return &xmltree.Node{Name: "EchoResponse"}, nil
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	body := envelopeWith(`<Transaction mustUnderstand="1">tx-1</Transaction>`, `<Echo/>`)
	resp, err := http.Post(hs.URL, "text/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	f, err := ScanEnvelope(resp.Body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil || f.Code != "soap:MustUnderstand" {
		t.Fatalf("want soap:MustUnderstand fault, got %+v", f)
	}

	// The same entry without the flag is informational and must not fault.
	body = envelopeWith(`<Transaction>tx-2</Transaction>`, `<Echo/>`)
	resp2, err := http.Post(hs.URL, "text/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("optional header: status = %d, want 200", resp2.StatusCode)
	}
}

// TestServerRefusesMandatoryCodecsEntry: the server understands no codecs
// entry (a codec is named on the request payload), so a mandatory one
// faults soap:MustUnderstand like any unknown entry, before the handler
// sees the request.
func TestServerRefusesMandatoryCodecsEntry(t *testing.T) {
	srv := NewServer()
	ran := false
	srv.HandleStream("Op", func(Header, []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error) {
		ran = true
		return &xmltree.TreeBuilder{}, func(w io.Writer) error {
			_, err := io.WriteString(w, "<OpResponse/>")
			return err
		}, nil
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	body := envelopeWith(`<xdx:codecs xmlns:xdx="urn:xdx" soap:mustUnderstand="1">bin xml</xdx:codecs>`, `<Op/>`)
	resp, err := http.Post(hs.URL, "text/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	f, err := ScanEnvelope(resp.Body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || f == nil || f.Code != "soap:MustUnderstand" {
		t.Fatalf("status %d, fault %+v; want a soap:MustUnderstand fault under 500", resp.StatusCode, f)
	}
	if ran {
		t.Error("the handler ran for a request carrying an unknown mandatory entry")
	}
}

func TestClientFaultsOnMustUnderstandResponseHeader(t *testing.T) {
	// A response header entry the client cannot understand but must is a
	// protocol breach; before the fix both bindings skipped headers
	// silently.
	respEnv := envelopeWith(`<Expires soap:mustUnderstand="1">soon</Expires>`, `<OpResponse/>`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "text/xml")
		io.WriteString(w, respEnv)
	}))
	defer srv.Close()
	c := &Client{URL: srv.URL}

	_, err := c.Call("Op", &xmltree.Node{Name: "Op"})
	var f *Fault
	if !errors.As(err, &f) || f.Code != "soap:MustUnderstand" {
		t.Fatalf("Call: want soap:MustUnderstand, got %v", err)
	}

	err = c.CallStream("Op", func(w io.Writer) error {
		_, err := io.WriteString(w, "<Op/>")
		return err
	}, &xmltree.TreeBuilder{})
	f = nil
	if !errors.As(err, &f) || f.Code != "soap:MustUnderstand" {
		t.Fatalf("CallStream: want soap:MustUnderstand, got %v", err)
	}
}

// failAfterWriter is a ResponseWriter whose connection dies after n bytes.
type failAfterWriter struct {
	hdr  http.Header
	n    int
	code int
}

func (f *failAfterWriter) Header() http.Header {
	if f.hdr == nil {
		f.hdr = make(http.Header)
	}
	return f.hdr
}

func (f *failAfterWriter) WriteHeader(code int) { f.code = code }

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("connection torn")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, fmt.Errorf("connection torn")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestTruncatedResponsesCounted(t *testing.T) {
	srv := NewServer()
	srv.HandleStream("Big", func(env Header, attrs []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error) {
		return &xmltree.TreeBuilder{}, func(w io.Writer) error {
			_, err := io.WriteString(w, "<BigResponse>"+strings.Repeat("x", 256)+"</BigResponse>")
			return err
		}, nil
	})
	met := obs.NewRegistry()
	srv.SetObs(nil, met)

	req := func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/soap", strings.NewReader(envPrefix+"<Big/>"+envSuffix))
		r.Header.Set("Content-Type", "text/xml")
		return r
	}

	// Mid-payload failure: the envelope is already flowing, so the only
	// signal left is the metric (and the peer's parse error).
	srv.ServeHTTP(&failAfterWriter{n: 100}, req())
	if got := met.Counter("soap.server.truncated").Value(); got != 1 {
		t.Fatalf("truncated after mid-payload tear = %d, want 1", got)
	}

	// The closing </soap:Envelope> failing must be counted too — before
	// the fix finish() dropped the write error on the floor.
	srv.ServeHTTP(&failAfterWriter{n: len(envPrefix) + 300}, req())
	if got := met.Counter("soap.server.truncated").Value(); got != 2 {
		t.Fatalf("truncated after suffix tear = %d, want 2", got)
	}

	// A healthy response leaves the counter alone.
	srv.ServeHTTP(httptest.NewRecorder(), req())
	if got := met.Counter("soap.server.truncated").Value(); got != 2 {
		t.Fatalf("healthy response bumped truncated to %d", got)
	}
}
