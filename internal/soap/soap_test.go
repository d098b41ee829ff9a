package soap

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xdx/internal/xmltree"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	var payload xmltree.TreeBuilder
	if f, err := ScanEnvelope(strings.NewReader(envPrefix+"<Ping>hello</Ping>"+envSuffix), &payload); f != nil || err != nil {
		t.Fatalf("ScanEnvelope = %v, %v", f, err)
	}
	if got := payload.Root(); got == nil || got.Name != "Ping" || got.Text != "hello" {
		t.Errorf("payload = %+v", got)
	}
}

// TestCallFault: a fault envelope comes back from Call as a *Fault carrying
// its code, string and detail and the HTTP status it arrived with.
func TestCallFault(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusInternalServerError)
		writeFault(w, &Fault{Code: "soap:Server", String: "boom", Detail: "stack"})
	}))
	defer srv.Close()
	_, err := (&Client{URL: srv.URL}).Call("Op", &xmltree.Node{Name: "Op"})
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if f.Code != "soap:Server" || f.String != "boom" || f.Detail != "stack" || f.HTTPStatus != http.StatusInternalServerError {
		t.Errorf("fault = %+v", f)
	}
	if !strings.Contains(f.Error(), "boom") {
		t.Errorf("Error() = %q", f.Error())
	}
}

// TestEnvelopeWithHeader: a header entry that is not mandatory and that
// the server does not understand is skipped, and the body still reaches
// the handler.
func TestEnvelopeWithHeader(t *testing.T) {
	var body *xmltree.Node
	srv := NewServer()
	srv.HandleStream("Ping", func(Header, []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error) {
		tb := &xmltree.TreeBuilder{}
		return tb, func(io.Writer) error { body = tb.Root(); return nil }, nil
	})
	rec := httptest.NewRecorder()
	env := envelopeWith(`<TxID mustUnderstand="0"><part>tx-42</part></TxID>`, `<Ping>hi</Ping>`)
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/soap", strings.NewReader(env)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if body == nil || body.Name != "Ping" || body.Text != "hi" {
		t.Errorf("body = %+v", body)
	}
}

// TestScanEnvelopeErrors: a body that is not a SOAP envelope, or an
// envelope without a body, is refused.
func TestScanEnvelopeErrors(t *testing.T) {
	for _, doc := range []string{
		"",
		"service melting",
		"<NotAnEnvelope/>",
		`<soap:Envelope xmlns:soap="` + EnvelopeNS + `"/>`,
		`<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Header/></soap:Envelope>`,
	} {
		if _, err := ScanEnvelope(strings.NewReader(doc), nil); err == nil {
			t.Errorf("ScanEnvelope(%q): want error", doc)
		}
	}
}

func TestClientServerEcho(t *testing.T) {
	srv := NewServer()
	srv.Handle("Echo", func(req *xmltree.Node) (*xmltree.Node, error) {
		return &xmltree.Node{Name: "EchoResponse", Text: req.Text}, nil
	})
	srv.Handle("Fail", func(req *xmltree.Node) (*xmltree.Node, error) {
		return nil, fmt.Errorf("kaput")
	})
	srv.Handle("FailTyped", func(req *xmltree.Node) (*xmltree.Node, error) {
		return nil, &Fault{Code: "soap:Client", String: "bad input"}
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{URL: hs.URL}

	resp, err := c.Call("echo", &xmltree.Node{Name: "Echo", Text: "xyzzy"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "EchoResponse" || resp.Text != "xyzzy" {
		t.Errorf("resp = %+v", resp)
	}

	_, err = c.Call("fail", &xmltree.Node{Name: "Fail"})
	if f, ok := err.(*Fault); !ok || f.Code != "soap:Server" {
		t.Errorf("want server fault, got %v", err)
	}
	_, err = c.Call("fail", &xmltree.Node{Name: "FailTyped"})
	if f, ok := err.(*Fault); !ok || f.Code != "soap:Client" {
		t.Errorf("want typed fault, got %v", err)
	}
	_, err = c.Call("x", &xmltree.Node{Name: "Unknown"})
	if err == nil {
		t.Error("unknown action must fault")
	}
}

func TestServerRejectsGet(t *testing.T) {
	hs := httptest.NewServer(NewServer())
	defer hs.Close()
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestServerMalformedEnvelope(t *testing.T) {
	hs := httptest.NewServer(NewServer())
	defer hs.Close()
	resp, err := http.Post(hs.URL, "text/xml", strings.NewReader("<broken"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestCallEmptyBodyReturnsNilPayload: a response envelope whose body is
// empty is a successful call without a payload.
func TestCallEmptyBodyReturnsNilPayload(t *testing.T) {
	srv := NewServer()
	srv.HandleStream("Op", func(Header, []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error) {
		return &xmltree.TreeBuilder{}, func(io.Writer) error { return nil }, nil
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := (&Client{URL: hs.URL}).Call("Op", &xmltree.Node{Name: "Op"})
	if err != nil || resp != nil {
		t.Fatalf("Call = %+v, %v; want a nil payload and no error", resp, err)
	}
}

func TestCallSurfacesHTTPStatusOnUnparsableBody(t *testing.T) {
	// A 503 with a plain-text body (proxy error page, injected outage) is
	// not a SOAP fault, but the client must still surface the status so
	// retry policies can classify the failure.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "service melting", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := &Client{URL: srv.URL}
	_, err := c.Call("Op", &xmltree.Node{Name: "Op"})
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %T: %v", err, err)
	}
	if f.HTTPStatus != http.StatusServiceUnavailable || f.Code != "soap:HTTP" {
		t.Fatalf("fault = %+v", f)
	}
	if !strings.Contains(f.Detail, "") { // detail carries the parse error
		t.Fatalf("fault detail empty: %+v", f)
	}
}

func TestCallStreamSurfacesHTTPStatusOnUnparsableBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer srv.Close()
	c := &Client{URL: srv.URL}
	err := c.CallStream("Op", func(w io.Writer) error {
		_, err := io.WriteString(w, "<Op/>")
		return err
	}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %T: %v", err, err)
	}
	if f.HTTPStatus != http.StatusBadGateway || f.Code != "soap:HTTP" {
		t.Fatalf("fault = %+v", f)
	}
}

func TestCallParseErrorOn200StaysPlainError(t *testing.T) {
	// Malformed XML on a 200 is a protocol bug, not an HTTP outage: it must
	// not come back as a Fault (which retry policies could misread).
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<not-an-envelope")
	}))
	defer srv.Close()
	c := &Client{URL: srv.URL}
	_, err := c.Call("Op", &xmltree.Node{Name: "Op"})
	if err == nil {
		t.Fatal("malformed body accepted")
	}
	var f *Fault
	if errors.As(err, &f) {
		t.Fatalf("parse error on 200 misreported as fault: %+v", f)
	}
}

func TestCallDrainsBodyForConnectionReuse(t *testing.T) {
	// After an envelope parse error the client must drain (bounded) the
	// rest of the body before closing, so the keep-alive connection is
	// reusable: both calls here should arrive over the same connection.
	var remotes []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remotes = append(remotes, r.RemoteAddr)
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "garbage after the point the parser gives up <<<<")
		io.WriteString(w, strings.Repeat("x", 8192))
	}))
	defer srv.Close()
	c := &Client{URL: srv.URL}
	for i := 0; i < 2; i++ {
		if _, err := c.Call("Op", &xmltree.Node{Name: "Op"}); err == nil {
			t.Fatal("garbage body accepted")
		}
	}
	if len(remotes) != 2 {
		t.Fatalf("served %d requests", len(remotes))
	}
	if remotes[0] != remotes[1] {
		t.Errorf("connection not reused: %s then %s", remotes[0], remotes[1])
	}
}
