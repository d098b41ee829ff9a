package soap

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xdx/internal/obs"
	"xdx/internal/xmltree"
)

// streamServer registers a streaming Echo handler (request text collected
// via SAX events, response written straight to the wire) alongside the
// failure modes the client must surface.
func streamServer() *Server {
	srv := NewServer()
	srv.HandleStream("Echo", func(env Header, attrs []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error) {
		tb := &xmltree.TreeBuilder{}
		return tb, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "<EchoResponse>%s</EchoResponse>", tb.Root().Text)
			return err
		}, nil
	})
	srv.HandleStream("Fail", func(env Header, attrs []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error) {
		return &xmltree.TreeBuilder{}, func(w io.Writer) error {
			return fmt.Errorf("kaput")
		}, nil
	})
	srv.HandleStream("FailTyped", func(env Header, attrs []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error) {
		return &xmltree.TreeBuilder{}, func(w io.Writer) error {
			return &Fault{Code: "soap:Client", String: "bad input"}
		}, nil
	})
	return srv
}

func TestCallStreamEcho(t *testing.T) {
	hs := httptest.NewServer(streamServer())
	defer hs.Close()
	c := &Client{URL: hs.URL}

	tb := &xmltree.TreeBuilder{}
	err := c.CallStream("echo", func(w io.Writer) error {
		_, err := io.WriteString(w, "<Echo>xyzzy</Echo>")
		return err
	}, tb)
	if err != nil {
		t.Fatal(err)
	}
	resp := tb.Root()
	if resp == nil || resp.Name != "EchoResponse" || resp.Text != "xyzzy" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestCallStreamAgainstTreeHandler(t *testing.T) {
	// A streaming client must interoperate with a buffered tree handler:
	// the wire bytes are the same either way.
	srv := NewServer()
	srv.Handle("Echo", func(req *xmltree.Node) (*xmltree.Node, error) {
		return &xmltree.Node{Name: "EchoResponse", Text: req.Text}, nil
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{URL: hs.URL}

	tb := &xmltree.TreeBuilder{}
	err := c.CallStream("echo", func(w io.Writer) error {
		_, err := io.WriteString(w, "<Echo>plugh</Echo>")
		return err
	}, tb)
	if err != nil {
		t.Fatal(err)
	}
	if resp := tb.Root(); resp == nil || resp.Text != "plugh" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestBufferedCallAgainstStreamHandler(t *testing.T) {
	// And the reverse: a buffered Call against a streaming handler.
	hs := httptest.NewServer(streamServer())
	defer hs.Close()
	c := &Client{URL: hs.URL}

	resp, err := c.Call("echo", &xmltree.Node{Name: "Echo", Text: "plover"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "EchoResponse" || resp.Text != "plover" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestCallStreamFaults(t *testing.T) {
	hs := httptest.NewServer(streamServer())
	defer hs.Close()
	c := &Client{URL: hs.URL}

	err := c.CallStream("fail", func(w io.Writer) error {
		_, err := io.WriteString(w, "<Fail/>")
		return err
	}, nil)
	var f *Fault
	if !errors.As(err, &f) || f.Code != "soap:Server" {
		t.Fatalf("want server fault, got %v", err)
	}
	if f.HTTPStatus != 500 {
		t.Errorf("fault HTTPStatus = %d, want 500", f.HTTPStatus)
	}
	if !strings.Contains(f.Error(), "HTTP 500") {
		t.Errorf("Error() should carry the HTTP status: %q", f.Error())
	}

	err = c.CallStream("fail", func(w io.Writer) error {
		_, err := io.WriteString(w, "<FailTyped/>")
		return err
	}, nil)
	if !errors.As(err, &f) || f.Code != "soap:Client" || f.String != "bad input" {
		t.Errorf("want typed fault, got %v", err)
	}

	err = c.CallStream("x", func(w io.Writer) error {
		_, err := io.WriteString(w, "<Unknown/>")
		return err
	}, nil)
	if !errors.As(err, &f) || f.HTTPStatus != 404 {
		t.Errorf("unknown action: want 404 fault, got %v", err)
	}
}

func TestCallFaultHTTPStatus(t *testing.T) {
	// The buffered client also records the transport status on faults.
	hs := httptest.NewServer(streamServer())
	defer hs.Close()
	c := &Client{URL: hs.URL}
	_, err := c.Call("fail", &xmltree.Node{Name: "Fail"})
	var f *Fault
	if !errors.As(err, &f) || f.HTTPStatus != 500 {
		t.Errorf("want fault with HTTP 500, got %v", err)
	}
}

func TestCallStreamWriteBodyError(t *testing.T) {
	hs := httptest.NewServer(streamServer())
	defer hs.Close()
	c := &Client{URL: hs.URL}
	boom := fmt.Errorf("disk on fire")
	err := c.CallStream("echo", func(w io.Writer) error { return boom }, nil)
	if !errors.Is(err, boom) {
		t.Errorf("want the body writer's error, got %v", err)
	}
}

func TestClientTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := NewServer()
	srv.HandleStream("Slow", func(env Header, attrs []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error) {
		return &xmltree.TreeBuilder{}, func(w io.Writer) error {
			<-block
			return nil
		}, nil
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer close(block) // unblock the handler before Close waits on it

	c := &Client{URL: hs.URL, Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := c.Call("slow", &xmltree.Node{Name: "Slow"})
	if err == nil {
		t.Fatal("want timeout error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestScanEnvelopeFault(t *testing.T) {
	env := `<soap:Envelope xmlns:soap="` + EnvelopeNS + `"><soap:Body>` +
		`<soap:Fault><faultcode>soap:Server</faultcode><faultstring>boom</faultstring><detail>stack</detail></soap:Fault>` +
		`</soap:Body></soap:Envelope>`
	f, err := ScanEnvelope(strings.NewReader(env), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil || f.Code != "soap:Server" || f.String != "boom" || f.Detail != "stack" {
		t.Errorf("fault = %+v", f)
	}

	if _, err := ScanEnvelope(strings.NewReader("<NotAnEnvelope/>"), nil); err == nil {
		t.Error("wrong root must fail")
	}
}

// rejectHandler refuses the first payload event — the shape of an
// application-level decode rejection (e.g. a shipment referencing an
// unknown fragment).
type rejectHandler struct{ err error }

func (r rejectHandler) StartElement(string, []xmltree.Attr) error { return r.err }
func (r rejectHandler) Text(string) error                         { return nil }
func (r rejectHandler) EndElement(string) error                   { return nil }

// TestCallStreamPayloadError checks the transient/permanent seam the retry
// policy classifies on: an error raised by the caller's payload handler
// (the response arrived, decoding refused it) surfaces as *PayloadError,
// while a response torn mid-envelope stays a bare parse error — only the
// latter is worth retrying.
func TestCallStreamPayloadError(t *testing.T) {
	hs := httptest.NewServer(streamServer())
	defer hs.Close()
	c := &Client{URL: hs.URL}

	reject := errors.New("shipment references unknown fragment")
	err := c.CallStream("echo", func(w io.Writer) error {
		_, err := io.WriteString(w, "<Echo>xyzzy</Echo>")
		return err
	}, rejectHandler{reject})
	var pe *PayloadError
	if !errors.As(err, &pe) || !errors.Is(err, reject) {
		t.Fatalf("handler rejection = %v, want *PayloadError wrapping the cause", err)
	}

	// Same call against a response cut mid-envelope: a tokenizer error,
	// not a payload rejection.
	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `<soap:Envelope xmlns:soap="`+EnvelopeNS+`"><soap:Body><EchoResp`)
	}))
	defer cut.Close()
	c2 := &Client{URL: cut.URL}
	err = c2.CallStream("echo", func(w io.Writer) error {
		_, err := io.WriteString(w, "<Echo>x</Echo>")
		return err
	}, &xmltree.TreeBuilder{})
	if err == nil {
		t.Fatal("truncated response scanned clean")
	}
	if errors.As(err, &pe) {
		t.Fatalf("truncation misclassified as a payload rejection: %v", err)
	}
}

// TestExchangeEntryTravelsOnEveryCall: a client's exchange id reaches the
// server's handlers on buffered and streamed calls alike, as a mandatory
// header entry the server understands, and the server's request log line
// carries it.
func TestExchangeEntryTravelsOnEveryCall(t *testing.T) {
	var got []string
	s := NewServer()
	s.Handle("Ping", func(*xmltree.Node) (*xmltree.Node, error) { return &xmltree.Node{Name: "Pong"}, nil })
	s.HandleStream("Push", func(env Header, _ []xmltree.Attr) (xmltree.AttrHandler, RespondFunc, error) {
		got = append(got, env.Exchange)
		return &xmltree.TreeBuilder{}, func(w io.Writer) error { _, err := io.WriteString(w, "<Pushed/>"); return err }, nil
	})
	var logBuf strings.Builder
	s.SetObs(obs.NewTextLogger(&logBuf, obs.LevelDebug), nil)
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := &Client{URL: srv.URL, Exchange: "e1-7"}
	if err := c.CallStream("Push", func(w io.Writer) error { _, err := io.WriteString(w, "<Push/>"); return err }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("Ping", &xmltree.Node{Name: "Ping"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "e1-7" {
		t.Errorf("stream handler saw exchange ids %q, want [e1-7]", got)
	}
	if n := strings.Count(logBuf.String(), "exchange=e1-7"); n != 2 {
		t.Errorf("%d of the server's request lines carry the id, want 2:\n%s", n, logBuf.String())
	}
}
