package endpoint

import (
	"bytes"
	"compress/flate"
	"encoding/base64"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/obs"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// sink stands in for a target: it answers every ExecuteTarget with an
// empty response and keeps each request body it received.
type sink struct {
	srv    *httptest.Server
	mu     sync.Mutex
	bodies [][]byte
}

func startSink(t *testing.T) *sink {
	t.Helper()
	s := &sink{}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		s.mu.Lock()
		s.bodies = append(s.bodies, body)
		s.mu.Unlock()
		io.WriteString(w, `<soap:Envelope xmlns:soap="`+soap.EnvelopeNS+`"><soap:Body><ExecuteTargetResponse/></soap:Body></soap:Envelope>`)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

// shipment returns the <shipment> element of the last request the sink
// received, parsed.
func (s *sink) shipment(t *testing.T) *xmltree.Node {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.bodies) == 0 {
		t.Fatal("the source delivered nothing")
	}
	body := s.bodies[len(s.bodies)-1]
	start := bytes.Index(body, []byte("<shipment"))
	end := bytes.Index(body, []byte("</ExecuteTarget>"))
	if start < 0 || end < start {
		t.Fatalf("no shipment in the %d-byte delivery", len(body))
	}
	n, err := xmltree.Parse(bytes.NewReader(body[start:end]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// callSource asks the source at c to execute req and deliver to target
// under session s1, filling in a chunk size when req names none; it
// returns the source's answer.
func callSource(c *soap.Client, req *xmltree.Node, target string) (*xmltree.Node, error) {
	req.SetAttr("target", target)
	req.SetAttr("session", "s1")
	if _, ok := req.Attr("chunk"); !ok {
		req.SetAttr("chunk", "1000")
	}
	return c.Call("ExecuteSource", req)
}

// TestExecuteSourceRefusesBadDeliveries: the source checks an
// ExecuteSource's delivery contract before it scans anything — a target
// that is not an absolute http or https URL, a missing session, a chunk
// size that is not positive and a negative first chunk are the caller's
// fault, and the source dials nothing.
func TestExecuteSourceRefusesBadDeliveries(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	met := obs.NewRegistry()
	ep := New("src", &RelBackend{Store: loadedStore(t, fr), Speed: 1, CanCombine: true}, nil)
	ep.SetObs(nil, met)
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()
	c := &soap.Client{URL: srv.URL}
	_, _, progXML := scanWriteProgram(t, fr)
	dialed := startSink(t)
	good := map[string]string{"target": dialed.srv.URL, "session": "s1", "chunk": "8", "from": "0"}
	for _, bad := range []struct{ attr, value string }{
		{"target", ""},
		{"target", "/soap"},
		{"target", "127.0.0.1:80/soap"},
		{"target", "ftp://127.0.0.1/soap"},
		{"target", "file:///etc/passwd"},
		{"target", "http:///soap"},
		{"target", "http://%zz/soap"},
		{"session", ""},
		{"chunk", ""},
		{"chunk", "0"},
		{"chunk", "-3"},
		{"chunk", "many"},
		{"from", "-1"},
		{"from", "later"},
	} {
		req := &xmltree.Node{Name: "ExecuteSource"}
		for _, k := range []string{"target", "session", "chunk", "from"} {
			if v := good[k]; k != bad.attr {
				req.SetAttr(k, v)
			} else if bad.value != "" || k == "session" {
				req.SetAttr(k, bad.value)
			}
		}
		req.AddKid(progXML)
		var f *soap.Fault
		if _, err := c.Call("ExecuteSource", req); !errors.As(err, &f) || f.Code != "soap:Client" {
			t.Errorf("%s=%q: err = %v, want a soap:Client fault", bad.attr, bad.value, err)
		}
	}
	if n := met.Counter("endpoint.source.executes").Value(); n != 0 {
		t.Errorf("the source ran its slice %d times for refused requests", n)
	}
	if len(dialed.bodies) != 0 {
		t.Errorf("the source delivered %d times for refused requests", len(dialed.bodies))
	}
}

// TestExecuteSourceCutsAndNumbersChunks: asked for a chunk size, the source
// sequences its own chunks densely from 0, and the shipment decodes; a
// chunk size that is not a positive integer is the caller's fault.
func TestExecuteSourceCutsAndNumbersChunks(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	c, done := startEndpoint(t, &RelBackend{Store: loadedStore(t, fr), Speed: 1, CanCombine: true})
	defer done()
	g, _, progXML := scanWriteProgram(t, fr)
	tgt := startSink(t)
	req := &xmltree.Node{Name: "ExecuteSource"}
	req.SetAttr("chunk", "1")
	req.AddKid(progXML)
	if _, err := callSource(c, req, tgt.srv.URL); err != nil {
		t.Fatal(err)
	}
	shipment := tgt.shipment(t)
	seen := make([]bool, len(shipment.Kids))
	for _, in := range shipment.Kids {
		v, _ := in.Attr("seq")
		seq, err := strconv.Atoi(v)
		if err != nil || seq >= len(seen) || seen[seq] || len(in.Kids) > 1 {
			t.Fatalf("chunk seq %q with %d records among %d chunks", v, len(in.Kids), len(seen))
		}
		seen[seq] = true
	}
	frags := g.FragmentsByName()
	if _, err := wire.ReadShipment(strings.NewReader(xmltree.Marshal(shipment, xmltree.WriteOptions{EmitAllIDs: true})),
		fr.Schema, func(name string) *core.Fragment { return frags[name] }); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"0", "-3", "many"} {
		req := &xmltree.Node{Name: "ExecuteSource"}
		req.SetAttr("chunk", bad)
		req.AddKid(progXML)
		var f *soap.Fault
		if _, err := callSource(c, req, tgt.srv.URL); !errors.As(err, &f) || f.Code != "soap:Client" {
			t.Errorf("chunk=%q: err = %v, want a soap:Client fault", bad, err)
		}
	}
}

// TestSweepFreesHeldRender: the render a failed delivery holds for a
// resume is an entry of the endpoint's one session table, so the sweep
// that collects idle target sessions collects it too, and a resume from it
// afterwards is answered xdx:RenderGone.
func TestSweepFreesHeldRender(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	ep := New("src", &RelBackend{Store: loadedStore(t, fr), Speed: 1, CanCombine: true}, nil)
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()
	c := &soap.Client{URL: srv.URL}
	_, _, progXML := scanWriteProgram(t, fr)
	// A target that is down: every delivery fails with a 503, after which
	// the source holds its render for the agency's resume.
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	deliver := func(from string) error {
		req := &xmltree.Node{Name: "ExecuteSource"}
		req.SetAttr("chunk", "1")
		req.SetAttr("from", from)
		req.AddKid(progXML)
		_, err := callSource(c, req, down.URL)
		return err
	}
	if err := deliver("0"); err == nil || soap.IsRenderGone(err) {
		t.Fatalf("delivery to a down target: err = %v, want a retryable hop fault", err)
	}
	if n := ep.Sessions().Len(); n != 1 {
		t.Fatalf("sessions = %d with a render held, want 1", n)
	}
	ep.Sessions().MaxAge = time.Millisecond
	time.Sleep(5 * time.Millisecond)
	if n := ep.Sessions().Sweep(); n != 1 {
		t.Fatalf("Sweep collected %d sessions, want the held render", n)
	}
	if err := deliver("1"); !soap.IsRenderGone(err) {
		t.Fatalf("resume after the sweep: err = %v, want xdx:RenderGone", err)
	}
	if n := ep.Sessions().Len(); n != 0 {
		t.Errorf("sessions = %d after the refused resume, want 0", n)
	}
}

// TestSelfDeliveryKeepsTargetState: an endpoint that is both parties to a
// delivery keeps one entry for the session, and dropping the render once
// the delivery succeeds leaves the target's half — the stored response an
// agency whose source answer was lost completes from — until EndSession.
func TestSelfDeliveryKeepsTargetState(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	ep := New("both", &RelBackend{Store: loadedStore(t, fr), Speed: 1, CanCombine: true}, nil)
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()
	c := &soap.Client{URL: srv.URL}
	_, _, progXML := scanWriteProgram(t, fr)
	req := &xmltree.Node{Name: "ExecuteSource"}
	req.AddKid(progXML)
	if _, err := callSource(c, req, srv.URL); err != nil {
		t.Fatal(err)
	}
	if n := ep.Sessions().Len(); n != 1 {
		t.Fatalf("sessions = %d after a delivery to itself, want its one entry", n)
	}
	status := &xmltree.Node{Name: "SessionStatus"}
	status.SetAttr("session", "s1")
	st, err := c.Call("SessionStatus", status)
	if err != nil {
		t.Fatal(err)
	}
	if known, _ := st.Attr("known"); known != "1" {
		t.Fatal("dropping the render took the target's session with it")
	}
	if done, _ := st.Attr("done"); done != "1" {
		t.Error("the target's session lost its stored response")
	}
	end := &xmltree.Node{Name: "EndSession"}
	end.SetAttr("session", "s1")
	if _, err := c.Call("EndSession", end); err != nil {
		t.Fatal(err)
	}
	if n := ep.Sessions().Len(); n != 0 {
		t.Errorf("sessions = %d after EndSession, want 0", n)
	}
}

// TestExecuteSourceRefusesUnknownCodec: the codec is named on
// ExecuteSource, and a name wire.ParseCodec refuses — the retired feed, a
// misspelling — is the caller's fault, raised before the source scans
// anything or dials the target.
func TestExecuteSourceRefusesUnknownCodec(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	met := obs.NewRegistry()
	ep := New("src", &RelBackend{Store: loadedStore(t, fr), Speed: 1, CanCombine: true}, nil)
	ep.SetObs(nil, met)
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()
	_, _, progXML := scanWriteProgram(t, fr)
	tgt := startSink(t)
	for _, name := range []string{"feed", "XML", "bin+zstd"} {
		req := &xmltree.Node{Name: "ExecuteSource"}
		req.SetAttr("codec", name)
		req.AddKid(progXML)
		var f *soap.Fault
		if _, err := callSource(&soap.Client{URL: srv.URL}, req, tgt.srv.URL); !errors.As(err, &f) || f.Code != "soap:Client" {
			t.Errorf("codec=%q: err = %v, want a soap:Client fault", name, err)
		}
	}
	if n := met.Counter("endpoint.source.executes").Value(); n != 0 {
		t.Errorf("the source ran its slice %d times for refused codecs", n)
	}
	if len(tgt.bodies) != 0 {
		t.Errorf("the source delivered %d times for refused codecs", len(tgt.bodies))
	}
}

// TestMalformedProgramIsClientFault: a program that does not decode is the
// caller's mistake on both ends — op ids that are not dense, an edge naming
// a fragment the program does not define, and an op output read by two
// edges (which Graph.Validate refuses), an op placed at neither S nor T,
// and a placement that ships data from target to source. ExecuteSource
// answers soap:Client before it scans or dials anything, and ExecuteTarget
// answers it before any record loads.
func TestMalformedProgramIsClientFault(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	g, a, good := scanWriteProgram(t, fr)
	sparse := good.Clone()
	sparse.Kids[1].Kids[0].SetAttr("id", "7")
	unknown := good.Clone()
	unknown.Kids[2].Kids[0].SetAttr("frag", "Nowhere")
	badLoc := good.Clone()
	badLoc.Kids[1].Kids[0].SetAttr("loc", "Q")
	// Every Scan at T and every other op at S: each edge ships T to S.
	scansAtT := good.Clone()
	for _, ox := range scansAtT.Kids[1].Kids {
		if kind, _ := ox.Attr("kind"); kind == "Scan" {
			ox.SetAttr("loc", "T")
		} else {
			ox.SetAttr("loc", "S")
		}
	}
	scan := g.Ops[0]
	g.Connect(scan, g.AddOp(core.OpWrite, scan.Out), scan.Out)
	fanOut, err := wire.EncodeProgram(g, append(a, core.LocTarget))
	if err != nil {
		t.Fatal(err)
	}
	programs := []struct {
		name string
		prog *xmltree.Node
	}{{"sparse op ids", sparse}, {"unknown edge fragment", unknown}, {"fan-out", fanOut},
		{"unknown location", badLoc}, {"target to source", scansAtT}}

	met := obs.NewRegistry()
	src := New("src", &RelBackend{Store: loadedStore(t, fr), Speed: 1, CanCombine: true}, nil)
	src.SetObs(nil, met)
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	sunk := startSink(t)
	fx, done := newSessionFixture(t)
	defer done()
	for _, p := range programs {
		req := &xmltree.Node{Name: "ExecuteSource"}
		req.AddKid(p.prog)
		var f *soap.Fault
		if _, err := callSource(&soap.Client{URL: srv.URL}, req, sunk.srv.URL); !errors.As(err, &f) || f.Code != "soap:Client" {
			t.Errorf("ExecuteSource, %s: err = %v, want a soap:Client fault", p.name, err)
		}
		prog := xmltree.Marshal(p.prog, xmltree.WriteOptions{EmitAllIDs: true})
		err := fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
			io.WriteString(w, `<ExecuteTarget session="bad">`+prog)
			_, werr := w.Write(fx.wire)
			io.WriteString(w, "</ExecuteTarget>")
			return werr
		}, &xmltree.TreeBuilder{})
		if !errors.As(err, &f) || f.Code != "soap:Client" {
			t.Errorf("ExecuteTarget, %s: err = %v, want a soap:Client fault", p.name, err)
		}
	}
	if n := met.Counter("endpoint.source.executes").Value(); n != 0 {
		t.Errorf("the source ran its slice %d times for refused programs", n)
	}
	if len(sunk.bodies) != 0 {
		t.Errorf("the source delivered %d times for refused programs", len(sunk.bodies))
	}
	if n := fx.store.Rows(); n != 0 {
		t.Errorf("refused programs loaded %d rows at the target", n)
	}
}

// TestExecuteTargetOversizedChunkIsClientFault: the target refuses a chunk
// past wire.MaxChunkBytes as the sender's fault, which no driver retries —
// whether its wire text is too long, a few KiB of bin+flate text inflate
// past the limit as the chunk parses at its close tag, or tagged-XML
// records stage more than the limit. A
// chunk in a format this build does not decode is refused the same way,
// instead of committing empty.
func TestExecuteTargetOversizedChunkIsClientFault(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	var zeros strings.Builder
	b64 := base64.NewEncoder(base64.StdEncoding, &zeros)
	fw, _ := flate.NewWriter(b64, flate.BestSpeed)
	fw.Write(make([]byte, wire.MaxChunkBytes+1))
	fw.Close()
	b64.Close()
	half := strings.Repeat("v", wire.MaxChunkBytes/2)
	for _, c := range []struct {
		name, format, enc, text string
		want                    error
	}{
		{"wire-text", "bin", "", strings.Repeat("A", wire.MaxChunkBytes+1), wire.ErrChunkTooLarge},
		{"inflated", "bin", "flate", zeros.String(), wire.ErrChunkTooLarge},
		{"tagged-xml", "", "", "<r>" + half + "</r><r>" + half + "</r>", wire.ErrChunkTooLarge},
		{"unknown-format", "zstd", "", "AAAA", wire.ErrChunkFormat},
	} {
		st, err := relstore.NewStore(fr)
		if err != nil {
			t.Fatal(err)
		}
		cl, done := startEndpoint(t, &RelBackend{Store: st, Speed: 1, CanCombine: true})
		_, _, progXML := scanWriteProgram(t, fr)
		err = cl.CallStream("ExecuteTarget", func(w io.Writer) error {
			io.WriteString(w, `<ExecuteTarget session="big">`)
			xmltree.Write(w, progXML, xmltree.WriteOptions{EmitAllIDs: true})
			io.WriteString(w, `<shipment><instance edge="0:`+fr.Fragments[0].Name+`" frag="`+fr.Fragments[0].Name+`" seq="0"`)
			if c.format != "" {
				io.WriteString(w, ` format="`+c.format+`"`)
			}
			if c.enc != "" {
				io.WriteString(w, ` enc="`+c.enc+`"`)
			}
			io.WriteString(w, ">"+c.text)
			_, err := io.WriteString(w, `</instance></shipment></ExecuteTarget>`)
			return err
		}, nil)
		status := &xmltree.Node{Name: "SessionStatus"}
		status.SetAttr("session", "big")
		resp, serr := cl.Call("SessionStatus", status)
		done()
		var f *soap.Fault
		if !errors.As(err, &f) || f.Code != "soap:Client" || !strings.Contains(f.String, c.want.Error()) {
			t.Fatalf("%s: err = %v, want a soap:Client fault naming %q", c.name, err, c.want)
		}
		if st.Rows() != 0 {
			t.Errorf("%s: refused delivery loaded %d rows", c.name, st.Rows())
		}
		if serr != nil {
			t.Fatal(serr)
		}
		if next, _ := resp.Attr("next"); next != "0" {
			t.Errorf("%s: refused chunk 0 checkpointed: next = %q", c.name, next)
		}
	}
}

// repeatByte reads as one byte repeated forever.
type repeatByte byte

func (c repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// countReader counts the bytes read through it.
type countReader struct {
	r io.Reader
	n int
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestExecuteTargetOversizedValueIsClientFault: a shipped record whose ID
// runs to 64 MiB is refused by the target's scanner as soon as it passes
// xmltree.MaxTokenBytes — a soap:Client fault, sent after reading at most
// the cap plus one read buffer of the value — and nothing loads.
func TestExecuteTargetOversizedValueIsClientFault(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	st, err := relstore.NewStore(fr)
	if err != nil {
		t.Fatal(err)
	}
	_, _, progXML := scanWriteProgram(t, fr)
	var head strings.Builder
	head.WriteString(`<soap:Envelope xmlns:soap="` + soap.EnvelopeNS + `"><soap:Body><ExecuteTarget session="big">`)
	xmltree.Write(&head, progXML, xmltree.WriteOptions{EmitAllIDs: true})
	name := fr.Fragments[0].Name
	head.WriteString(`<shipment><instance edge="0:` + name + `" frag="` + name + `" seq="0"><Customer ID="`)
	value := &countReader{r: io.LimitReader(repeatByte('7'), 64<<20)}
	body := io.MultiReader(strings.NewReader(head.String()), value,
		strings.NewReader(`"/></instance></shipment></ExecuteTarget></soap:Body></soap:Envelope>`))
	rec := httptest.NewRecorder()
	testEndpoint(&RelBackend{Store: st, Speed: 1, CanCombine: true}).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/soap", body))
	if resp := rec.Body.String(); rec.Code != 400 || !strings.Contains(resp, "soap:Client") || !strings.Contains(resp, xmltree.ErrTokenTooLarge.Error()) {
		t.Errorf("status %d, response %.300s; want a soap:Client fault naming %q", rec.Code, resp, xmltree.ErrTokenTooLarge)
	}
	if limit := xmltree.MaxTokenBytes + 64<<10; value.n > limit {
		t.Errorf("read %d bytes of the value before refusing it, want at most %d", value.n, limit)
	}
	if st.Rows() != 0 {
		t.Errorf("refused delivery loaded %d rows", st.Rows())
	}
}

// TestExecuteTargetMismatchedCloseTagIsClientFault: a tagged-XML record
// that closes an element with another element's name is malformed XML. The
// target refuses it as the sender's fault, and nothing loads.
func TestExecuteTargetMismatchedCloseTagIsClientFault(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	st, err := relstore.NewStore(fr)
	if err != nil {
		t.Fatal(err)
	}
	_, _, progXML := scanWriteProgram(t, fr)
	var req strings.Builder
	req.WriteString(`<soap:Envelope xmlns:soap="` + soap.EnvelopeNS + `"><soap:Body><ExecuteTarget session="tags">`)
	xmltree.Write(&req, progXML, xmltree.WriteOptions{EmitAllIDs: true})
	name := fr.Fragments[0].Name
	req.WriteString(`<shipment><instance edge="0:` + name + `" frag="` + name + `" seq="0">` +
		`<Customer ID="1" PARENT=""><CustName>x</Customer></CustName></instance></shipment>` +
		`</ExecuteTarget></soap:Body></soap:Envelope>`)
	rec := httptest.NewRecorder()
	testEndpoint(&RelBackend{Store: st, Speed: 1, CanCombine: true}).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/soap", strings.NewReader(req.String())))
	if resp := rec.Body.String(); rec.Code != 400 || !strings.Contains(resp, "soap:Client") {
		t.Errorf("status %d, response %.300s; want a soap:Client fault", rec.Code, resp)
	}
	if st.Rows() != 0 {
		t.Errorf("refused delivery loaded %d rows", st.Rows())
	}
}
