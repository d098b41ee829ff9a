package endpoint

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/wsdlx"
	"xdx/internal/xmltree"
)

// scanWriteProgram builds the identical-fragmentation Scan->Write program
// used by the exchange tests, with scans at the source and writes at the
// target.
func scanWriteProgram(t *testing.T, fr *core.Fragmentation) (*core.Graph, core.Assignment, *xmltree.Node) {
	t.Helper()
	m, err := core.NewMapping(fr, fr)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.CanonicalProgram(m)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == core.OpWrite {
			a[op.ID] = core.LocTarget
		} else {
			a[op.ID] = core.LocSource
		}
	}
	progXML, err := wire.EncodeProgram(g, a)
	if err != nil {
		t.Fatal(err)
	}
	return g, a, progXML
}

// fragDict returns the program's fragment dictionary, as the target's
// shipment decoder resolves it.
func fragDict(g *core.Graph) func(name string) *core.Fragment {
	frags := g.FragmentsByName()
	return func(name string) *core.Fragment { return frags[name] }
}

// sessionFixture is everything a resumable-delivery test needs: a target
// endpoint (with its session store exposed), the serialized program, and
// the source's shipment rechunked one record per chunk on the wire.
type sessionFixture struct {
	client  *soap.Client
	ep      *Endpoint
	store   *relstore.Store
	srcRows int
	prog    string
	wire    []byte
	chunks  int
}

// sourceOutbound runs the Scan->Write program's source half on a real
// endpoint over srcStore and decodes the shipment it delivers.
func sourceOutbound(t *testing.T, fr *core.Fragmentation, srcStore *relstore.Store) (map[string]*core.Instance, *xmltree.Node) {
	t.Helper()
	srcClient, srcDone := startEndpoint(t, &RelBackend{Store: srcStore, Speed: 1, CanCombine: true})
	defer srcDone()
	g, _, progXML := scanWriteProgram(t, fr)
	tgt := startSink(t)
	reqS := &xmltree.Node{Name: "ExecuteSource"}
	reqS.AddKid(progXML)
	if _, err := callSource(srcClient, reqS, tgt.srv.URL); err != nil {
		t.Fatal(err)
	}
	shipment := tgt.shipment(t)
	outbound, err := wire.ReadShipment(
		strings.NewReader(xmltree.Marshal(shipment, xmltree.WriteOptions{EmitAllIDs: true})),
		fr.Schema, fragDict(g))
	if err != nil {
		t.Fatal(err)
	}
	return outbound, progXML
}

// newSessionFixture produces the shipment through a real source endpoint,
// then stands up an empty target to deliver it to.
func newSessionFixture(t *testing.T) (*sessionFixture, func()) {
	t.Helper()
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	srcStore := loadedStore(t, fr)
	outbound, progXML := sourceOutbound(t, fr, srcStore)
	chunks := reliable.ChunkShipment(outbound, 1)
	if len(chunks) < 3 {
		t.Fatalf("fixture too small: %d chunks", len(chunks))
	}
	var ship bytes.Buffer
	sw := wire.NewShipmentWriterCodec(&ship, sch, wire.Codec{})
	for _, c := range chunks {
		if err := sw.EmitChunk(c.Key, c.Frag, c.Recs, c.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	tgtStore, err := relstore.NewStore(fr)
	if err != nil {
		t.Fatal(err)
	}
	defs := &wsdlx.Definitions{
		Name: "CustomerInfo", TargetNamespace: "ns", ServiceName: "svc",
		PortName: "p", Address: "http://x", Schema: sch,
		Fragmentations: []*core.Fragmentation{fr},
	}
	ep := New("test", &RelBackend{Store: tgtStore, Speed: 1, CanCombine: true}, defs)
	srv := httptest.NewServer(ep.Handler())
	return &sessionFixture{
		client:  &soap.Client{URL: srv.URL},
		ep:      ep,
		store:   tgtStore,
		srcRows: srcStore.Rows(),
		prog:    xmltree.Marshal(progXML, xmltree.WriteOptions{EmitAllIDs: true}),
		wire:    ship.Bytes(),
		chunks:  len(chunks),
	}, srv.Close
}

// TestExecuteTargetWithoutSessionFaults pins the one ExecuteTarget
// behaviour: every delivery is a session, so a well-formed request that
// names none is refused with a soap:Client fault before anything is
// decoded — nothing loads and no session state is minted.
func TestExecuteTargetWithoutSessionFaults(t *testing.T) {
	fx, done := newSessionFixture(t)
	defer done()
	err := fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
		io.WriteString(w, "<ExecuteTarget>")
		io.WriteString(w, fx.prog)
		_, werr := w.Write(fx.wire)
		io.WriteString(w, "</ExecuteTarget>")
		return werr
	}, &xmltree.TreeBuilder{})
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != "soap:Client" {
		t.Fatalf("session-less ExecuteTarget: err = %v, want a soap:Client fault", err)
	}
	if fx.store.Rows() != 0 {
		t.Errorf("refused ExecuteTarget still loaded %d rows", fx.store.Rows())
	}
	if n := fx.ep.Sessions().Len(); n != 0 {
		t.Errorf("refused ExecuteTarget minted %d sessions", n)
	}
}

// TestExecuteTargetSessionResume drives the endpoint's resumable-session
// protocol end to end: a delivery torn mid-chunk leaves only whole chunks
// committed, SessionStatus reports the checkpoint, a full retry commits
// exactly the missing chunks, and a third delivery replays the stored
// response without executing twice.
func TestExecuteTargetSessionResume(t *testing.T) {
	fx, done := newSessionFixture(t)
	defer done()

	const head = `<ExecuteTarget session="sess-resume-1">`

	// Attempt 1: the connection dies partway into chunk 1.
	cut := bytes.Index(fx.wire, []byte("</instance>")) + len("</instance>") + 10
	err := fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
		io.WriteString(w, head)
		io.WriteString(w, fx.prog)
		w.Write(fx.wire[:cut])
		return errors.New("injected drop")
	}, nil)
	if err == nil {
		t.Fatal("torn delivery reported success")
	}
	if fx.store.Rows() != 0 {
		t.Fatalf("target loaded %d rows from a torn delivery", fx.store.Rows())
	}

	// The target acked exactly the chunks that arrived whole. The client
	// sees its own abort before the server has necessarily drained the torn
	// body, so wait for the checkpoint rather than sampling it once.
	status := &xmltree.Node{Name: "SessionStatus"}
	status.SetAttr("session", "sess-resume-1")
	var st *xmltree.Node
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, err = fx.client.Call("SessionStatus", status); err != nil {
			t.Fatal(err)
		}
		if v, _ := st.Attr("next"); v != "0" || time.Now().After(deadline) {
			break
		}
	}
	if v, _ := st.Attr("known"); v != "1" {
		t.Fatalf("session unknown after torn delivery: %s", xmltree.Marshal(st, xmltree.WriteOptions{}))
	}
	if v, _ := st.Attr("next"); v != "1" {
		t.Fatalf("checkpoint = %q after torn delivery, want 1", v)
	}
	if v, _ := st.Attr("done"); v != "0" {
		t.Fatal("session done before any complete delivery")
	}

	// Attempt 2: full redelivery; the ledger skips chunk 0, commits the
	// rest, and the target executes.
	tb := &xmltree.TreeBuilder{}
	err = fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
		io.WriteString(w, head)
		io.WriteString(w, fx.prog)
		_, werr := w.Write(fx.wire)
		io.WriteString(w, "</ExecuteTarget>")
		return werr
	}, tb)
	if err != nil {
		t.Fatal(err)
	}
	resp := tb.Root()
	if resp == nil || resp.Name != "ExecuteTargetResponse" {
		t.Fatalf("unexpected response %s", xmltree.Marshal(resp, xmltree.WriteOptions{}))
	}
	if v, _ := resp.Attr("checkpoint"); v != strconv.Itoa(fx.chunks) {
		t.Errorf("checkpoint = %q after redelivery, want %d", v, fx.chunks)
	}
	if v, _ := resp.Attr("replayed"); v != "" {
		t.Error("first complete delivery marked as replay")
	}
	if fx.store.Rows() != fx.srcRows {
		t.Fatalf("target rows = %d, want %d", fx.store.Rows(), fx.srcRows)
	}

	// Attempt 3: a retry of the completed session replays the stored
	// response instead of loading the backend twice.
	tb = &xmltree.TreeBuilder{}
	err = fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
		io.WriteString(w, head)
		io.WriteString(w, fx.prog)
		_, werr := w.Write(fx.wire)
		io.WriteString(w, "</ExecuteTarget>")
		return werr
	}, tb)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tb.Root().Attr("replayed"); v != "1" {
		t.Error("completed session did not replay its response")
	}
	if fx.store.Rows() != fx.srcRows {
		t.Errorf("replay changed the target store: %d rows", fx.store.Rows())
	}

	// The status probe agrees the session is finished.
	st, err = fx.client.Call("SessionStatus", status)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Attr("done"); v != "1" {
		t.Error("status probe does not report done")
	}
}

// TestExecuteTargetRefusesSeqGap: a delivery whose chunks skip a seq is
// the sender's fault. Checkpointing past the gap would let a resume skip
// the chunk that never arrived, so the target refuses the shipment with a
// soap:Client fault, the checkpoint stays at or below the chunk before the
// gap, and nothing loads.
func TestExecuteTargetRefusesSeqGap(t *testing.T) {
	fx, done := newSessionFixture(t)
	defer done()
	gapped := bytes.Replace(fx.wire, []byte(` seq="1"`), []byte(` seq="2"`), 1)
	_, err := fx.deliver("gap", gapped)
	wantChunkOrderFault(t, "gapped delivery", err)
	if v, _ := fx.status(t, "gap").Attr("next"); v != "0" && v != "1" {
		t.Errorf("checkpoint = %q after a gap after chunk 0, want at most 1", v)
	}
	if fx.store.Rows() != 0 {
		t.Errorf("gapped delivery loaded %d rows", fx.store.Rows())
	}
}

// deliver sends one complete ExecuteTarget for session, with body as its
// shipment.
func (fx *sessionFixture) deliver(session string, body []byte) (*xmltree.Node, error) {
	tb := &xmltree.TreeBuilder{}
	err := fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
		io.WriteString(w, `<ExecuteTarget session="`+session+`">`)
		io.WriteString(w, fx.prog)
		_, werr := w.Write(body)
		io.WriteString(w, "</ExecuteTarget>")
		return werr
	}, tb)
	return tb.Root(), err
}

// chunkStart is the offset of the chunk element carrying seq in the
// fixture's shipment.
func (fx *sessionFixture) chunkStart(t *testing.T, seq int) int {
	t.Helper()
	at := bytes.Index(fx.wire, []byte(` seq="`+strconv.Itoa(seq)+`"`))
	if at < 0 {
		t.Fatalf("fixture has no chunk %d", seq)
	}
	return bytes.LastIndex(fx.wire[:at], []byte("<instance"))
}

// status probes a session's SessionStatus.
func (fx *sessionFixture) status(t *testing.T, session string) *xmltree.Node {
	t.Helper()
	req := &xmltree.Node{Name: "SessionStatus"}
	req.SetAttr("session", session)
	st, err := fx.client.Call("SessionStatus", req)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// wantChunkOrderFault checks err is the soap:Client fault a target answers
// a delivery whose chunk sequence it cannot checkpoint with.
func wantChunkOrderFault(t *testing.T, what string, err error) {
	t.Helper()
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != "soap:Client" || !strings.Contains(f.String, wire.ErrChunkOrder.Error()) {
		t.Fatalf("%s: err = %v, want a soap:Client fault naming the chunk order", what, err)
	}
}

// TestExecuteTargetRefusesUnsequencedChunk: a session delivery is
// sequenced — the checkpoint is its only idempotency key, and a chunk
// without a seq could neither be checkpointed nor declined on a replay —
// so a chunk without one is refused with a soap:Client fault before its
// records decode, and nothing loads.
func TestExecuteTargetRefusesUnsequencedChunk(t *testing.T) {
	fx, done := newSessionFixture(t)
	defer done()
	bare := regexp.MustCompile(` seq="[0-9]+"`).ReplaceAll(fx.wire, nil)
	_, err := fx.deliver("bare", bare)
	wantChunkOrderFault(t, "unsequenced delivery", err)
	if v, _ := fx.status(t, "bare").Attr("next"); v != "0" {
		t.Errorf("checkpoint = %q after an unsequenced delivery, want 0", v)
	}
	if fx.store.Rows() != 0 {
		t.Errorf("unsequenced delivery loaded %d rows", fx.store.Rows())
	}
}

// TestExecuteTargetRefusesStartPastCheckpoint: a delivery whose first
// chunk lies above the session's checkpoint — the agency probed the
// session, then the target lost it to an idle sweep or a memory-only
// restart — would checkpoint past chunks that never arrived and load a
// shipment with holes. The target refuses it with a soap:Client fault, so
// the exchange fails instead of reporting success; a delivery from the
// checkpoint then loads the source's rows.
func TestExecuteTargetRefusesStartPastCheckpoint(t *testing.T) {
	fx, done := newSessionFixture(t)
	defer done()
	late := append([]byte("<shipment>"), fx.wire[fx.chunkStart(t, 2):]...)
	_, err := fx.deliver("lost", late)
	wantChunkOrderFault(t, "delivery from chunk 2 into a fresh session", err)
	if v, _ := fx.status(t, "lost").Attr("next"); v != "0" {
		t.Errorf("checkpoint = %q after the refused delivery, want 0", v)
	}
	if fx.store.Rows() != 0 {
		t.Fatalf("refused delivery loaded %d rows", fx.store.Rows())
	}
	resp, err := fx.deliver("lost", fx.wire)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := resp.Attr("checkpoint"); v != strconv.Itoa(fx.chunks) {
		t.Errorf("checkpoint = %q, want %d", v, fx.chunks)
	}
	if fx.store.Rows() != fx.srcRows {
		t.Errorf("target rows = %d, want %d", fx.store.Rows(), fx.srcRows)
	}
}

// TestExecuteTargetDeclinesResentChunks: a delivery re-sent from chunk 0
// after the session checkpointed k chunks has its first k declined —
// counted once each on the response and the status probe — and the store
// holds the source's rows once.
func TestExecuteTargetDeclinesResentChunks(t *testing.T) {
	fx, done := newSessionFixture(t)
	defer done()
	const k = 2
	cut := fx.chunkStart(t, k)
	torn := append(fx.wire[:cut:cut], "</shipment>"...)
	err := fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
		io.WriteString(w, `<ExecuteTarget session="resent">`)
		io.WriteString(w, fx.prog)
		w.Write(torn)
		return errors.New("injected drop")
	}, nil)
	if err == nil {
		t.Fatal("torn delivery reported success")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _ := fx.status(t, "resent").Attr("next"); v == strconv.Itoa(k) {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("checkpoint %q after the torn delivery, want %d", v, k)
		}
	}
	resp, err := fx.deliver("resent", fx.wire)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := resp.Attr("declined"); v != strconv.Itoa(k) {
		t.Errorf("response declined = %q, want %d", v, k)
	}
	if v, _ := fx.status(t, "resent").Attr("declined"); v != strconv.Itoa(k) {
		t.Errorf("status declined = %q, want %d", v, k)
	}
	if fx.store.Rows() != fx.srcRows {
		t.Errorf("target rows = %d, want the source's %d once", fx.store.Rows(), fx.srcRows)
	}
}

// TestExecuteTargetSessionConcurrentDeliveries races full and torn
// deliveries of the same session against each other — the shape a client
// attempt-timeout produces, where the retry decodes while the server is
// still draining the straggler's torn request. Chunk commits serialize on
// the session mutex and re-check admission there, so the target must
// execute exactly once over exactly the source's records, whatever the
// interleaving. Run under -race this doubles as the data-race regression
// for the shared inbound map.
func TestExecuteTargetSessionConcurrentDeliveries(t *testing.T) {
	fx, done := newSessionFixture(t)
	defer done()

	const head = `<ExecuteTarget session="sess-conc-1">`
	const full, torn = 4, 4
	var wg sync.WaitGroup
	var executed, replayed atomic.Int64
	errs := make(chan error, full)

	// drip writes the shipment in small slices with pauses, so every
	// attempt is mid-decode — and mid-commit — while the others are too;
	// a burst write would let attempts finish before they overlap.
	drip := func(w io.Writer, data []byte) error {
		step := len(data)/6 + 1
		for off := 0; off < len(data); off += step {
			end := off + step
			if end > len(data) {
				end = len(data)
			}
			if _, err := w.Write(data[off:end]); err != nil {
				return err
			}
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}

	for i := 0; i < torn; i++ {
		cut := len(fx.wire) * (i + 1) / (torn + 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The torn attempts race the full ones; their own errors are
			// expected and irrelevant.
			fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
				io.WriteString(w, head)
				io.WriteString(w, fx.prog)
				drip(w, fx.wire[:cut])
				return errors.New("injected drop")
			}, nil)
		}()
	}
	for i := 0; i < full; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb := &xmltree.TreeBuilder{}
			err := fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
				io.WriteString(w, head)
				io.WriteString(w, fx.prog)
				if werr := drip(w, fx.wire); werr != nil {
					return werr
				}
				_, werr := io.WriteString(w, "</ExecuteTarget>")
				return werr
			}, tb)
			if err != nil {
				errs <- err
				return
			}
			if v, _ := tb.Root().Attr("replayed"); v == "1" {
				replayed.Add(1)
			} else {
				executed.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("complete delivery failed: %v", err)
	}
	if executed.Load() != 1 {
		t.Errorf("executed %d times, want exactly once", executed.Load())
	}
	if replayed.Load() != full-1 {
		t.Errorf("replayed %d responses, want %d", replayed.Load(), full-1)
	}
	if fx.store.Rows() != fx.srcRows {
		t.Errorf("target rows = %d, want %d — concurrent deliveries corrupted the load",
			fx.store.Rows(), fx.srcRows)
	}
}

// TestEndSessionReleasesState covers the session lifecycle's tail: the
// source releases a finished session explicitly, and a target that lost a
// session mid-exchange (the sweep/restart case EndSession here stands in
// for) reports known="0" so the source resends from zero — the ledger of
// the fresh session accepts everything and no record is lost.
func TestEndSessionReleasesState(t *testing.T) {
	fx, done := newSessionFixture(t)
	defer done()

	const head = `<ExecuteTarget session="sess-end-1">`

	// A torn delivery establishes a checkpoint...
	cut := bytes.Index(fx.wire, []byte("</instance>")) + len("</instance>") + 10
	if err := fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
		io.WriteString(w, head)
		io.WriteString(w, fx.prog)
		w.Write(fx.wire[:cut])
		return errors.New("injected drop")
	}, nil); err == nil {
		t.Fatal("torn delivery reported success")
	}
	// The aborted request returns to the client before the server handler
	// has necessarily minted the session; wait for it to appear.
	deadline := time.Now().Add(5 * time.Second)
	for fx.ep.Sessions().Len() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fx.ep.Sessions().Len() != 1 {
		t.Fatalf("sessions = %d after torn delivery", fx.ep.Sessions().Len())
	}

	// ...which the target forgets when the session ends.
	end := &xmltree.Node{Name: "EndSession"}
	end.SetAttr("session", "sess-end-1")
	if _, err := fx.client.Call("EndSession", end); err != nil {
		t.Fatal(err)
	}
	if fx.ep.Sessions().Len() != 0 {
		t.Fatalf("sessions = %d after EndSession", fx.ep.Sessions().Len())
	}
	status := &xmltree.Node{Name: "SessionStatus"}
	status.SetAttr("session", "sess-end-1")
	st, err := fx.client.Call("SessionStatus", status)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Attr("known"); v != "0" {
		t.Fatal("ended session still known — a resuming source would skip lost chunks")
	}

	// A full redelivery from zero (what resumePoint derives from
	// known="0") loads everything into the fresh session.
	tb := &xmltree.TreeBuilder{}
	if err := fx.client.CallStream("ExecuteTarget", func(w io.Writer) error {
		io.WriteString(w, head)
		io.WriteString(w, fx.prog)
		_, werr := w.Write(fx.wire)
		io.WriteString(w, "</ExecuteTarget>")
		return werr
	}, tb); err != nil {
		t.Fatal(err)
	}
	if v, _ := tb.Root().Attr("checkpoint"); v != strconv.Itoa(fx.chunks) {
		t.Errorf("checkpoint = %q after redelivery into fresh session, want %d", v, fx.chunks)
	}
	if fx.store.Rows() != fx.srcRows {
		t.Fatalf("target rows = %d, want %d", fx.store.Rows(), fx.srcRows)
	}

	// Completed sessions release the same way, and ending twice is fine.
	for i := 0; i < 2; i++ {
		if _, err := fx.client.Call("EndSession", end); err != nil {
			t.Fatal(err)
		}
	}
	if fx.ep.Sessions().Len() != 0 {
		t.Fatalf("sessions = %d after final EndSession", fx.ep.Sessions().Len())
	}

	// EndSession without an id faults.
	if _, err := fx.client.Call("EndSession", &xmltree.Node{Name: "EndSession"}); err == nil {
		t.Error("EndSession without session id must fault")
	}
}

// TestSessionStatusUnknown checks the probe's answer for a session the
// target never saw: resume from the start.
func TestSessionStatusUnknown(t *testing.T) {
	sch := schema.CustomerInfo()
	st := loadedStore(t, tFrag(t, sch))
	c, done := startEndpoint(t, &RelBackend{Store: st, Speed: 1, CanCombine: true})
	defer done()
	req := &xmltree.Node{Name: "SessionStatus"}
	req.SetAttr("session", "never-seen")
	resp, err := c.Call("SessionStatus", req)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := resp.Attr("known"); v != "0" {
		t.Error("unknown session reported known")
	}
	if v, _ := resp.Attr("next"); v != "0" {
		t.Errorf("unknown session checkpoint = %q, want 0", v)
	}
	if _, err := c.Call("SessionStatus", &xmltree.Node{Name: "SessionStatus"}); err == nil {
		t.Error("probe without session id must fault")
	}
}

// slowBackend delays index building, holding the session's execute (and its
// commit lock) busy long enough for probes to race it.
type slowBackend struct {
	Backend
	delay   time.Duration
	started chan struct{}
	once    sync.Once
}

// BuildIndexes implements Backend.
func (b *slowBackend) BuildIndexes() error {
	b.once.Do(func() { close(b.started) })
	time.Sleep(b.delay)
	return b.Backend.BuildIndexes()
}

// TestSessionStatusAnswersDuringSlowExecute is the probe-liveness
// regression: SessionStatus used to block on the session mutex for the
// whole backend execution, so the reconnecting source it serves timed out
// exactly when the target was busiest. Probes must answer immediately —
// and report the execution as in flight — while a slow execute runs.
func TestSessionStatusAnswersDuringSlowExecute(t *testing.T) {
	fx, done := newSessionFixture(t)
	defer done()

	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	tgtStore, err := relstore.NewStore(fr)
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowBackend{
		Backend: &RelBackend{Store: tgtStore, Speed: 1, CanCombine: true},
		delay:   time.Second,
		started: make(chan struct{}),
	}
	client, closeSrv := startEndpoint(t, slow)
	defer closeSrv()

	const head = `<ExecuteTarget session="sess-slow-1">`
	delivered := make(chan error, 1)
	go func() {
		delivered <- client.CallStream("ExecuteTarget", func(w io.Writer) error {
			io.WriteString(w, head)
			io.WriteString(w, fx.prog)
			if _, werr := w.Write(fx.wire); werr != nil {
				return werr
			}
			_, werr := io.WriteString(w, "</ExecuteTarget>")
			return werr
		}, &xmltree.TreeBuilder{})
	}()

	select {
	case <-slow.started:
	case <-time.After(10 * time.Second):
		t.Fatal("execution never started")
	}

	// The backend now sleeps inside the execute, commit lock held. Probes
	// must come back orders of magnitude faster than the execution.
	status := &xmltree.Node{Name: "SessionStatus"}
	status.SetAttr("session", "sess-slow-1")
	sawRunning := false
	for i := 0; i < 3; i++ {
		probeStart := time.Now()
		st, err := client.Call("SessionStatus", status)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(probeStart); elapsed > 100*time.Millisecond {
			t.Fatalf("probe %d took %v with an execute in flight, want <100ms", i, elapsed)
		}
		if v, _ := st.Attr("done"); v != "0" {
			t.Fatalf("probe %d reports done during execution", i)
		}
		if v, _ := st.Attr("running"); v == "1" {
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Error("no probe reported the execution as running")
	}

	if err := <-delivered; err != nil {
		t.Fatalf("delivery failed: %v", err)
	}
	st, err := client.Call("SessionStatus", status)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Attr("done"); v != "1" {
		t.Error("probe does not report done after delivery")
	}
	if tgtStore.Rows() != fx.srcRows {
		t.Errorf("target rows = %d, want %d", tgtStore.Rows(), fx.srcRows)
	}
}

// Deltas that overlap on a stream, each diffed against the base the rows
// hold, take it once: the first lands on the rows and the others find no
// base and fault ColdDelta, so no delta lands on rows another one already
// edited. A base also stops holding once the rows are reloaded behind it,
// and the store refuses an apply against the base the reload dropped.
func TestOverlappingDeltasTakeTheBaseOnce(t *testing.T) {
	st := loadedStore(t, tFrag(t, schema.CustomerInfo()))
	e := testEndpoint(&RelBackend{Store: st, Speed: 1, CanCombine: true})
	st.SetBase("s", "ep", "X")
	var took atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := st.ApplyDelta("s", "ep", "X", "Y"+strconv.Itoa(i), nil)
			switch {
			case err == nil:
				took.Add(1)
			case !errors.Is(err, relstore.ErrStale):
				t.Errorf("overlapping delta: err = %v, want ErrStale", err)
			}
		}()
	}
	wg.Wait()
	if took.Load() != 1 {
		t.Fatalf("%d overlapping deltas took the base, want 1", took.Load())
	}
	held := e.base("s", "ep")
	if !strings.HasPrefix(held, "Y") {
		t.Fatalf("DeltaStatus answers base %q, want the snapshot the delta that landed left", held)
	}
	st.Clear()
	if b := e.base("s", "ep"); b != "" {
		t.Errorf("base %q is still held after its rows were cleared", b)
	}
	if _, err := st.ApplyDelta("s", "ep", held, "Z", nil); !errors.Is(err, relstore.ErrStale) {
		t.Errorf("an apply against the base before the Clear: err = %v, want ErrStale", err)
	}
}
