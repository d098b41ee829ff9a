package registry

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/wire"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// tap records every SOAP call through it, request and response bodies by
// action, without holding back either stream.
type tap struct {
	mu    sync.Mutex
	reqs  map[string][][]byte
	resps map[string][][]byte
}

type tapWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *tapWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (tp *tap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		action := strings.Trim(r.Header.Get("SOAPAction"), `"`)
		var req bytes.Buffer
		r.Body = io.NopCloser(io.TeeReader(r.Body, &req))
		tw := &tapWriter{ResponseWriter: w}
		defer func() {
			tp.mu.Lock()
			defer tp.mu.Unlock()
			if tp.reqs == nil {
				tp.reqs, tp.resps = map[string][][]byte{}, map[string][][]byte{}
			}
			tp.reqs[action] = append(tp.reqs[action], req.Bytes())
			tp.resps[action] = append(tp.resps[action], tw.buf.Bytes())
		}()
		h.ServeHTTP(tw, r)
	})
}

func (tp *tap) calls(action string) (reqs, resps [][]byte) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.reqs[action], tp.resps[action]
}

// shipmentOf cuts the <shipment> element out of a recorded body.
func shipmentOf(t testing.TB, body []byte) []byte {
	t.Helper()
	start := bytes.Index(body, []byte("<shipment"))
	end := bytes.LastIndex(body, []byte("</shipment>"))
	if start < 0 || end < start {
		t.Fatalf("no shipment element in %d-byte body", len(body))
	}
	return body[start : end+len("</shipment>")]
}

// deliveryWorld is the auction exchange with every call through both
// endpoints on tape. front, when set, wraps an endpoint's (already taped)
// handler by role.
type deliveryWorld struct {
	*auctionWorld
	srcTap, tgtTap tap
	lookup         func(string) *core.Fragment
}

func startDeliveryWorld(t testing.TB, front func(role Role, h http.Handler) http.Handler) *deliveryWorld {
	t.Helper()
	w := &deliveryWorld{}
	w.auctionWorld = startAuctionWorld(t, func(role Role, h http.Handler) http.Handler {
		if role == RoleSource {
			h = w.srcTap.wrap(h)
		} else {
			h = w.tgtTap.wrap(h)
		}
		if front != nil {
			h = front(role, h)
		}
		return h
	})
	frags := w.plan.Program.FragmentsByName()
	w.lookup = func(name string) *core.Fragment { return frags[name] }
	return w
}

// deliveredWant is what the target must hold after one default exchange
// under the codec.
func deliveredWant(t testing.TB, codec string) *xmltree.Node {
	t.Helper()
	w := startDeliveryWorld(t, nil)
	defer w.close()
	if _, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{Link: netsim.Loopback(), Codec: codec}); err != nil {
		t.Fatal(err)
	}
	return assembleTarget(t, w.tgtStore)
}

// writerRender is what a ShipmentWriter renders for the plan's source
// slice over the source store as it stands, cut into chunks of size: the
// shipment a direct delivery must put on the target-bound request.
func writerRender(t testing.TB, w *auctionWorld, codec wire.Codec, size int) []byte {
	t.Helper()
	sch := w.srcStore.Layout.Schema
	scan := func(f *core.Fragment) (*core.Instance, error) {
		for _, lf := range w.srcStore.Layout.Fragments {
			if lf.SameElems(f) {
				in, err := w.srcStore.ScanFragment(lf.Name)
				if err != nil {
					return nil, err
				}
				return &core.Instance{Frag: f, Records: in.Records}, nil
			}
		}
		return nil, fmt.Errorf("no layout fragment matching %s", f.Name)
	}
	out, _, err := core.ExecuteSlice(w.plan.Program, sch, w.plan.Assign, core.LocSource, core.SliceIO{Scan: scan})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := wire.NewShipmentWriterCodec(&buf, sch, codec)
	sw.SetChunk(size, 0)
	ship := map[string]core.Outbound{}
	for key, in := range out {
		ship[key] = core.Outbound{Frag: in.Frag, Recs: in}
	}
	if err := wire.EmitShipment(sw, ship); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func retrying(chunk, attempts int) *reliable.Config {
	return &reliable.Config{
		Seed:      1,
		ChunkSize: chunk,
		Policy:    reliable.Policy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
	}
}

// noShipmentThroughAgency fails when a tape of the agency's calls to the
// source carries a shipment: the data goes source to target only.
func noShipmentThroughAgency(t testing.TB, w *deliveryWorld) {
	t.Helper()
	reqs, resps := w.srcTap.calls("ExecuteSource")
	for i := range reqs {
		if bytes.Contains(reqs[i], []byte("<shipment")) || bytes.Contains(resps[i], []byte("<shipment")) {
			t.Errorf("ExecuteSource call %d carried a shipment through the agency", i)
		}
	}
}

// TestRelayForwardsSourceBytes is direct delivery's contract: the source
// relays its rendering to the target itself, so for every codec the agency
// names on ExecuteSource (no envelope negotiates it) the target
// receives exactly the bytes the source's ShipmentWriter renders for the
// slice, cut into the exchange's chunk size and numbered from 0, behind
// the session's open tag and the agency's program; the agency's hop
// carries no shipment either way; and the report's size is the bytes
// that travelled.
func TestRelayForwardsSourceBytes(t *testing.T) {
	const chunk = 8
	for _, name := range wire.Codecs() {
		want := deliveredWant(t, name)
		codec, _ := wire.ParseCodec(name)
		w := startDeliveryWorld(t, nil)
		rep, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{
			Link: netsim.Loopback(), Codec: name, Reliability: retrying(chunk, 1),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		srcReqs, _ := w.srcTap.calls("ExecuteSource")
		tgtReqs, _ := w.tgtTap.calls("ExecuteTarget")
		if len(srcReqs) != 1 || len(tgtReqs) != 1 {
			t.Fatalf("%s: %d source calls, %d deliveries", name, len(srcReqs), len(tgtReqs))
		}
		noShipmentThroughAgency(t, w)
		if !bytes.Contains(srcReqs[0], []byte(`<ExecuteSource `)) || !bytes.Contains(srcReqs[0], []byte(` codec="`+name+`"`)) ||
			bytes.Contains(srcReqs[0], []byte(`codecs=`)) {
			t.Errorf("%s: ExecuteSource does not name the codec, or its envelope negotiates", name)
		}
		progXML, err := wire.EncodeProgram(w.plan.Program, w.plan.Assign)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(srcReqs[0], []byte(` session="`)) + len(` session="`)
		session := srcReqs[0][at : at+bytes.IndexByte(srcReqs[0][at:], '"')]
		head := `<ExecuteTarget session="` + string(session) + `">` +
			xmltree.Marshal(progXML, xmltree.WriteOptions{EmitAllIDs: true}) + `<shipment`
		if !bytes.Contains(tgtReqs[0], []byte(head)) {
			t.Errorf("%s: the delivery does not open with the session's ExecuteTarget tag and the agency's program", name)
		}
		sent := shipmentOf(t, tgtReqs[0])
		if rendered := writerRender(t, w.auctionWorld, codec, chunk); !bytes.Equal(sent, rendered) {
			t.Errorf("%s: target-bound shipment (%d bytes) is not the ShipmentWriter's rendering (%d bytes)", name, len(sent), len(rendered))
		}
		if rep.Codec != name || rep.WireBytes != int64(len(sent)) {
			t.Errorf("%s: report says codec %q, %d wire bytes; %d travelled", name, rep.Codec, rep.WireBytes, len(sent))
		}
		dec := wire.NewShipmentDecoder(w.srcStore.Layout.Schema, w.lookup)
		dec.Commit = func(c *wire.Chunk) (wire.Ticket, error) {
			if len(c.Recs) > chunk {
				t.Errorf("%s: chunk %d of %s carries %d records, limit %d", name, c.Seq, c.Key, len(c.Recs), chunk)
			}
			return nil, nil
		}
		if err := xmltree.ScanAttrs(bytes.NewReader(sent), dec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !xmltree.Equal(want, assembleTarget(t, w.tgtStore)) {
			t.Errorf("%s: target holds a different document", name)
		}
		w.close()
	}
}

// TestRelayForwardsDeltaBytes: a warm delta travels like any shipment —
// the source streams its delta="1" shipment to the target, the agency's
// hop carries none, and the report counts the delta's bytes, in every
// codec.
func TestRelayForwardsDeltaBytes(t *testing.T) {
	for _, name := range wire.Codecs() {
		w := startDeliveryWorld(t, nil)
		var rep *Report
		for round := 0; round < 2; round++ {
			var err error
			rep, err = w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{
				Link: netsim.Loopback(), Codec: name, Delta: true,
			})
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if rep.Delta != (round == 1) {
				t.Fatalf("%s round %d: delta = %v", name, round, rep.Delta)
			}
		}
		srcReqs, _ := w.srcTap.calls("ExecuteSource")
		tgtReqs, _ := w.tgtTap.calls("ExecuteTarget")
		if len(srcReqs) != 2 || len(tgtReqs) != 2 {
			t.Fatalf("%s: %d source calls, %d deliveries", name, len(srcReqs), len(tgtReqs))
		}
		noShipmentThroughAgency(t, w)
		full, sent := shipmentOf(t, tgtReqs[0]), shipmentOf(t, tgtReqs[1])
		if !bytes.HasPrefix(sent, []byte(`<shipment delta="1">`)) || rep.WireBytes != int64(len(sent)) {
			t.Errorf("%s: target-bound delta (%d bytes) does not open as a delta or is not what the report counts (%d)", name, len(sent), rep.WireBytes)
		}
		if len(sent) >= len(full) {
			t.Errorf("%s: the unchanged delta is %d bytes against the full shipment's %d", name, len(sent), len(full))
		}
		w.close()
	}
}

// cutWriter severs the connection once limit response bytes went out.
type cutWriter struct {
	http.ResponseWriter
	limit int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if len(p) >= c.limit {
		c.ResponseWriter.Write(p[:c.limit])
		if f, ok := c.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	c.limit -= len(p)
	return c.ResponseWriter.Write(p)
}

func (w *tapWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// cutFirst fronts an endpoint: the first call of action gets its response
// cut after 40 bytes once armed.
func cutFirst(action string, armed *atomic.Bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Header.Get("SOAPAction") == `"`+action+`"` && armed.CompareAndSwap(true, false) {
			rw = &cutWriter{ResponseWriter: rw, limit: 40}
		}
		h.ServeHTTP(rw, r)
	})
}

// TestDeltaLostResponseReplays: a delta delivery that ran on the target
// but whose response to the source was lost is retried like any delivery.
// The target's base is now the delivery's own snapshot, yet the retry
// still names the old base; the source re-issues from the render it holds
// and the target replays the stored response, so the exchange neither
// falls back nor runs the source slice again.
func TestDeltaLostResponseReplays(t *testing.T) {
	var cut atomic.Bool
	w := startDeliveryWorld(t, func(role Role, h http.Handler) http.Handler {
		if role != RoleTarget {
			return h
		}
		return cutFirst("ExecuteTarget", &cut, h)
	})
	defer w.close()
	agMet, srcMet, tgtMet := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
	w.src.SetObs(nil, srcMet)
	w.tgt.SetObs(nil, tgtMet)
	opts := ExecOptions{Link: netsim.Loopback(), Delta: true, Reliability: retrying(8, 3), Metrics: agMet}
	if _, err := w.ag.ExecuteOpts("Auction", w.plan, opts); err != nil {
		t.Fatal(err)
	}
	want := assembleTarget(t, w.tgtStore)
	cut.Store(true)
	rep, err := w.ag.ExecuteOpts("Auction", w.plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Load() {
		t.Fatal("the response cut never fired")
	}
	if v := tgtMet.Counter("endpoint.session.replays").Value(); v < 1 {
		t.Fatal("the retry did not replay the executed delivery's stored response")
	}
	if !rep.Delta {
		t.Error("the exchange did not finish as a delta")
	}
	if v := srcMet.Counter("endpoint.source.executes").Value(); v != 2 {
		t.Errorf("the source slice ran %d times over two exchanges, want 2", v)
	}
	if v := agMet.Counter("exchange.delta.fallbacks").Value(); v != 0 {
		t.Errorf("exchange.delta.fallbacks = %d, want 0", v)
	}
	if v := tgtMet.Counter("endpoint.delta.cold").Value(); v != 0 {
		t.Errorf("endpoint.delta.cold = %d, want 0", v)
	}
	if v := tgtMet.Counter("endpoint.target.executes").Value(); v != 2 {
		t.Errorf("the target executed %d times over two exchanges, want 2", v)
	}
	if !xmltree.Equal(want, assembleTarget(t, w.tgtStore)) {
		t.Error("target contents changed across an empty delta")
	}
}

// TestTornSourceAnswerLoadsOnce: the source's answer to the agency is torn
// after the target executed. The source dropped its render when the
// delivery succeeded, so the agency's re-issue is refused as RenderGone;
// the target's SessionStatus carries the stored outcome, and the exchange
// completes from it — no fresh session, no second delivery or load, the
// source slice run once.
func TestTornSourceAnswerLoadsOnce(t *testing.T) {
	want := deliveredWant(t, "bin")
	var cut atomic.Bool
	cut.Store(true)
	w := startDeliveryWorld(t, func(role Role, h http.Handler) http.Handler {
		if role != RoleSource {
			return h
		}
		return cutFirst("ExecuteSource", &cut, h)
	})
	defer w.close()
	srcMet := obs.NewRegistry()
	w.src.SetObs(nil, srcMet)
	rep, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{Link: netsim.Loopback(), Codec: "bin", Reliability: retrying(8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Load() {
		t.Fatal("the response cut never fired")
	}
	if rep.Retries != 1 || rep.TargetTime <= 0 {
		t.Errorf("retries = %d, target time %v; want the one torn answer and the stored outcome", rep.Retries, rep.TargetTime)
	}
	srcReqs, _ := w.srcTap.calls("ExecuteSource")
	tgtReqs, _ := w.tgtTap.calls("ExecuteTarget")
	if len(srcReqs) != 2 || len(tgtReqs) != 1 {
		t.Fatalf("%d source calls, %d deliveries; want 2 and 1", len(srcReqs), len(tgtReqs))
	}
	if v := srcMet.Counter("endpoint.source.executes").Value(); v != 1 {
		t.Errorf("the source slice ran %d times, want 1", v)
	}
	if !xmltree.Equal(want, assembleTarget(t, w.tgtStore)) {
		t.Error("target holds a different document")
	}
}

// tearFirstDelivery fronts the target: once armed, the first ExecuteTarget
// is torn after 24 KiB of request body — the chunks before the tear commit,
// the connection dies without a response — and then, when set, torn runs.
func tearFirstDelivery(armed *atomic.Bool, torn func(), h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Header.Get("SOAPAction") == `"ExecuteTarget"` && armed.CompareAndSwap(true, false) {
			r.Body = io.NopCloser(&tearReader{r: r.Body, budget: 24 << 10})
			h.ServeHTTP(httptest.NewRecorder(), r)
			if torn != nil {
				torn()
			}
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(rw, r)
	})
}

// TestRelayResumesFromCheckpoint: a delivery torn at chunk k is
// resumed from the target's checkpoint — the source re-emits the tail of
// the same rendering, nothing below the checkpoint, without running its
// slice again — and both attempts' bytes count as wire bytes.
func TestRelayResumesFromCheckpoint(t *testing.T) {
	want := deliveredWant(t, "bin")
	var armed atomic.Bool
	armed.Store(true)
	w := startDeliveryWorld(t, func(role Role, h http.Handler) http.Handler {
		if role != RoleTarget {
			return h
		}
		return tearFirstDelivery(&armed, nil, h)
	})
	defer w.close()
	srcMet := obs.NewRegistry()
	w.src.SetObs(nil, srcMet)
	codec, _ := wire.ParseCodec("bin")
	full := writerRender(t, w.auctionWorld, codec, 8)
	rep, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{Link: netsim.Loopback(), Codec: "bin", Reliability: retrying(8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	srcReqs, _ := w.srcTap.calls("ExecuteSource")
	tgtReqs, _ := w.tgtTap.calls("ExecuteTarget")
	if len(srcReqs) != 2 || len(tgtReqs) != 2 {
		t.Fatalf("%d source calls, %d deliveries; want 2 and 2", len(srcReqs), len(tgtReqs))
	}
	resumed := shipmentOf(t, tgtReqs[1])
	at := bytes.Index(resumed, []byte(` seq="`)) + len(` seq="`)
	first, _ := strconv.Atoi(string(resumed[at : at+bytes.IndexByte(resumed[at:], '"')]))
	if rep.Resumes != 1 || first == 0 {
		t.Errorf("resumes = %d, resumed delivery starts at chunk %d; want a positive checkpoint", rep.Resumes, first)
	}
	if !bytes.HasSuffix(full, resumed[len("<shipment>"):]) {
		t.Error("resumed delivery is not the tail of the source's shipment")
	}
	if rep.DeclinedChunks != 0 {
		t.Errorf("%d chunks re-sent below the checkpoint", rep.DeclinedChunks)
	}
	if min, max := int64(len(resumed)), int64(len(full)+len(resumed)); rep.WireBytes <= min || rep.WireBytes > max {
		t.Errorf("WireBytes = %d, want the torn attempt's bytes on top of %d (at most %d)", rep.WireBytes, min, max)
	}
	if v := srcMet.Counter("endpoint.source.executes").Value(); v != 1 {
		t.Errorf("the source slice ran %d times, want 1", v)
	}
	if !xmltree.Equal(want, assembleTarget(t, w.tgtStore)) {
		t.Error("target holds a different document")
	}
}

// TestResumeKeepsOneRender: a delivery is torn at chunk k, the source's
// store changes, and then the agency resumes. Every chunk the target
// session admits comes from the one execution of the source slice the
// session began with, so the target holds exactly that snapshot — not the
// new one, and no mix of the two.
func TestResumeKeepsOneRender(t *testing.T) {
	want := deliveredWant(t, "xml")
	changed := xmark.Generate(xmark.Config{TargetBytes: 90_000, Seed: 43})
	var src atomic.Pointer[relstore.Store]
	var armed atomic.Bool
	armed.Store(true)
	w := startDeliveryWorld(t, func(role Role, h http.Handler) http.Handler {
		if role != RoleTarget {
			return h
		}
		return tearFirstDelivery(&armed, func() {
			st := src.Load()
			st.Clear()
			if err := st.LoadDocument(changed); err != nil {
				panic(err)
			}
		}, h)
	})
	defer w.close()
	src.Store(w.srcStore)
	rows := w.srcStore.Rows()
	rep, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{Link: netsim.Loopback(), Codec: "xml", Reliability: retrying(8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if armed.Load() || w.srcStore.Rows() == rows {
		t.Fatal("the delivery was never torn, or the source store did not change")
	}
	if rep.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", rep.Resumes)
	}
	if !xmltree.Equal(want, assembleTarget(t, w.tgtStore)) {
		t.Error("the target does not hold the snapshot the delivery session began with")
	}
}

// rowEdits is the delta from before to after as a source with layout's
// tables diffs it (reliable.DiffShipment): the row edits that take a store
// holding before to one holding after.
func rowEdits(t testing.TB, layout *core.Fragmentation, before, after *xmltree.Node) []relstore.Edit {
	t.Helper()
	b, err := core.FromDocument(layout, before)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.FromDocument(layout, after)
	if err != nil {
		t.Fatal(err)
	}
	prev, _ := reliable.HashShipment(b)
	d := reliable.DiffShipment(a, prev)
	var edits []relstore.Edit
	for _, f := range layout.Fragments {
		ed := relstore.Edit{Frag: f, Tombs: d.Tombs[f.Name]}
		if in := d.Ship[f.Name]; in != nil {
			ed.Records = in.Records
		}
		edits = append(edits, ed)
	}
	return edits
}

// TestHeldRenderIsASnapshot: a torn delivery's held render is a snapshot
// of the source's rows, not a view of its tables. A netsim fault tears the
// first delivery after some chunks; before the agency resumes, the source
// store is cleared, reloaded with a churned document and row-edited by a
// delta, and while the resume re-emits the held chunks the store keeps
// loading more rows. The resume completes, and the target holds what
// publish&map makes of the original document: the same document, keyed as
// an untorn delivery keys it.
func TestHeldRenderIsASnapshot(t *testing.T) {
	sch := xmark.Schema()
	orig := xmark.Generate(xmark.Config{TargetBytes: 60_000, Seed: 42}) // the world's document
	ref, err := relstore.NewStore(core.LeastFragmented(sch))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.LoadDocument(orig.Clone()); err != nil {
		t.Fatal(err)
	}
	want := assembleTarget(t, ref)
	rng := rand.New(rand.NewSource(5))
	churned := orig.Clone()
	churnAuction(churned, rng, 0.2, 1)
	edited := churned.Clone()
	churnAuction(edited, rng, 0.2, 2)

	var src atomic.Pointer[relstore.Store]
	var armed atomic.Bool
	var loads sync.WaitGroup
	stop := make(chan struct{})
	churnSource := func() {
		st := src.Load()
		st.Clear()
		if err := st.LoadDocument(churned.Clone()); err != nil {
			panic(err)
		}
		st.SetBase("churn", "", "loaded")
		if _, err := st.ApplyDelta("churn", "", "loaded", "edited", rowEdits(t, st.Layout, churned, edited)); err != nil {
			panic(err)
		}
		more, err := core.FromDocument(st.Layout, orig)
		if err != nil {
			panic(err)
		}
		loads.Add(1)
		go func() { // loads on while the resume renders
			defer loads.Done()
			for i := 0; i < 200; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := st.Load(more["item"]); err != nil {
					panic(err)
				}
			}
		}()
	}
	fl := netsim.NewFaultyLink(netsim.Loopback(), netsim.Faults{Seed: 12, TruncateProb: 1, MaxTruncate: 48 << 10})
	w := startDeliveryWorld(t, func(role Role, h http.Handler) http.Handler {
		if role != RoleTarget {
			return h
		}
		torn := fl.Middleware(h)
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Header.Get("SOAPAction") != `"ExecuteTarget"` || !armed.CompareAndSwap(true, false) {
				h.ServeHTTP(rw, r)
				return
			}
			defer churnSource() // as the torn request unwinds, before the source hears of it
			torn.ServeHTTP(rw, r)
		})
	})
	defer w.close()
	src.Store(w.srcStore)
	armed.Store(true)
	rep, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{Link: netsim.Loopback(), Codec: "bin", Reliability: retrying(8, 3)})
	close(stop)
	loads.Wait()
	if err != nil {
		t.Fatal(err)
	}
	tgtReqs, _ := w.tgtTap.calls("ExecuteTarget")
	if armed.Load() || rep.Resumes != 1 || len(tgtReqs) != 2 {
		t.Fatalf("resumes = %d over %d deliveries; want one torn delivery resumed once", rep.Resumes, len(tgtReqs))
	}
	resumed := shipmentOf(t, tgtReqs[1])
	at := bytes.Index(resumed, []byte(` seq="`)) + len(` seq="`)
	if first, _ := strconv.Atoi(string(resumed[at : at+bytes.IndexByte(resumed[at:], '"')])); first == 0 {
		t.Fatal("the torn delivery committed no chunk")
	}
	got := assembleTarget(t, w.tgtStore)
	if !xmltree.EqualShape(want, got) || !xmltree.Equal(deliveredWant(t, "bin"), got) {
		t.Error("the target does not hold the original document's publish&map")
	}
}
