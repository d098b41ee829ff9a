package registry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	"xdx/internal/reliable"
	"xdx/internal/soap"
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

// relayWorld is the auction exchange with every call through both
// endpoints on tape. front, when set, wraps an endpoint's (already taped)
// handler by role.
type relayWorld struct {
	*auctionWorld
	srcTap, tgtTap tap
	lookup         func(string) *core.Fragment
}

func startRelayWorld(t testing.TB, front func(role Role, h http.Handler) http.Handler) *relayWorld {
	t.Helper()
	w := &relayWorld{}
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

// relayWant is what the target must hold after one default exchange under
// the codec (feed does not carry what xml does, so the reference is per
// codec).
func relayWant(t testing.TB, codec string) *xmltree.Node {
	t.Helper()
	w := startRelayWorld(t, nil)
	defer w.close()
	if _, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{Link: netsim.Loopback(), Codec: codec}); err != nil {
		t.Fatal(err)
	}
	return assembleTarget(t, w.tgtStore)
}

func retrying(chunk, attempts int) *reliable.Config {
	return &reliable.Config{
		Seed:      1,
		ChunkSize: chunk,
		Policy:    reliable.Policy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		Breaker:   reliable.BreakerConfig{FailureThreshold: 50, Cooldown: time.Millisecond},
	}
}

// TestRelayForwardsSourceBytes is the relay's contract: for every codec and
// codec worker count, the shipment on the target-bound request is the
// shipment the source wrote, byte for byte; that is also what the agency
// used to render itself (ChunkShipment + EmitChunk over the decoded
// shipment); and the report's sizes are the source's tree-codec size and
// the bytes that travelled.
func TestRelayForwardsSourceBytes(t *testing.T) {
	const chunk = 8
	for _, name := range wire.Codecs() {
		want := relayWant(t, name)
		codec, _ := wire.ParseCodec(name)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s/w%d", name, workers)
			w := startRelayWorld(t, nil)
			w.src.SetCodecWorkers(workers)
			w.tgt.SetCodecWorkers(workers)
			rep, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{
				Link: netsim.Loopback(), Codec: name,
				ParallelChunks: workers, Reliability: retrying(chunk, 1),
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			_, srcResps := w.srcTap.calls("ExecuteSource")
			tgtReqs, _ := w.tgtTap.calls("ExecuteTarget")
			if len(srcResps) != 1 || len(tgtReqs) != 1 {
				t.Fatalf("%s: %d source calls, %d deliveries", label, len(srcResps), len(tgtReqs))
			}
			wrote, sent := shipmentOf(t, srcResps[0]), shipmentOf(t, tgtReqs[0])
			if !bytes.Equal(wrote, sent) {
				t.Errorf("%s: target-bound shipment (%d bytes) is not the source's (%d bytes)", label, len(sent), len(wrote))
			}
			if rep.Codec != name || rep.WireBytes != int64(len(sent)) {
				t.Errorf("%s: report says codec %q, %d wire bytes; %d travelled", label, rep.Codec, rep.WireBytes, len(sent))
			}
			sch := xmark.Schema()
			dec := wire.NewShipmentDecoder(sch, w.lookup)
			dec.Commit = func(c *wire.Chunk) (wire.Ticket, error) {
				if len(c.Recs) > chunk {
					t.Errorf("%s: chunk %d of %s carries %d records, limit %d", label, c.Seq, c.Key, len(c.Recs), chunk)
				}
				return nil, nil
			}
			if err := xmltree.ScanAttrs(bytes.NewReader(wrote), dec); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			decoded, _ := dec.Result()
			if got := wire.ShipmentBytes(decoded); rep.PayloadBytes != got {
				t.Errorf("%s: PayloadBytes = %d, ShipmentBytes of the shipment = %d", label, rep.PayloadBytes, got)
			}
			var parent bytes.Buffer
			sw := wire.NewShipmentWriterCodec(&parent, sch, codec)
			for _, c := range reliable.ChunkShipment(decoded, chunk) {
				if err := sw.EmitChunk(c.Key, c.Frag, c.Recs, c.Seq); err != nil {
					t.Fatal(err)
				}
			}
			sw.Close()
			if !bytes.Equal(sent, parent.Bytes()) {
				t.Errorf("%s: target-bound shipment differs from ChunkShipment+EmitChunk over the decoded shipment", label)
			}
			if !xmltree.Equal(want, assembleTarget(t, w.tgtStore)) {
				t.Errorf("%s: target holds a different document", label)
			}
			w.close()
		}
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

// TestRelayTornSourceForwardsNothing: a source response torn in the middle
// of a chunk is retried wholesale, and the delivery carries the second
// attempt's shipment only — no chunk of the torn one.
func TestRelayTornSourceForwardsNothing(t *testing.T) {
	clean := startRelayWorld(t, nil)
	if _, err := clean.ag.ExecuteOpts("Auction", clean.plan, ExecOptions{Link: netsim.Loopback(), Codec: "bin", Reliability: retrying(8, 1)}); err != nil {
		t.Fatal(err)
	}
	_, resps := clean.srcTap.calls("ExecuteSource")
	want := assembleTarget(t, clean.tgtStore)
	clean.close()
	full := resps[0]
	third := 0
	for i := 0; i < 3; i++ {
		third += 1 + bytes.Index(full[third+1:], []byte("<instance"))
	}
	cut := third + bytes.IndexByte(full[third:], '>') + 20 // inside the third chunk's payload

	var torn atomic.Bool
	w := startRelayWorld(t, func(role Role, h http.Handler) http.Handler {
		if role != RoleSource {
			return h
		}
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Header.Get("SOAPAction") == `"ExecuteSource"` && torn.CompareAndSwap(false, true) {
				rw = &cutWriter{ResponseWriter: rw, limit: cut}
			}
			h.ServeHTTP(rw, r)
		})
	})
	defer w.close()
	rep, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{Link: netsim.Loopback(), Codec: "bin", Reliability: retrying(8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 1 {
		t.Errorf("retries = %d, want the one torn source call", rep.Retries)
	}
	_, srcResps := w.srcTap.calls("ExecuteSource")
	tgtReqs, _ := w.tgtTap.calls("ExecuteTarget")
	if len(srcResps) != 2 || len(tgtReqs) != 1 {
		t.Fatalf("%d source calls, %d deliveries; want 2 and 1", len(srcResps), len(tgtReqs))
	}
	if n := bytes.Count(srcResps[0], []byte("<instance")); n < 3 || bytes.Contains(srcResps[0], []byte("</shipment>")) {
		t.Fatalf("first source response was not torn mid-shipment (%d chunks opened)", n)
	}
	if !bytes.Equal(shipmentOf(t, tgtReqs[0]), shipmentOf(t, full)) {
		t.Error("delivery after a torn source attempt is not exactly one complete shipment")
	}
	if !xmltree.Equal(want, assembleTarget(t, w.tgtStore)) {
		t.Error("target holds a different document")
	}
}

// TestRelayResumesFromCheckpoint: a delivery torn at chunk k is resumed
// with the chunks from the target's checkpoint on — the same bytes, nothing
// below the checkpoint — and both attempts' bytes count as wire bytes.
func TestRelayResumesFromCheckpoint(t *testing.T) {
	want := relayWant(t, "bin")
	var torn atomic.Bool
	w := startRelayWorld(t, func(role Role, h http.Handler) http.Handler {
		if role != RoleTarget {
			return h
		}
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Header.Get("SOAPAction") == `"ExecuteTarget"` && torn.CompareAndSwap(false, true) {
				r.Body = io.NopCloser(&tearReader{r: r.Body, budget: 24 << 10})
				h.ServeHTTP(httptest.NewRecorder(), r)
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(rw, r)
		})
	})
	defer w.close()
	rep, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{Link: netsim.Loopback(), Codec: "bin", Reliability: retrying(8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	_, srcResps := w.srcTap.calls("ExecuteSource")
	tgtReqs, _ := w.tgtTap.calls("ExecuteTarget")
	if len(srcResps) != 1 || len(tgtReqs) != 2 {
		t.Fatalf("%d source calls, %d deliveries; want 1 and 2", len(srcResps), len(tgtReqs))
	}
	full, resumed := shipmentOf(t, srcResps[0]), shipmentOf(t, tgtReqs[1])
	at := bytes.Index(resumed, []byte(` seq="`)) + len(` seq="`)
	first, _ := strconv.Atoi(string(resumed[at : at+bytes.IndexByte(resumed[at:], '"')]))
	if rep.Resumes != 1 || first == 0 {
		t.Errorf("resumes = %d, resumed delivery starts at chunk %d; want a positive checkpoint", rep.Resumes, first)
	}
	if !bytes.HasSuffix(full, resumed[len("<shipment>"):]) {
		t.Error("resumed delivery is not the tail of the source's shipment")
	}
	if rep.DedupedRecords != 0 {
		t.Errorf("%d records re-sent below the checkpoint", rep.DedupedRecords)
	}
	if min, max := int64(len(resumed)), int64(len(full)+len(resumed)); rep.WireBytes <= min || rep.WireBytes > max {
		t.Errorf("WireBytes = %d, want the torn attempt's bytes on top of %d (at most %d)", rep.WireBytes, min, max)
	}
	if !xmltree.Equal(want, assembleTarget(t, w.tgtStore)) {
		t.Error("target holds a different document")
	}
}

// TestRelayNegotiationDowngrade: a source that only speaks xml answers a
// bin request in xml, and that is then what travels to the target and what
// the report names.
func TestRelayNegotiationDowngrade(t *testing.T) {
	want := relayWant(t, "xml")
	w := startRelayWorld(t, nil)
	defer w.close()
	if err := w.src.SetSupportedCodecs("xml"); err != nil {
		t.Fatal(err)
	}
	rep, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{Link: netsim.Loopback(), Codec: "bin"})
	if err != nil {
		t.Fatal(err)
	}
	tgtReqs, _ := w.tgtTap.calls("ExecuteTarget")
	sent := shipmentOf(t, tgtReqs[0])
	if rep.Codec != "xml" || bytes.Contains(sent, []byte(`format="bin"`)) {
		t.Errorf("report names codec %q; bin on the target hop: %v", rep.Codec, bytes.Contains(sent, []byte(`format="bin"`)))
	}
	if rep.WireBytes != int64(len(sent)) {
		t.Errorf("WireBytes = %d, %d travelled", rep.WireBytes, len(sent))
	}
	if got := assembleTarget(t, w.tgtStore); !xmltree.Equal(want, got) {
		t.Error("target holds a different document")
	}
	if w.tgtStore.Rows() == 0 {
		t.Error("target loaded nothing")
	}
}

// TestRelayRejectsUnsequencedSource: a source whose chunks are not densely
// sequenced breaks the protocol; the exchange fails typed, at once, and
// nothing is delivered.
func TestRelayRejectsUnsequencedSource(t *testing.T) {
	for _, shipment := range []string{
		`<shipment><instance edge="k" frag="f"/></shipment>`,
		`<shipment><instance edge="k" frag="f" seq="0"/><instance edge="k" frag="f" seq="2"/></shipment>`,
	} {
		var sourceCalls, deliveries atomic.Int32
		w := startRelayWorld(t, func(role Role, h http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				switch r.Header.Get("SOAPAction") {
				case `"ExecuteSource"`:
					sourceCalls.Add(1)
					io.Copy(io.Discard, r.Body)
					io.WriteString(rw, `<soap:Envelope xmlns:soap="`+soap.EnvelopeNS+`"><soap:Body><ExecuteSourceResponse>`+
						shipment+`<timing queryMillis="1"/></ExecuteSourceResponse></soap:Body></soap:Envelope>`)
					return
				case `"ExecuteTarget"`:
					deliveries.Add(1)
				}
				h.ServeHTTP(rw, r)
			})
		})
		_, err := w.ag.ExecuteOpts("Auction", w.plan, ExecOptions{Link: netsim.Loopback(), Reliability: retrying(8, 4)})
		w.close()
		if !errors.Is(err, wire.ErrChunkOrder) {
			t.Errorf("%s: err = %v, want ErrChunkOrder", shipment, err)
		}
		if s, d := sourceCalls.Load(), deliveries.Load(); s != 1 || d != 0 {
			t.Errorf("%s: %d source calls, %d deliveries; want one and none", shipment, s, d)
		}
	}
}

// TestSourceCaptureAllocationBudget pins what capturing a source response
// costs the agency's heap: a constant, however many chunks it carries — no
// attribute is tokenised per chunk, and buffer and index come from pools.
func TestSourceCaptureAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	response := func(chunks int) []byte {
		var b bytes.Buffer
		b.WriteString(`<soap:Envelope xmlns:soap="` + soap.EnvelopeNS + `" codec="bin"><soap:Body><ExecuteSourceResponse><shipment>`)
		for i := 0; i < chunks; i++ {
			fmt.Fprintf(&b, `<instance edge="0:item" frag="item" seq="%d" format="bin">%s</instance>`, i, strings.Repeat("QUJD", 400))
		}
		b.WriteString(`</shipment><timing queryMillis="1.5" payloadBytes="123"/></ExecuteSourceResponse></soap:Body></soap:Envelope>`)
		return b.Bytes()
	}
	capture := func(body []byte, chunks int) float64 {
		relay := wire.NewRelay()
		defer relay.Release()
		rd := bytes.NewReader(nil)
		return testing.AllocsPerRun(20, func() {
			relay.Reset()
			rd.Reset(body)
			scan := &sourceCapture{relay: relay}
			if _, err := soap.ScanEnvelope(rd, scan); err != nil {
				t.Fatal(err)
			}
			if relay.Len() != chunks || scan.codec != "bin" || scan.payloadBytes != "123" {
				t.Fatalf("captured %d chunks, codec %q, payload %q", relay.Len(), scan.codec, scan.payloadBytes)
			}
		})
	}
	few, many := capture(response(16), 16), capture(response(1024), 1024)
	t.Logf("allocations per capture: %.0f for 16 chunks, %.0f for 1,024", few, many)
	if many > few+2 || many > 48 {
		t.Errorf("capturing 1,024 chunks costs %.0f allocations against %.0f for 16; want a constant", many, few)
	}
}
