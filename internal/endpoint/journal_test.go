package endpoint

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/wsdlx"
	"xdx/internal/xmltree"
)

// storeDocument reassembles everything a target store holds.
func storeDocument(t *testing.T, st *relstore.Store) *xmltree.Node {
	t.Helper()
	insts := map[string]*core.Instance{}
	for _, f := range st.Layout.Fragments {
		in, err := st.ScanFragment(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		insts[f.Name] = in
	}
	doc, err := core.Document(st.Layout, insts)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestRestartReplaysJournaledDuplicatesThroughDedup: a session's second
// chunk re-ships records its first chunk already committed. Both chunks
// are journaled as they arrived, the delivery tears, and the endpoint
// restarts on the same WAL directory. Hydration replays the payloads
// through the shipment decoder, so the duplicates dedup there exactly as
// they did on receipt: the resumed delivery reports the same deduped count
// as an uninterrupted run and loads the same contents.
func TestRestartReplaysJournaledDuplicatesThroughDedup(t *testing.T) {
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	srcStore := loadedStore(t, fr)
	outbound, progXML := sourceOutbound(t, fr, srcStore)
	prog := xmltree.Marshal(progXML, xmltree.WriteOptions{EmitAllIDs: true})
	chunks := reliable.ChunkShipment(outbound, 1)
	if len(chunks) < 2 {
		t.Fatalf("fixture too small: %d chunks", len(chunks))
	}
	dups := len(chunks[0].Recs)

	for _, codecName := range []string{"xml", "bin"} {
		t.Run(codecName, func(t *testing.T) {
			codec, err := wire.ParseCodec(codecName)
			if err != nil {
				t.Fatal(err)
			}
			// Chunk 1 repeats chunk 0's records on the same edge.
			var ship bytes.Buffer
			sw := wire.NewShipmentWriterCodec(&ship, sch, codec)
			emit := append([]reliable.Chunk{chunks[0]}, chunks...)
			for seq, c := range emit {
				if err := sw.EmitChunk(c.Key, c.Frag, c.Recs, int64(seq)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			shipment := ship.Bytes()

			deliver := func(cl *soap.Client, session string, body []byte, whole bool) (*xmltree.Node, error) {
				tb := &xmltree.TreeBuilder{}
				err := cl.CallStream("ExecuteTarget", func(w io.Writer) error {
					io.WriteString(w, `<ExecuteTarget session="`+session+`">`)
					io.WriteString(w, prog)
					w.Write(body)
					if !whole {
						return errors.New("injected drop")
					}
					_, err := io.WriteString(w, "</ExecuteTarget>")
					return err
				}, tb)
				return tb.Root(), err
			}
			target := func(j *durable.Journal) (*relstore.Store, *soap.Client, func()) {
				st, err := relstore.NewStore(fr)
				if err != nil {
					t.Fatal(err)
				}
				ep := New("T", &RelBackend{Store: st, Speed: 1, CanCombine: true}, &wsdlx.Definitions{
					Name: "CustomerInfo", TargetNamespace: "ns", ServiceName: "svc",
					PortName: "p", Address: "http://x", Schema: sch,
					Fragmentations: []*core.Fragmentation{fr},
				})
				if j != nil {
					if _, err := ep.SetJournal(j); err != nil {
						t.Fatal(err)
					}
				}
				srv := httptest.NewServer(ep.Handler())
				return st, &soap.Client{URL: srv.URL}, srv.Close
			}

			// The uninterrupted run, memory-only.
			wantStore, cl, stop := target(nil)
			resp, err := deliver(cl, "whole", shipment, true)
			stop()
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := resp.Attr("deduped"); v != strconv.Itoa(dups) {
				t.Fatalf("uninterrupted run deduped %q records, want %d", v, dups)
			}

			// Attempt 1 carries a shipment of chunks 0 and 1 and tears
			// before the request closes. The shipment's close commits and
			// applies both chunks (FsyncAlways resolves each ticket as it
			// commits), so both are journaled whatever the parse pool's
			// timing.
			dir := t.TempDir()
			j, err := durable.OpenJournal(dir, durable.Options{Fsync: durable.FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			_, cl, stop = target(j)
			end := []byte("</instance>")
			cut := bytes.Index(shipment, end) + len(end)
			cut += bytes.Index(shipment[cut:], end) + len(end)
			torn := append(shipment[:cut:cut], "</shipment>"...)
			if _, err := deliver(cl, "torn", torn, false); err == nil {
				t.Fatal("torn delivery reported success")
			}
			status := &xmltree.Node{Name: "SessionStatus"}
			status.SetAttr("session", "torn")
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				st, err := cl.Call("SessionStatus", status)
				if err != nil {
					t.Fatal(err)
				}
				if v, _ := st.Attr("next"); v == "2" {
					break
				} else if time.Now().After(deadline) {
					t.Fatalf("checkpoint %q after the torn delivery, want 2", v)
				}
			}
			stop()
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			// Restart: the session and its two chunks come back from the WAL.
			j, err = durable.OpenJournal(dir, durable.Options{Fsync: durable.FsyncBatch})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			gotStore, cl, stop := target(j)
			defer stop()
			resp, err = deliver(cl, "torn", shipment, true)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := resp.Attr("deduped"); v != strconv.Itoa(dups) {
				t.Errorf("resumed run deduped %q records, want %d (the duplicates dedup on hydration)", v, dups)
			}
			if v, _ := resp.Attr("checkpoint"); v != strconv.Itoa(len(emit)) {
				t.Errorf("checkpoint %q, want %d", v, len(emit))
			}
			if gotStore.Rows() != wantStore.Rows() || !xmltree.Equal(storeDocument(t, wantStore), storeDocument(t, gotStore)) {
				t.Errorf("restarted target holds %d rows unlike the uninterrupted run's %d", gotStore.Rows(), wantStore.Rows())
			}
			if gotStore.Rows() != srcStore.Rows() {
				t.Errorf("restarted target rows = %d, source has %d", gotStore.Rows(), srcStore.Rows())
			}
		})
	}
}
