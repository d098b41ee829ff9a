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

// TestRestartReplaysJournaledDuplicatesThroughDedup: a session's first two
// chunks are journaled as they arrive, the delivery tears, and the
// endpoint restarts on the same WAL directory. Hydration replays their
// payloads through the shipment decoder, and the resumed delivery re-sends
// the whole shipment from chunk 0: the restored checkpoint declines the
// duplicates of the journaled chunks, so the target loads exactly what an
// uninterrupted run loads — the source's rows, once.
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

	for _, codecName := range []string{"xml", "bin"} {
		t.Run(codecName, func(t *testing.T) {
			codec, err := wire.ParseCodec(codecName)
			if err != nil {
				t.Fatal(err)
			}
			var ship bytes.Buffer
			sw := wire.NewShipmentWriterCodec(&ship, sch, codec)
			for _, c := range chunks {
				if err := sw.EmitChunk(c.Key, c.Frag, c.Recs, c.Seq); err != nil {
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
			if v, _ := resp.Attr("declined"); v != "0" {
				t.Fatalf("uninterrupted run declined %q chunks, want 0", v)
			}

			// Attempt 1 carries a shipment of chunks 0 and 1 and tears
			// before the request closes. The shipment's close waits for
			// both chunks' tickets and applies them, so both are journaled
			// whatever the journal's timing.
			dir := t.TempDir()
			j, err := durable.OpenJournal(dir, durable.Options{})
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
			j, err = durable.OpenJournal(dir, durable.Options{})
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
			if v, _ := resp.Attr("declined"); v != "2" {
				t.Errorf("resumed run declined %q chunks, want 2 (the journaled chunks, re-sent)", v)
			}
			if v, _ := resp.Attr("checkpoint"); v != strconv.Itoa(len(chunks)) {
				t.Errorf("checkpoint %q, want %d", v, len(chunks))
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
