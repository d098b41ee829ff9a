package endpoint

import (
	"compress/flate"
	"encoding/base64"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// copyProgram is the Scan->Write program between identical fragmentations,
// scans placed at the source.
func copyProgram(t *testing.T, fr *core.Fragmentation) (*core.Graph, *xmltree.Node) {
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
		a[op.ID] = core.LocSource
		if op.Kind == core.OpWrite {
			a[op.ID] = core.LocTarget
		}
	}
	progXML, err := wire.EncodeProgram(g, a)
	if err != nil {
		t.Fatal(err)
	}
	return g, progXML
}

// TestExecuteSourceCutsAndNumbersChunks: asked for a chunk size, the source
// sequences its own chunks densely from 0 and reports the shipment's
// tree-codec size on the trailing timing; a chunk size that is not a
// positive integer is the caller's fault.
func TestExecuteSourceCutsAndNumbersChunks(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	c, done := startEndpoint(t, &RelBackend{Store: loadedStore(t, fr), Speed: 1, CanCombine: true})
	defer done()
	g, progXML := copyProgram(t, fr)
	req := &xmltree.Node{Name: "ExecuteSource"}
	req.SetAttr("chunk", "1")
	req.AddKid(progXML)
	resp, err := c.Call("ExecuteSource", req)
	if err != nil {
		t.Fatal(err)
	}
	shipment, timing := resp.Kids[0], resp.Kids[1]
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
	decoded, err := wire.ReadShipment(strings.NewReader(xmltree.Marshal(shipment, xmltree.WriteOptions{EmitAllIDs: true})),
		fr.Schema, func(name string) *core.Fragment { return frags[name] })
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := timing.Attr("payloadBytes"); v != strconv.FormatInt(wire.ShipmentBytes(decoded), 10) {
		t.Errorf("payloadBytes = %q, shipment is %d", v, wire.ShipmentBytes(decoded))
	}
	for _, bad := range []string{"0", "-3", "many"} {
		req := &xmltree.Node{Name: "ExecuteSource"}
		req.SetAttr("chunk", bad)
		req.AddKid(progXML)
		var f *soap.Fault
		if _, err := c.Call("ExecuteSource", req); !errors.As(err, &f) || f.Code != "soap:Client" {
			t.Errorf("chunk=%q: err = %v, want a soap:Client fault", bad, err)
		}
	}
}

// TestExecuteTargetOversizedChunkIsClientFault: the target refuses a chunk
// past wire.MaxChunkBytes as the sender's fault, which no driver retries —
// whether its wire text is too long, a few KiB of bin+flate text inflate
// past the limit, or tagged-XML records stage more than the limit, and
// whether the chunk parses in-line (one codec worker) or in the decode
// pool, where the refusal surfaces only as the shipment closes.
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
		workers                 int
	}{
		{"wire-text", "bin", "", strings.Repeat("A", wire.MaxChunkBytes+1), 1},
		{"inflated/w1", "bin", "flate", zeros.String(), 1},
		{"inflated/w4", "bin", "flate", zeros.String(), 4},
		{"tagged-xml", "", "", "<r>" + half + "</r><r>" + half + "</r>", 1},
	} {
		st, err := relstore.NewStore(fr)
		if err != nil {
			t.Fatal(err)
		}
		cl, done := startEndpoint(t, &RelBackend{Store: st, Speed: 1, CanCombine: true},
			func(e *Endpoint) { e.SetCodecWorkers(c.workers) })
		_, progXML := copyProgram(t, fr)
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
		done()
		var f *soap.Fault
		if !errors.As(err, &f) || f.Code != "soap:Client" || !strings.Contains(f.String, wire.ErrChunkTooLarge.Error()) {
			t.Fatalf("%s: err = %v, want a soap:Client fault naming the chunk limit", c.name, err)
		}
		if st.Rows() != 0 {
			t.Errorf("%s: refused delivery loaded %d rows", c.name, st.Rows())
		}
	}
}
