package endpoint

import (
	"bytes"
	"math"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/ldapstore"
	"xdx/internal/obs"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/telgen"
	"xdx/internal/wire"
	"xdx/internal/wsdlx"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

func tFrag(t *testing.T, sch *schema.Schema) *core.Fragmentation {
	t.Helper()
	fr, err := core.FromPartition(sch, "T", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func loadedStore(t *testing.T, fr *core.Fragmentation) *relstore.Store {
	t.Helper()
	st, err := relstore.NewStore(fr)
	if err != nil {
		t.Fatal(err)
	}
	loadCustomer(t, st)
	return st
}

// loadCustomer loads loadedStore's one customer into st.
func loadCustomer(t *testing.T, st *relstore.Store) {
	t.Helper()
	doc, err := xmltree.Parse(strings.NewReader(
		`<Customer><CustName>Ann</CustName><Order><Service><ServiceName>s</ServiceName>` +
			`<Line><TelNo>1</TelNo><Switch><SwitchID>w</SwitchID></Switch>` +
			`<Feature><FeatureID>f</FeatureID></Feature></Line></Service></Order></Customer>`))
	if err != nil {
		t.Fatal(err)
	}
	core.AssignIDs(doc)
	if err := st.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
}

func startEndpoint(t *testing.T, be Backend) (*soap.Client, func()) {
	t.Helper()
	srv := httptest.NewServer(testEndpoint(be).Handler())
	return &soap.Client{URL: srv.URL}, srv.Close
}

// testEndpoint is the endpoint startEndpoint serves, for tests that drive
// its handler directly.
func testEndpoint(be Backend) *Endpoint {
	defs := &wsdlx.Definitions{
		Name: "CustomerInfo", TargetNamespace: "ns", ServiceName: "svc",
		PortName: "p", Address: "http://x", Schema: be.Layout().Schema,
		Fragmentations: []*core.Fragmentation{be.Layout()},
	}
	return New("test", be, defs)
}

func TestGetWSDL(t *testing.T) {
	sch := schema.CustomerInfo()
	st := loadedStore(t, tFrag(t, sch))
	c, done := startEndpoint(t, &RelBackend{Store: st, Speed: 1, CanCombine: true})
	defer done()
	resp, err := c.Call("GetWSDL", &xmltree.Node{Name: "GetWSDL"})
	if err != nil {
		t.Fatal(err)
	}
	defs, err := wsdlx.Parse(strings.NewReader(resp.Text))
	if err != nil {
		t.Fatal(err)
	}
	if defs.ServiceName != "svc" || len(defs.Fragmentations) != 1 {
		t.Errorf("WSDL round trip wrong: %+v", defs)
	}
}

// TestProbeStats: a probe reports the backend's speed, combines and
// cards. One naming no codec calibrates nothing; one naming xml measures
// both ship coefficients: its records' framing is wire bytes too.
func TestProbeStats(t *testing.T) {
	sch := schema.CustomerInfo()
	e := testEndpoint(&RelBackend{Store: loadedStore(t, tFrag(t, sch)), Speed: 2, CanCombine: true})
	met := obs.NewRegistry()
	e.SetObs(nil, met)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	c := &soap.Client{URL: srv.URL}
	p := probe(t, c, "")
	if p.SourceSpeed != 2 || !p.TargetCombines {
		t.Errorf("stats wrong: %+v", p)
	}
	if p.Card["Feature"] != 1 {
		t.Errorf("Feature card = %v, want 1", p.Card["Feature"])
	}
	if p.ShipScale != 0 || p.ShipRecord != 0 {
		t.Errorf("probe without a codec answered scale %v, per record %v; want unmeasured", p.ShipScale, p.ShipRecord)
	}
	if n := met.Counter("endpoint.calibrations").Value(); n != 0 {
		t.Errorf("endpoint.calibrations = %d after a probe without a codec, want 0", n)
	}
	if p := probe(t, c, "xml"); p.ShipScale <= 0 || p.ShipRecord <= 0 {
		t.Errorf("xml probe answered scale %v, per record %v; want both measured", p.ShipScale, p.ShipRecord)
	}
	if n := met.Counter("endpoint.calibrations").Value(); n != 1 {
		t.Errorf("endpoint.calibrations = %d after an xml probe, want 1", n)
	}
}

// Calibration splits its sample, and Split cuts the records it is given.
// A backend may hand out trees it holds (here a VirtualBackend whose
// producers return the very records they keep): an xml probe splits a
// Clone, so it still measures the per-record term and every held record
// keeps the children it had.
func TestCalibrateKeepsHeldTrees(t *testing.T) {
	fr := tFrag(t, schema.CustomerInfo())
	st := loadedStore(t, fr)
	be := &VirtualBackend{Base: &RelBackend{Store: st, Speed: 1}, Virtual: map[string]func() (*core.Instance, error){}}
	held := map[*core.Fragment][]*xmltree.Node{}
	var orig []*xmltree.Node
	for _, f := range fr.Fragments {
		in, err := st.ScanFragment(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		held[f] = in.Records
		for _, r := range in.Records {
			orig = append(orig, r.Clone())
		}
		be.Virtual[f.Name] = func() (*core.Instance, error) { return in, nil }
	}
	srv := httptest.NewServer(testEndpoint(be).Handler())
	defer srv.Close()
	if p := probe(t, &soap.Client{URL: srv.URL}, "xml"); p.ShipRecord <= 0 {
		t.Errorf("xml probe answered per record %v, want measured", p.ShipRecord)
	}
	i := 0
	for _, f := range fr.Fragments {
		for _, r := range held[f] {
			if !xmltree.Equal(r, orig[i]) {
				t.Errorf("%s: held record %s changed by calibration: %s", f.Name, orig[i].ID,
					xmltree.Marshal(r, xmltree.WriteOptions{}))
			}
			i++
		}
	}
}

// probe answers one ProbeStats call naming codec (none when empty).
func probe(t *testing.T, c *soap.Client, codec string) *core.StatsProvider {
	t.Helper()
	req := &xmltree.Node{Name: "ProbeStats"}
	if codec != "" {
		req.SetAttr("codec", codec)
	}
	resp, err := c.Call("ProbeStats", req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wire.DecodeStats(resp.Kids[0])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProbeCalibratesCurrentRows: a store probed under bin while empty,
// then loaded, answers its next probe with the coefficients a fresh
// endpoint over the same rows measures, not the unmeasured ones of the
// first probe.
func TestProbeCalibratesCurrentRows(t *testing.T) {
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	st, err := relstore.NewStore(fr)
	if err != nil {
		t.Fatal(err)
	}
	c, done := startEndpoint(t, &RelBackend{Store: st, Speed: 1, CanCombine: true})
	defer done()
	if p := probe(t, c, "bin"); p.ShipScale != 0 || p.ShipRecord != 0 {
		t.Fatalf("empty store: scale %v, per record %v; want unmeasured", p.ShipScale, p.ShipRecord)
	}
	loadCustomer(t, st)
	fresh, freshDone := startEndpoint(t, &RelBackend{Store: loadedStore(t, fr), Speed: 1, CanCombine: true})
	defer freshDone()
	got, want := probe(t, c, "bin"), probe(t, fresh, "bin")
	if want.ShipScale <= 0 || want.ShipRecord <= 0 {
		t.Fatalf("fresh endpoint measured scale %v, per record %v", want.ShipScale, want.ShipRecord)
	}
	if got.ShipScale != want.ShipScale || got.ShipRecord != want.ShipRecord {
		t.Errorf("after the load: scale %v, per record %v; a fresh endpoint over the same rows: %v, %v",
			got.ShipScale, got.ShipRecord, want.ShipScale, want.ShipRecord)
	}
}

func TestExecuteSourceAndTarget(t *testing.T) {
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	srcStore := loadedStore(t, fr)
	srcClient, srcDone := startEndpoint(t, &RelBackend{Store: srcStore, Speed: 1, CanCombine: true})
	defer srcDone()
	tgtStore, err := relstore.NewStore(fr)
	if err != nil {
		t.Fatal(err)
	}
	tgtClient, tgtDone := startEndpoint(t, &RelBackend{Store: tgtStore, Speed: 1, CanCombine: true})
	defer tgtDone()

	// Identical fragmentations: pure Scan->Write program.
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
	// The source delivers straight to the target: a sequenced session
	// delivery, one chunk per instance at this chunk size.
	reqS := &xmltree.Node{Name: "ExecuteSource"}
	reqS.SetAttr("chunk", "1000")
	reqS.AddKid(progXML)
	respS, err := callSource(srcClient, reqS, tgtClient.URL)
	if err != nil {
		t.Fatal(err)
	}
	var timing, respT *xmltree.Node
	for _, k := range respS.Kids {
		switch k.Name {
		case "timing":
			timing = k
		case "ExecuteTargetResponse":
			respT = k
		}
	}
	if timing == nil || respT == nil {
		t.Fatalf("answer lacks <timing> or the target's response: %v", respS.Kids)
	}
	if ms, ok := timing.Attr("queryMillis"); !ok || ms == "" {
		t.Error("missing queryMillis")
	}
	if v, _ := timing.Attr("wireBytes"); v == "" || v == "0" {
		t.Errorf("wireBytes = %q, want the delivered shipment's size", v)
	}
	if v, ok := respT.Attr("writeMillis"); !ok || ParseMillis(v) < 0 {
		t.Errorf("writeMillis missing/negative: %v", v)
	}
	if tgtStore.Rows() != srcStore.Rows() {
		t.Errorf("target rows = %d, want %d", tgtStore.Rows(), srcStore.Rows())
	}
	// Target indexes were built.
	for _, name := range tgtStore.Tables() {
		if len(tgtStore.Table(name).Indexes()) != 2 {
			t.Errorf("table %q not indexed", name)
		}
	}
}

func TestExecuteSourceMissingProgram(t *testing.T) {
	sch := schema.CustomerInfo()
	st := loadedStore(t, tFrag(t, sch))
	c, done := startEndpoint(t, &RelBackend{Store: st, Speed: 1, CanCombine: true})
	defer done()
	if _, err := c.Call("ExecuteSource", &xmltree.Node{Name: "ExecuteSource"}); err == nil {
		t.Error("missing program must fault")
	}
}

func TestExecuteTargetMissingShipment(t *testing.T) {
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	st, _ := relstore.NewStore(fr)
	c, done := startEndpoint(t, &RelBackend{Store: st, Speed: 1, CanCombine: true})
	defer done()
	m, _ := core.NewMapping(fr, fr)
	g, _ := core.CanonicalProgram(m)
	a := core.NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == core.OpWrite {
			a[op.ID] = core.LocTarget
		} else {
			a[op.ID] = core.LocSource
		}
	}
	progXML, _ := wire.EncodeProgram(g, a)
	req := &xmltree.Node{Name: "ExecuteTarget"}
	req.SetAttr("session", "s1")
	req.AddKid(progXML)
	if _, err := c.Call("ExecuteTarget", req); err == nil {
		t.Error("missing shipment must fault")
	}
}

func TestLDAPBackendBehaviour(t *testing.T) {
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	be := &LDAPBackend{Store: ldapstore.NewStore(fr), Speed: 3}
	if in, err := be.Scan(fr.Fragments[0]); err != nil || in.Len() != 0 {
		t.Errorf("scan of empty directory: %v, %d records", err, in.Len())
	}
	p := be.Provider()
	if p.TargetCombines {
		t.Error("LDAP backend must be a dumb client")
	}
	if p.TargetSpeed != 3 {
		t.Errorf("speed = %v", p.TargetSpeed)
	}
	if !math.IsInf(p.CompCost(core.OpCombine, 0, fr.Fragments[0], core.LocTarget), 1) {
		t.Error("combine at dumb client should cost +Inf")
	}
	if err := be.BuildIndexes(); err != nil {
		t.Errorf("BuildIndexes: %v", err)
	}
}

func TestVirtualBackend(t *testing.T) {
	// A computed fragment (§1.1's TotalMRCService idea): Customer data
	// comes from a function, the rest from the store.
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	st := loadedStore(t, fr)
	custFrag := fr.FragmentOf("CustName")
	be := &VirtualBackend{
		Base: &RelBackend{Store: st, Speed: 1, CanCombine: true},
		Virtual: map[string]func() (*core.Instance, error){
			custFrag.Name: func() (*core.Instance, error) {
				return &core.Instance{Frag: custFrag, Records: []*xmltree.Node{
					{Name: "Customer", ID: "v1", Kids: []*xmltree.Node{
						{Name: "CustName", ID: "v2", Parent: "v1", Text: "computed"},
					}},
				}}, nil
			},
		},
	}
	in, err := be.Scan(custFrag)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := in.Build(nil, 0, in.Len(), nil)
	if err != nil || len(recs) != 1 || recs[0].Find("CustName").Text != "computed" {
		t.Errorf("virtual fragment not served: %v, %v", recs, err)
	}
	// Non-virtual fragments still come from the store.
	other := fr.FragmentOf("FeatureID")
	in, err = be.Scan(other)
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() != 1 {
		t.Errorf("base fragment records = %d", in.Len())
	}
	// A virtual producer returning garbage is rejected.
	be.Virtual[other.Name] = func() (*core.Instance, error) {
		return &core.Instance{Frag: other, Records: []*xmltree.Node{{Name: "Wrong"}}}, nil
	}
	if _, err := be.Scan(other); err == nil {
		t.Error("invalid virtual instance must be rejected")
	}
}

func TestVirtualBackendPassthrough(t *testing.T) {
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	st := loadedStore(t, fr)
	be := &VirtualBackend{Base: &RelBackend{Store: st, Speed: 2, CanCombine: true}}
	if be.Layout() != fr {
		t.Error("Layout passthrough broken")
	}
	if be.Provider().SourceSpeed != 2 {
		t.Error("Provider passthrough broken")
	}
	if err := be.BuildIndexes(); err != nil {
		t.Errorf("BuildIndexes: %v", err)
	}
	custFrag := fr.FragmentOf("CustName")
	in, err := be.Scan(custFrag)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := in.Build(nil, 0, in.Len(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := relstore.NewStore(fr)
	be2 := &VirtualBackend{Base: &RelBackend{Store: st2, Speed: 1, CanCombine: true}}
	if err := be2.Write(&core.Instance{Frag: custFrag, Records: recs}); err != nil {
		t.Errorf("Write passthrough: %v", err)
	}
	if st2.Rows() != 1 {
		t.Errorf("write landed %d rows", st2.Rows())
	}
}

func TestExecuteSourceWithFilter(t *testing.T) {
	// §3.2 service arguments over SOAP: the source filters before
	// executing.
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	st := loadedStore(t, fr)
	c, done := startEndpoint(t, &RelBackend{Store: st, Speed: 1, CanCombine: true})
	defer done()
	m, _ := core.NewMapping(fr, fr)
	g, _ := core.CanonicalProgram(m)
	a := core.NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == core.OpWrite {
			a[op.ID] = core.LocTarget
		} else {
			a[op.ID] = core.LocSource
		}
	}
	progXML, _ := wire.EncodeProgram(g, a)
	tgt := startSink(t)
	req := &xmltree.Node{Name: "ExecuteSource"}
	req.SetAttr("filter", "CustName = 'NoSuchCustomer'")
	req.AddKid(progXML)
	if _, err := callSource(c, req, tgt.srv.URL); err != nil {
		t.Fatal(err)
	}
	for _, ix := range tgt.shipment(t).Kids {
		if len(ix.Kids) != 0 {
			t.Errorf("filtered-out exchange still shipped records")
		}
	}
}

func TestRelBackendDefaultsSpeed(t *testing.T) {
	sch := schema.CustomerInfo()
	st := loadedStore(t, tFrag(t, sch))
	be := &RelBackend{Store: st, CanCombine: true} // zero speed
	if got := be.Provider().SourceSpeed; got != 1 {
		t.Errorf("default speed = %v, want 1", got)
	}
}

func TestParseMillis(t *testing.T) {
	if got := ParseMillis("12.5"); got.Milliseconds() != 12 {
		t.Errorf("ParseMillis = %v", got)
	}
	if got := ParseMillis("junk"); got != 0 {
		t.Errorf("ParseMillis(junk) = %v", got)
	}
}

// TestFilteredScanServesEachScanFresh: the slice consumes what a Scan
// serves — Split cuts the records it is given in place — so a filtered
// program that scans one fragment twice must get the pristine filtered
// records both times, not the records the first Split already cut: built
// anew from rows over a relational store (directly or behind a
// VirtualBackend), a Clone of the trees any other backend holds.
func TestFilteredScanServesEachScanFresh(t *testing.T) {
	sch := schema.CustomerInfo()
	fr := tFrag(t, sch)
	rel := &RelBackend{Store: loadedStore(t, fr), Speed: 1, CanCombine: true}
	t.Run("rows", func(t *testing.T) { filteredScanServesEachScanFresh(t, rel) })
	t.Run("trees", func(t *testing.T) { filteredScanServesEachScanFresh(t, treeBackend{rel}) })
	t.Run("virtual", func(t *testing.T) { filteredScanServesEachScanFresh(t, &VirtualBackend{Base: rel}) })
}

func filteredScanServesEachScanFresh(t *testing.T, be Backend) {
	sch := be.Layout().Schema
	fr := be.Layout()
	c, done := startEndpoint(t, be)
	defer done()
	order := fr.Fragments[1]
	top, err := core.NewFragment(sch, "OrderOnly", []string{"Order"})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewFragment(sch, "ServiceOnly", []string{"Service", "ServiceName"})
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph()
	var splits []*core.Op
	for range 2 {
		scan := g.AddOp(core.OpScan, order)
		split := g.AddOp(core.OpSplit, order, top, svc)
		g.Connect(scan, split, order)
		for _, p := range split.Parts {
			g.Connect(split, g.AddOp(core.OpWrite, p), p)
		}
		splits = append(splits, split)
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
	tgt := startSink(t)
	req := &xmltree.Node{Name: "ExecuteSource"}
	req.SetAttr("filter", "CustName = 'Ann'")
	req.AddKid(progXML)
	if _, err := callSource(c, req, tgt.srv.URL); err != nil {
		t.Fatal(err)
	}
	frags := g.FragmentsByName()
	got, err := wire.ReadShipment(strings.NewReader(xmltree.Marshal(tgt.shipment(t), xmltree.WriteOptions{EmitAllIDs: true})),
		sch, func(name string) *core.Fragment { return frags[name] })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*core.Fragment{top, svc} {
		var recs []string
		for _, split := range splits {
			in := got[core.EdgeKey(&core.Edge{From: split, Frag: p})]
			if in == nil || len(in.Records) != 1 {
				t.Fatalf("Split %d shipped no single %s record, want the one the filter keeps", split.ID, p.Name)
			}
			recs = append(recs, xmltree.Marshal(in.Records[0], xmltree.WriteOptions{EmitAllIDs: true}))
		}
		if recs[0] != recs[1] {
			t.Errorf("%s: the second Scan's Split shipped %s, the first %s", p.Name, recs[1], recs[0])
		}
	}
}

// treeBackend hides a relational backend's store from the endpoint, so
// every layout scan builds the fragment's whole instance as trees.
type treeBackend struct{ *RelBackend }

// Scan implements Backend with the whole instance, built as trees.
func (b treeBackend) Scan(f *core.Fragment) (core.Records, error) {
	return b.Store.ScanFragment(f.Name)
}

// calBytes is what one calibration in codec allocates, averaged over runs.
func calBytes(t *testing.T, e *Endpoint, codec wire.Codec) uint64 {
	t.Helper()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := e.calibrate(codec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// Over a relational store, calibration builds only its sample records
// from a row snapshot: on XMark MF and LF and on telgen S, in every codec,
// its coefficients equal those of the scan that builds each whole instance
// as trees, and what it allocates is set by the sample, not the store — an
// XMark store four times larger costs it about the same, a small share of
// what the tree scan costs. Each record costs framing under xml and bin
// alike, so where a layout's records hold more than one element (XMark LF,
// telgen S) the per-record term is measured; MF has nothing to split.
func TestCalibrateSamplesRows(t *testing.T) {
	xsch, tsch := xmark.Schema(), telgen.Schema()
	paperS, err := core.PaperSFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	var codecs []wire.Codec
	for _, name := range []string{"xml", "bin", "bin+flate"} {
		c, err := wire.ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		codecs = append(codecs, c)
	}
	load := func(layout *core.Fragmentation, docs ...*xmltree.Node) *RelBackend {
		st, err := relstore.NewStore(layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			if err := st.LoadDocument(d); err != nil {
				t.Fatal(err)
			}
		}
		return &RelBackend{Store: st, Speed: 1}
	}
	auction := func(size int64) *xmltree.Node { return xmark.Generate(xmark.Config{TargetBytes: size, Seed: 3}) }
	for _, c := range []struct {
		name string
		be   *RelBackend
		cuts bool
	}{
		{"xmark MF", load(core.MostFragmented(xsch), auction(200_000)), false},
		{"xmark LF", load(core.LeastFragmented(xsch), auction(200_000)), true},
		{"telgen S", load(paperS, telgen.Customers(telgen.Config{Customers: 200, Seed: 3})...), true},
	} {
		rows, trees := New("rows", c.be, nil), New("trees", treeBackend{c.be}, nil)
		if rows.rowStore() == nil || trees.rowStore() != nil {
			t.Fatalf("%s: the row and tree paths are not apart", c.name)
		}
		for _, codec := range codecs {
			gotA, gotB, err := rows.calibrate(codec)
			if err != nil {
				t.Fatal(err)
			}
			wantA, wantB, err := trees.calibrate(codec)
			if err != nil {
				t.Fatal(err)
			}
			if gotA != wantA || gotB != wantB {
				t.Errorf("%s, %s: rows calibrate (%v, %v), trees (%v, %v)", c.name, codec, gotA, gotB, wantA, wantB)
			}
			if gotA <= 0 {
				t.Errorf("%s, %s: scale %v, want measured", c.name, codec, gotA)
			}
			if (gotB > 0) != c.cuts {
				t.Errorf("%s, %s: per record %v, want measured: %v", c.name, codec, gotB, c.cuts)
			}
		}
	}
	codec := codecs[1]
	for _, layout := range []*core.Fragmentation{core.MostFragmented(xsch), core.LeastFragmented(xsch)} {
		small, large := load(layout, auction(250_000)), load(layout, auction(1_000_000))
		s, l := calBytes(t, New("s", small, nil), codec), calBytes(t, New("l", large, nil), codec)
		tree := calBytes(t, New("t", treeBackend{large}, nil), codec)
		t.Logf("%s: %d bytes over the small store, %d over the large, %d from trees", layout.Name, s, l, tree)
		if l > s+s/2 || l > tree/4 {
			t.Errorf("%s: calibration allocates %d bytes over a store 4x the size of one it allocates %d over (trees: %d)",
				layout.Name, l, s, tree)
		}
	}
}

// A filtered render over rows ships what the tree path ships. On telgen S
// (filters keeping no customer, one, and every one) and XMark MF (whose
// one root record the existence filter "site" keeps), with Scans that only
// ship and with Scans that feed source ops (Splits and Combines of
// telgen S→T, Combines of XMark MF→LF), in xml and bin, the shipment's
// bytes over a relational store equal those over
// treeBackend, whose every scan builds trees; a filter keeping every root
// ships what no filter does, and one keeping none ships no record.
func TestFilteredScanMatchesTreePath(t *testing.T) {
	tsch, xsch := telgen.Schema(), xmark.Schema()
	paperS, err := core.PaperSFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	paperT, err := core.PaperTFragmentation(tsch)
	if err != nil {
		t.Fatal(err)
	}
	customers := telgen.Customers(telgen.Config{Customers: 12, Seed: 9})
	for i, d := range customers {
		d.Find("CustName").Text = "c" + strconv.Itoa(i)
	}
	load := func(layout *core.Fragmentation, docs ...*xmltree.Node) *RelBackend {
		st, err := relstore.NewStore(layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			if err := st.LoadDocument(d); err != nil {
				t.Fatal(err)
			}
		}
		return &RelBackend{Store: st, Speed: 1, CanCombine: true}
	}
	var codecs []wire.Codec
	for _, name := range []string{"xml", "bin"} {
		c, err := wire.ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		codecs = append(codecs, c)
	}
	for _, c := range []struct {
		name           string
		be             *RelBackend
		target         *core.Fragmentation
		none, one, all string
	}{
		{"telgen S", load(paperS, customers...), paperT, `CustName = "nobody"`, `CustName = "c7"`, `CustName != "nobody"`},
		{"xmark MF", load(core.MostFragmented(xsch), xmark.Generate(xmark.Config{TargetBytes: 40_000, Seed: 9})), core.LeastFragmented(xsch), "", "site", "site"},
	} {
		rows, trees := New("rows", c.be, nil), New("trees", treeBackend{c.be}, nil)
		if rows.rowStore() == nil || trees.rowStore() != nil {
			t.Fatalf("%s: the row and tree paths are not apart", c.name)
		}
		m, err := core.NewMapping(c.be.Layout(), c.target)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.CanonicalProgram(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, placement := range []string{"ship-only", "op-read"} {
			a := core.NewAssignment(g)
			for _, op := range g.Ops {
				a[op.ID] = core.LocTarget
				if op.Kind == core.OpScan || placement == "op-read" && op.Kind != core.OpWrite {
					a[op.ID] = core.LocSource
				}
			}
			read := 0
			for _, e := range g.Edges {
				if e.From.Kind == core.OpScan && a[e.To.ID] == core.LocSource {
					read++
				}
			}
			if (read == 0) != (placement == "ship-only") {
				t.Fatalf("%s, %s: %d Scans feed a source op", c.name, placement, read)
			}
			for _, codec := range codecs {
				ship := func(e *Endpoint, filter string) ([]byte, int) {
					t.Helper()
					req := &xmltree.Node{Name: "ExecuteSource"}
					if filter != "" {
						req.SetAttr("filter", filter)
					}
					r, err := e.renderSource(req, g, a, delivery{})
					if err != nil {
						t.Fatal(err)
					}
					n := 0
					for _, o := range r.ship {
						n += o.Recs.Len()
					}
					var buf bytes.Buffer
					sw := wire.NewShipmentWriterCodec(&buf, c.be.Layout().Schema, codec)
					sw.SetChunk(16, 0)
					if err := wire.EmitShipment(sw, r.ship); err != nil {
						t.Fatal(err)
					}
					if err := sw.Close(); err != nil {
						t.Fatal(err)
					}
					return buf.Bytes(), n
				}
				unfiltered, _ := ship(rows, "")
				for _, f := range []string{c.none, c.one, c.all} {
					if f == "" {
						continue
					}
					gotB, n := ship(rows, f)
					wantB, _ := ship(trees, f)
					if !bytes.Equal(gotB, wantB) {
						t.Errorf("%s, %s, %s, filter %q: rows shipped %d bytes, trees %d",
							c.name, placement, codec, f, len(gotB), len(wantB))
					}
					if f == c.all && !bytes.Equal(gotB, unfiltered) {
						t.Errorf("%s, %s, %s: filter %q keeps every root but shipped %d bytes, no filter %d",
							c.name, placement, codec, f, len(gotB), len(unfiltered))
					}
					if f == c.none && n != 0 {
						t.Errorf("%s, %s, %s: filter %q keeps no root but shipped %d records", c.name, placement, codec, f, n)
					}
					if f == c.one && f != c.all && (n == 0 || len(gotB) >= len(unfiltered)) {
						t.Errorf("%s, %s, %s: filter %q shipped %d records in %d bytes, no filter %d bytes",
							c.name, placement, codec, f, n, len(gotB), len(unfiltered))
					}
				}
			}
		}
	}
}
