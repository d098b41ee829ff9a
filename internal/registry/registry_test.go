package registry

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/endpoint"
	"xdx/internal/ldapstore"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/publish"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/shred"
	"xdx/internal/wsdlx"
	"xdx/internal/xmltree"
)

const customerXML = `<Customer><CustName>Ann</CustName>` +
	`<Order><Service><ServiceName>local</ServiceName>` +
	`<Line><TelNo>555-0001</TelNo><Switch><SwitchID>sw1</SwitchID></Switch>` +
	`<Feature><FeatureID>callerID</FeatureID></Feature>` +
	`<Feature><FeatureID>voicemail</FeatureID></Feature></Line>` +
	`</Service></Order>` +
	`<Order><Service><ServiceName>ld</ServiceName>` +
	`<Line><TelNo>555-0003</TelNo><Switch><SwitchID>sw1</SwitchID></Switch>` +
	`<Feature><FeatureID>callerID</FeatureID></Feature></Line>` +
	`</Service></Order></Customer>`

func customerDoc(t testing.TB) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.Parse(strings.NewReader(customerXML))
	if err != nil {
		t.Fatal(err)
	}
	core.AssignIDs(doc)
	return doc
}

func sFragmentation(t testing.TB, sch *schema.Schema) *core.Fragmentation {
	t.Helper()
	fr, err := core.FromPartition(sch, "S-fragmentation", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"},
		{"Switch", "SwitchID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func tFragmentation(t testing.TB, sch *schema.Schema) *core.Fragmentation {
	t.Helper()
	fr, err := core.FromPartition(sch, "T-fragmentation", [][]string{
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

func wsdlFor(t testing.TB, sch *schema.Schema, fr *core.Fragmentation, addr string) []byte {
	t.Helper()
	d := &wsdlx.Definitions{
		Name:            "CustomerInfo",
		TargetNamespace: "http://customers.wsdl",
		ServiceName:     "CustomerInfoService",
		PortName:        "CustomerInfoPort",
		Address:         addr,
		Schema:          sch,
		Fragmentations:  []*core.Fragmentation{fr},
	}
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// startExchange wires a relational source and target into live endpoints
// and a registered agency.
func startExchange(t testing.TB, alg Algorithm) (*Agency, *Plan, *relstore.Store, func()) {
	t.Helper()
	ag, plan, _, tgtStore, _, cleanup := startExchangeEP(t, alg)
	return ag, plan, tgtStore, cleanup
}

// startExchangeEP is startExchange with the source store and the target
// endpoint riding along, for tests that need the publish&map oracle or the
// target's session store.
func startExchangeEP(t testing.TB, alg Algorithm) (*Agency, *Plan, *relstore.Store, *relstore.Store, *endpoint.Endpoint, func()) {
	t.Helper()
	sch := schema.CustomerInfo()
	sFr := sFragmentation(t, sch)
	tFr := tFragmentation(t, sch)

	srcStore, err := relstore.NewStore(sFr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcStore.LoadDocument(customerDoc(t)); err != nil {
		t.Fatal(err)
	}
	tgtStore, err := relstore.NewStore(tFr)
	if err != nil {
		t.Fatal(err)
	}

	srcEP := endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil)
	tgtEP := endpoint.New("T", &endpoint.RelBackend{Store: tgtStore, Speed: 1, CanCombine: true}, nil)
	srcSrv := httptest.NewServer(srcEP.Handler())
	tgtSrv := httptest.NewServer(tgtEP.Handler())

	ag := New()
	if err := ag.Register("CustomerInfoService", RoleSource, wsdlFor(t, sch, sFr, srcSrv.URL), srcSrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("CustomerInfoService", RoleTarget, wsdlFor(t, sch, tFr, tgtSrv.URL), tgtSrv.URL); err != nil {
		t.Fatal(err)
	}
	plan, err := ag.Plan("CustomerInfoService", PlanOptions{Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() { srcSrv.Close(); tgtSrv.Close() }
	return ag, plan, srcStore, tgtStore, tgtEP, cleanup
}

// publishMap is the paper's baseline and the exchange's oracle: publish
// the source as one document, shred it per the target layout, load.
func publishMap(t testing.TB, src *relstore.Store, tFr *core.Fragmentation) *relstore.Store {
	t.Helper()
	var buf bytes.Buffer
	if _, err := publish.Publish(src, &buf); err != nil {
		t.Fatal(err)
	}
	insts, err := shred.Shred(&buf, tFr)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := relstore.NewStore(tFr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tFr.Fragments {
		if err := pm.Load(insts[f.Name]); err != nil {
			t.Fatal(err)
		}
	}
	return pm
}

// TestDefaultExchangeMatchesPublishMap drives the one drive path with
// default options (nil Reliability) over every codec, with and without a
// pushdown filter, and holds each run to the paper's own oracle: the
// target must hold exactly what publish&map loads. It also pins what the
// single-attempt default means: one try per call, no retries, and the
// target session released before ExecuteOpts returns. feed, a codec of
// earlier builds, is refused before anything travels.
func TestDefaultExchangeMatchesPublishMap(t *testing.T) {
	wireBytes := map[string]int64{}
	for _, codec := range []string{"xml", "feed", "bin", "bin+flate"} {
		for _, filter := range []string{"", `CustName = 'Ann'`} {
			t.Run(fmt.Sprintf("codec=%s/filter=%t", codec, filter != ""), func(t *testing.T) {
				ag, plan, srcStore, tgtStore, tgtEP, done := startExchangeEP(t, AlgGreedy)
				defer done()
				rep, err := ag.ExecuteOpts("CustomerInfoService", plan, ExecOptions{
					Link: netsim.Loopback(), Codec: codec, Filter: filter,
				})
				if codec == "feed" {
					if err == nil || !strings.Contains(err.Error(), `unknown codec "feed"`) || tgtStore.Rows() != 0 {
						t.Fatalf("retired codec: err = %v, target loaded %d rows; want refused, nothing loaded", err, tgtStore.Rows())
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				want := publishMap(t, srcStore, tgtStore.Layout)
				if tgtStore.Rows() != want.Rows() {
					t.Errorf("target holds %d rows, publish&map %d", tgtStore.Rows(), want.Rows())
				}
				if got := assembleTarget(t, tgtStore); !xmltree.EqualShape(assembleTarget(t, want), got) {
					t.Errorf("target differs from publish&map:\n%s", xmltree.Marshal(got, xmltree.WriteOptions{}))
				}
				if rep.Codec != codec {
					t.Errorf("exchange traveled as %q, want %q", rep.Codec, codec)
				}
				if rep.WireBytes <= 0 || rep.PayloadBytes <= 0 {
					t.Errorf("wire=%d payload=%d; both must be metered", rep.WireBytes, rep.PayloadBytes)
				}
				if rep.Retries != 0 || rep.Resumes != 0 {
					t.Errorf("single-attempt default reported retries=%d resumes=%d", rep.Retries, rep.Resumes)
				}
				for _, sp := range rep.Trace.Kids() {
					if sp.Name != "source" && sp.Name != "deliver" {
						continue
					}
					if n := len(sp.Kids()); n != 1 {
						t.Errorf("%s made %d attempts, want exactly 1", sp.Name, n)
					}
				}
				if n := tgtEP.Sessions().Len(); n != 0 {
					t.Errorf("target still holds %d sessions after the exchange", n)
				}
				if filter == "" {
					wireBytes[codec] = rep.WireBytes
				}
			})
		}
	}
	// Both bin codecs drop the per-record tagging, so even this ~1 KB
	// shipment is smaller than tagged XML. (Per-chunk DEFLATE framing costs
	// more than it saves at this size; TestEndToEndExchangeNegotiatedBin
	// pins bin+flate < bin on the auction document.)
	for _, codec := range []string{"bin", "bin+flate"} {
		if wireBytes[codec] >= wireBytes["xml"] {
			t.Errorf("%s shipment (%d bytes) not smaller than XML (%d bytes)", codec, wireBytes[codec], wireBytes["xml"])
		}
	}
}

func TestEndToEndExchangeGreedy(t *testing.T) {
	ag, plan, tgtStore, done := startExchange(t, AlgGreedy)
	defer done()
	if plan.Program == nil || !plan.Assign.Complete() {
		t.Fatal("plan incomplete")
	}
	report, err := ag.Execute("CustomerInfoService", plan, netsim.Loopback())
	if err != nil {
		t.Fatal(err)
	}
	if report.WireBytes <= 0 {
		t.Errorf("no bytes shipped")
	}
	// The target store now holds the document; reassemble and compare.
	insts := map[string]*core.Instance{}
	for _, f := range tgtStore.Layout.Fragments {
		in, err := tgtStore.ScanFragment(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		insts[f.Name] = in
	}
	back, err := core.Document(tgtStore.Layout, insts)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualShape(customerDoc(t), back) {
		t.Errorf("document changed in transit:\n%s", xmltree.Marshal(back, xmltree.WriteOptions{}))
	}
}

func TestEndToEndExchangeOptimal(t *testing.T) {
	ag, plan, tgtStore, done := startExchange(t, AlgOptimal)
	defer done()
	report, err := ag.Execute("CustomerInfoService", plan, netsim.PaperInternet())
	if err != nil {
		t.Fatal(err)
	}
	if report.ShipTime <= 0 {
		t.Errorf("paper link must model transfer time")
	}
	if tgtStore.Rows() == 0 {
		t.Errorf("target store empty after exchange")
	}
}

func TestExchangeToLDAPDumbClient(t *testing.T) {
	// The §1.1 scenario: relational source, LDAP target that cannot
	// combine. All combines must be placed at the source.
	sch := schema.CustomerInfo()
	sFr := sFragmentation(t, sch)
	tFr := tFragmentation(t, sch)
	srcStore, _ := relstore.NewStore(sFr)
	if err := srcStore.LoadDocument(customerDoc(t)); err != nil {
		t.Fatal(err)
	}
	dir := ldapstore.NewStore(tFr)
	srcEP := endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil)
	tgtEP := endpoint.New("T", &endpoint.LDAPBackend{Store: dir, Speed: 10}, nil)
	srcSrv := httptest.NewServer(srcEP.Handler())
	defer srcSrv.Close()
	tgtSrv := httptest.NewServer(tgtEP.Handler())
	defer tgtSrv.Close()

	ag := New()
	ag.Register("svc", RoleSource, wsdlFor(t, sch, sFr, srcSrv.URL), srcSrv.URL)
	ag.Register("svc", RoleTarget, wsdlFor(t, sch, tFr, tgtSrv.URL), tgtSrv.URL)
	plan, err := ag.Plan("svc", PlanOptions{Algorithm: AlgOptimal})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range plan.Program.Ops {
		if op.Kind == core.OpCombine && plan.Assign[op.ID] == core.LocTarget {
			t.Fatalf("combine placed at the dumb LDAP client")
		}
	}
	if _, err := ag.Execute("svc", plan, netsim.Loopback()); err != nil {
		t.Fatal(err)
	}
	if dir.Dir.Len() == 0 {
		t.Error("directory empty after exchange")
	}
	if got := len(dir.Dir.Search("", "CUSTOMER_T")); got != 1 {
		t.Errorf("customers in directory = %d, want 1", got)
	}
	if got := len(dir.Dir.Search("", "FEATURE_T")); got != 3 {
		t.Errorf("features in directory = %d, want 3", got)
	}
}

// TestPlanProbesTargetSpeedOnly: the model sizes every op and cross-edge
// from the source's stats and reads only speed and combines from the
// target, so planning under a codec calibrates the source and not the
// target.
func TestPlanProbesTargetSpeedOnly(t *testing.T) {
	sch := schema.CustomerInfo()
	sFr, tFr := sFragmentation(t, sch), tFragmentation(t, sch)
	serve := func(name string, fr *core.Fragmentation, doc *xmltree.Node) (*obs.Registry, string) {
		st, err := relstore.NewStore(fr)
		if err != nil {
			t.Fatal(err)
		}
		if doc != nil {
			if err := st.LoadDocument(doc); err != nil {
				t.Fatal(err)
			}
		}
		ep := endpoint.New(name, &endpoint.RelBackend{Store: st, Speed: 1, CanCombine: true}, nil)
		met := obs.NewRegistry()
		ep.SetObs(nil, met)
		srv := httptest.NewServer(ep.Handler())
		t.Cleanup(srv.Close)
		return met, srv.URL
	}
	srcMet, srcURL := serve("S", sFr, customerDoc(t))
	tgtMet, tgtURL := serve("T", tFr, nil)
	ag := New()
	if err := ag.Register("svc", RoleSource, wsdlFor(t, sch, sFr, srcURL), srcURL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("svc", RoleTarget, wsdlFor(t, sch, tFr, tgtURL), tgtURL); err != nil {
		t.Fatal(err)
	}
	if _, err := ag.Plan("svc", PlanOptions{Codec: "bin"}); err != nil {
		t.Fatal(err)
	}
	if n := srcMet.Counter("endpoint.calibrations").Value(); n != 1 {
		t.Errorf("source endpoint.calibrations = %d, want 1", n)
	}
	if n := tgtMet.Counter("endpoint.calibrations").Value(); n != 0 {
		t.Errorf("target endpoint.calibrations = %d, want 0", n)
	}
}

func TestRegisterDefaultsToTrivialFragmentation(t *testing.T) {
	sch := schema.CustomerInfo()
	d := &wsdlx.Definitions{
		Name: "x", TargetNamespace: "ns", ServiceName: "svc",
		PortName: "p", Address: "http://nowhere", Schema: sch,
	}
	data, _ := d.Marshal()
	ag := New()
	if err := ag.Register("svc", RoleSource, data, "http://nowhere"); err != nil {
		t.Fatal(err)
	}
	p := ag.Party("svc", RoleSource)
	if p.Fragmentation.Len() != 1 {
		t.Errorf("default fragmentation should be the whole schema, got %d fragments", p.Fragmentation.Len())
	}
	if got := ag.Services(); len(got) != 1 || got[0] != "svc" {
		t.Errorf("Services = %v", got)
	}
}

func TestRegisterFromEndpoint(t *testing.T) {
	// The agency pulls the WSDL (with its fragmentation) straight from the
	// endpoint — no document push needed.
	sch := schema.CustomerInfo()
	sFr := sFragmentation(t, sch)
	srcStore, err := relstore.NewStore(sFr)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := wsdlx.Parse(strings.NewReader(string(wsdlFor(t, sch, sFr, "http://placeholder"))))
	if err != nil {
		t.Fatal(err)
	}
	ep := endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, defs)
	srv := httptest.NewServer(ep.Handler())
	defer srv.Close()
	ag := New()
	if err := ag.RegisterFromEndpoint("svc", RoleSource, srv.URL); err != nil {
		t.Fatal(err)
	}
	p := ag.Party("svc", RoleSource)
	if p == nil || p.Fragmentation.Len() != 5 {
		t.Fatalf("fetched registration wrong: %+v", p)
	}
	// Fetching from a dead endpoint fails.
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	if err := ag.RegisterFromEndpoint("svc2", RoleSource, deadURL); err == nil {
		t.Error("fetch from dead endpoint must fail")
	}
}

func TestPlanRequiresBothParties(t *testing.T) {
	ag := New()
	if _, err := ag.Plan("missing", PlanOptions{}); err == nil {
		t.Error("plan without registrations must fail")
	}
}

func TestRegisterRejectsBadWSDL(t *testing.T) {
	ag := New()
	if err := ag.Register("svc", RoleSource, []byte("<junk/>"), "u"); err == nil {
		t.Error("bad WSDL must be rejected")
	}
}
