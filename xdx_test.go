package xdx_test

// Facade tests: exercise the library through its public surface only, the
// way a downstream user would.

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"xdx"
	"xdx/internal/core"
	"xdx/internal/endpoint"
	"xdx/internal/xmark"
)

const facadeDTD = `
	<!ELEMENT Customer (CustName, Order*)>
	<!ELEMENT Order (Service)>
	<!ELEMENT Service (ServiceName, Line*)>
	<!ELEMENT Line (TelNo, Switch, Feature*)>
	<!ELEMENT Switch (SwitchID)>
	<!ELEMENT Feature (FeatureID)>
`

const facadeDoc = `<Customer><CustName>Ann</CustName>` +
	`<Order><Service><ServiceName>local</ServiceName>` +
	`<Line><TelNo>555-0001</TelNo><Switch><SwitchID>sw1</SwitchID></Switch>` +
	`<Feature><FeatureID>callerID</FeatureID></Feature></Line>` +
	`</Service></Order></Customer>`

func facadeSetup(t *testing.T) (*xdx.Schema, *xdx.Fragmentation, *xdx.Fragmentation, *xdx.Model) {
	t.Helper()
	sch, err := xdx.ParseDTD(facadeDTD)
	if err != nil {
		t.Fatal(err)
	}
	src, err := xdx.FromPartition(sch, "S", [][]string{
		{"Customer", "CustName"},
		{"Order"},
		{"Service", "ServiceName"},
		{"Line", "TelNo", "Feature", "FeatureID"},
		{"Switch", "SwitchID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := xdx.FromPartition(sch, "T", [][]string{
		{"Customer", "CustName"},
		{"Order", "Service", "ServiceName"},
		{"Line", "TelNo", "Switch", "SwitchID"},
		{"Feature", "FeatureID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := &xdx.StatsProvider{Card: map[string]float64{}, Bytes: map[string]float64{}}
	for _, e := range sch.Names() {
		stats.Card[e], stats.Bytes[e] = 10, 20
	}
	stats.Unit.Scan, stats.Unit.Combine, stats.Unit.Split, stats.Unit.Write = 1, 4, 1.5, 1
	stats.SourceSpeed, stats.TargetSpeed, stats.TargetCombines = 1, 1, true
	return sch, src, tgt, xdx.NewModel(stats)
}

func TestFacadeOptimalExchange(t *testing.T) {
	sch, src, tgt, model := facadeSetup(t)
	m, err := xdx.NewMapping(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := xdx.Optimal(m, model)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := xdx.Greedy(m, model)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Cost < opt.Cost-1e-9 {
		t.Errorf("greedy %v beat optimal %v", gr.Cost, opt.Cost)
	}
	doc, err := xdx.ParseDocument(strings.NewReader(facadeDoc))
	if err != nil {
		t.Fatal(err)
	}
	xdx.AssignIDs(doc)
	sources, err := xdx.FromDocument(src, doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xdx.Execute(opt.Program, sch, sources)
	if err != nil {
		t.Fatal(err)
	}
	back, err := xdx.Document(tgt, res.Written)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := xdx.WriteDocument(&buf, back); err != nil {
		t.Fatal(err)
	}
	if buf.String() != facadeDoc {
		t.Errorf("document changed:\n%s", buf.String())
	}
}

func TestFacadeFilterAndRecommend(t *testing.T) {
	_, src, _, model := facadeSetup(t)
	doc, _ := xdx.ParseDocument(strings.NewReader(facadeDoc))
	xdx.AssignIDs(doc)
	sources, _ := xdx.FromDocument(src, doc)
	kept, err := xdx.FilterSources(src, sources, func(rec *xdx.Node) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range kept {
		if in.Rows() != 0 {
			t.Errorf("fragment %q kept %d rows after reject-all filter", name, in.Rows())
		}
	}
	rec, err := xdx.RecommendTarget(src, model, xdx.RecommendOptions{Candidates: 5, Seed: 1, MaxClimbSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fragmentation == nil {
		t.Fatal("no recommendation")
	}
}

func TestFacadePaperFragmentations(t *testing.T) {
	sch := xdx.CustomerInfoSchema()
	s, err := xdx.PaperSFragmentation(sch)
	if err != nil || s.Len() != 5 {
		t.Fatalf("S-fragmentation: %v, %v", s, err)
	}
	tf, err := xdx.PaperTFragmentation(sch)
	if err != nil || tf.Len() != 4 {
		t.Fatalf("T-fragmentation: %v, %v", tf, err)
	}
	if _, err := xdx.NewMapping(s, tf); err != nil {
		t.Errorf("paper mapping: %v", err)
	}
	if xdx.AuctionSchema().Root().Name != "site" {
		t.Error("auction schema wrong")
	}
}

func TestFacadeLayouts(t *testing.T) {
	sch, err := xdx.ParseDTD(facadeDTD)
	if err != nil {
		t.Fatal(err)
	}
	if xdx.Trivial(sch).Len() != 1 {
		t.Error("trivial should be one fragment")
	}
	if xdx.MostFragmented(sch).Len() != sch.Len() {
		t.Error("MF wrong")
	}
	if xdx.LeastFragmented(sch).Len() != 4 {
		t.Errorf("LF = %d fragments", xdx.LeastFragmented(sch).Len())
	}
	f, err := xdx.NewFragment(sch, "x", []string{"Order", "Service"})
	if err != nil || f.Root != "Order" {
		t.Errorf("NewFragment: %v %v", f, err)
	}
	s2, err := xdx.NewSchema(xdx.Elem("a", xdx.Rep(xdx.Elem("b"))))
	if err != nil || s2.Len() != 2 {
		t.Errorf("NewSchema: %v", err)
	}
}

func TestFacadeAgencyOverHTTP(t *testing.T) {
	sch, srcFr, tgtFr, _ := facadeSetup(t)
	srcStore, err := xdx.NewRelStore(srcFr)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xdx.ParseDocument(strings.NewReader(facadeDoc))
	xdx.AssignIDs(doc)
	if err := srcStore.LoadDocument(doc); err != nil {
		t.Fatal(err)
	}
	dir := xdx.NewLDAPStore(tgtFr)

	srcSrv := httptest.NewServer(xdx.NewEndpoint("s", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil).Handler())
	defer srcSrv.Close()
	tgtSrv := httptest.NewServer(xdx.NewEndpoint("t", &endpoint.LDAPBackend{Store: dir, Speed: 1}, nil).Handler())
	defer tgtSrv.Close()

	defs := func(fr *xdx.Fragmentation, addr string) []byte {
		d := &xdx.Definitions{
			Name: "CustomerInfo", TargetNamespace: "ns", ServiceName: "svc",
			PortName: "p", Address: addr, Schema: sch,
			Fragmentations: []*xdx.Fragmentation{fr},
		}
		data, err := d.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ag := xdx.NewAgency()
	if err := ag.Register("svc", xdx.RoleSource, defs(srcFr, srcSrv.URL), srcSrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := ag.Register("svc", xdx.RoleTarget, defs(tgtFr, tgtSrv.URL), tgtSrv.URL); err != nil {
		t.Fatal(err)
	}
	plan, err := ag.Plan("svc", xdx.PlanOptions{Algorithm: xdx.AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}
	report, err := ag.Execute("svc", plan, xdx.Loopback())
	if err != nil {
		t.Fatal(err)
	}
	if report.WireBytes <= 0 || dir.Dir.Len() == 0 {
		t.Errorf("exchange produced nothing: %d bytes, %d entries", report.WireBytes, dir.Dir.Len())
	}
}

// Execute and Document leave what they are given as it was: run twice over
// one source map (or one instance map), each returns the document the first
// call did — the source document itself — in both directions between MF
// and LF, Combine-heavy and Split-heavy alike.
func TestExecuteAndDocumentLeaveTheirInputs(t *testing.T) {
	sch := xdx.AuctionSchema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 50_000, Seed: 1})
	var want bytes.Buffer
	if err := xdx.WriteDocument(&want, doc); err != nil {
		t.Fatal(err)
	}
	reassemble := func(what string, fr *xdx.Fragmentation, insts map[string]*xdx.Instance) string {
		t.Helper()
		n, err := xdx.Document(fr, insts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var b bytes.Buffer
		if err := xdx.WriteDocument(&b, n); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	mf, lf := xdx.MostFragmented(sch), xdx.LeastFragmented(sch)
	for _, dir := range []struct {
		name     string
		src, tgt *xdx.Fragmentation
	}{{"MF→LF", mf, lf}, {"LF→MF", lf, mf}} {
		sources, err := xdx.FromDocument(dir.src, doc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := xdx.NewMapping(dir.src, dir.tgt)
		if err != nil {
			t.Fatal(err)
		}
		g, err := xdx.CanonicalProgram(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name string
			exec func(*xdx.Graph, *xdx.Schema, map[string]*xdx.Instance) (*core.ExecResult, error)
		}{{"core.Execute", core.Execute}, {"xdx.Execute", xdx.Execute}} {
			for call := 1; call <= 2; call++ {
				what := fmt.Sprintf("%s %s, call %d", dir.name, run.name, call)
				res, err := run.exec(g, sch, sources)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got := reassemble(what, dir.tgt, res.Written); got != want.String() {
					t.Fatalf("%s: reassembled %d bytes, want the source's %d", what, len(got), want.Len())
				}
			}
		}
		for call := 1; call <= 2; call++ {
			what := fmt.Sprintf("%s xdx.Document, call %d", dir.name, call)
			if got := reassemble(what, dir.src, sources); got != want.String() {
				t.Fatalf("%s: reassembled %d bytes, want the source's %d", what, len(got), want.Len())
			}
		}
	}
}
