package registry

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/wsdlx"
	"xdx/internal/xmltree"
)

// startService stands up two relational endpoints and an agency SOAP
// service, returning a SOAP client bound to the agency and the target
// store for verification.
func startService(t *testing.T) (*soap.Client, *relstore.Store, func()) {
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
	srcSrv := httptest.NewServer(endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, nil).Handler())
	tgtSrv := httptest.NewServer(endpoint.New("T", &endpoint.RelBackend{Store: tgtStore, Speed: 1, CanCombine: true}, nil).Handler())
	agSrv := httptest.NewServer(NewService(New(), netsim.Loopback()).Handler())
	client := &soap.Client{URL: agSrv.URL}

	for _, reg := range []struct {
		role string
		fr   *core.Fragmentation
		url  string
	}{{"source", sFr, srcSrv.URL}, {"target", tFr, tgtSrv.URL}} {
		req := &xmltree.Node{Name: "Register"}
		req.SetAttr("service", "svc")
		req.SetAttr("role", reg.role)
		req.SetAttr("url", reg.url)
		wsdlTree, err := xmltree.Parse(strings.NewReader(string(wsdlFor(t, sch, reg.fr, reg.url))))
		if err != nil {
			t.Fatal(err)
		}
		req.AddKid(wsdlTree)
		if _, err := client.Call("Register", req); err != nil {
			t.Fatal(err)
		}
	}
	cleanup := func() { srcSrv.Close(); tgtSrv.Close(); agSrv.Close() }
	return client, tgtStore, cleanup
}

func TestServicePlanAndExchange(t *testing.T) {
	client, tgtStore, done := startService(t)
	defer done()

	planReq := &xmltree.Node{Name: "Plan"}
	planReq.SetAttr("service", "svc")
	planReq.SetAttr("algorithm", "optimal")
	planResp, err := client.Call("Plan", planReq)
	if err != nil {
		t.Fatal(err)
	}
	costStr, _ := planResp.Attr("estimatedCost")
	if cost, err := strconv.ParseFloat(costStr, 64); err != nil || cost <= 0 {
		t.Errorf("estimated cost = %q", costStr)
	}
	foundProgram := false
	for _, k := range planResp.Kids {
		if k.Name == "program" {
			foundProgram = true
		}
	}
	if !foundProgram {
		t.Error("plan response missing program")
	}

	exReq := &xmltree.Node{Name: "Exchange"}
	exReq.SetAttr("service", "svc")
	exResp, err := client.Call("Exchange", exReq)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := exResp.Attr("wireBytes")
	if n, err := strconv.ParseInt(wb, 10, 64); err != nil || n <= 0 {
		t.Errorf("wireBytes = %q", wb)
	}
	// The retry accounting is part of every response, not only retried ones.
	for _, attr := range []string{"retries", "resumes", "declined"} {
		if v, _ := exResp.Attr(attr); v != "0" {
			t.Errorf("%s = %q, want 0 on a clean single-attempt exchange", attr, v)
		}
	}
	if tgtStore.Rows() == 0 {
		t.Error("exchange did not populate the target")
	}
}

// TestServiceRejectsUnknownAlgorithm: Plan and Exchange answer an
// algorithm they do not know with a soap:Client fault instead of quietly
// planning greedy, and no exchange runs; an absent attribute or "greedy"
// still plans greedy.
func TestServiceRejectsUnknownAlgorithm(t *testing.T) {
	client, tgtStore, done := startService(t)
	defer done()
	for _, op := range []string{"Plan", "Exchange"} {
		for _, alg := range []string{"Optimal", "optimall", "GREEDY", " greedy"} {
			req := &xmltree.Node{Name: op}
			req.SetAttr("service", "svc")
			req.SetAttr("algorithm", alg)
			_, err := client.Call(op, req)
			var f *soap.Fault
			if !errors.As(err, &f) || f.Code != "soap:Client" || !strings.Contains(f.String, "algorithm") {
				t.Errorf("%s algorithm=%q: err = %v, want a soap:Client fault naming the algorithm", op, alg, err)
			}
		}
	}
	if tgtStore.Rows() != 0 {
		t.Errorf("a refused Exchange loaded %d rows", tgtStore.Rows())
	}
	for _, alg := range []string{"", "greedy"} {
		req := &xmltree.Node{Name: "Plan"}
		req.SetAttr("service", "svc")
		if alg != "" {
			req.SetAttr("algorithm", alg)
		}
		if _, err := client.Call("Plan", req); err != nil {
			t.Errorf("Plan algorithm=%q: %v", alg, err)
		}
	}
}

func TestServiceDiscover(t *testing.T) {
	sch := schema.CustomerInfo()
	sFr := sFragmentation(t, sch)
	srcStore, err := relstore.NewStore(sFr)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := wsdlxParse(t, wsdlFor(t, sch, sFr, "http://placeholder"))
	if err != nil {
		t.Fatal(err)
	}
	ep := endpoint.New("S", &endpoint.RelBackend{Store: srcStore, Speed: 1, CanCombine: true}, defs)
	epSrv := httptest.NewServer(ep.Handler())
	defer epSrv.Close()
	ag := New()
	agSrv := httptest.NewServer(NewService(ag, netsim.Loopback()).Handler())
	defer agSrv.Close()
	client := &soap.Client{URL: agSrv.URL}
	req := &xmltree.Node{Name: "Discover"}
	req.SetAttr("service", "svc")
	req.SetAttr("role", "source")
	req.SetAttr("url", epSrv.URL)
	if _, err := client.Call("Discover", req); err != nil {
		t.Fatal(err)
	}
	p := ag.Party("svc", RoleSource)
	if p == nil || p.Fragmentation.Len() != 5 {
		t.Fatalf("discovery failed: %+v", p)
	}
	// Validation.
	bad := &xmltree.Node{Name: "Discover"}
	if _, err := client.Call("Discover", bad); err == nil {
		t.Error("missing attrs must fault")
	}
	bad.SetAttr("service", "s")
	bad.SetAttr("url", "http://x")
	bad.SetAttr("role", "sideways")
	if _, err := client.Call("Discover", bad); err == nil {
		t.Error("bad role must fault")
	}
}

func TestServiceRegisterValidation(t *testing.T) {
	agSrv := httptest.NewServer(NewService(New(), netsim.Loopback()).Handler())
	defer agSrv.Close()
	client := &soap.Client{URL: agSrv.URL}

	req := &xmltree.Node{Name: "Register"}
	if _, err := client.Call("Register", req); err == nil {
		t.Error("register without attributes must fault")
	}
	req.SetAttr("service", "svc")
	req.SetAttr("role", "sideways")
	req.SetAttr("url", "http://x")
	if _, err := client.Call("Register", req); err == nil {
		t.Error("bad role must fault")
	}
	req.SetAttr("role", "source")
	if _, err := client.Call("Register", req); err == nil {
		t.Error("missing WSDL must fault")
	}
}

func TestServicePlanUnknownService(t *testing.T) {
	agSrv := httptest.NewServer(NewService(New(), netsim.Loopback()).Handler())
	defer agSrv.Close()
	client := &soap.Client{URL: agSrv.URL}
	for _, name := range []string{"missing", "ghost"} {
		req := &xmltree.Node{Name: "Plan"}
		req.SetAttr("service", name)
		var f *soap.Fault
		if _, err := client.Call("Plan", req); !errors.As(err, &f) || f.Code != "soap:Client" {
			t.Errorf("Plan of %q = %v, want a soap:Client fault", name, err)
		}
	}
}

// TestServiceClientMistakesAreNotRetried: a filter that does not compile
// and a codec no build speaks are the caller's mistakes. Under a retrying
// Service they come back as soap:Client faults and nothing is shipped. A
// filter is the exchange's, not the plan's: the first bad filter derives
// the service's one plan, the drive refuses the filter before any call,
// and the second bad filter reuses that plan; a bad codec fails before
// planning.
func TestServiceClientMistakesAreNotRetried(t *testing.T) {
	sch := schema.CustomerInfo()
	ag := New()
	tgtStore, done := startTenant(t, ag, "svc", sch, sFragmentation(t, sch), tFragmentation(t, sch), 0, nil)
	defer done()
	svc := NewService(ag, netsim.Loopback())
	svc.Reliability = retrying(8, 4)
	agSrv := httptest.NewServer(svc.Handler())
	defer agSrv.Close()
	client := &soap.Client{URL: agSrv.URL}
	for i, c := range []struct{ op, attr, value string }{
		{"Exchange", "filter", "/Nope=1"},
		{"Exchange", "filter", "Nope = 1"},
		{"Exchange", "codec", "feed"},
		{"Plan", "codec", "feed"},
	} {
		_, before, _, _ := ag.PlanCacheStats()
		req := &xmltree.Node{Name: c.op}
		req.SetAttr("service", "svc")
		req.SetAttr(c.attr, c.value)
		var f *soap.Fault
		if _, err := client.Call(c.op, req); !errors.As(err, &f) || f.Code != "soap:Client" {
			t.Errorf("%s %s=%q: err = %v, want a soap:Client fault", c.op, c.attr, c.value, err)
		}
		want := int64(0)
		if i == 0 { // the service's one plan
			want = 1
		}
		if _, misses, _, _ := ag.PlanCacheStats(); misses-before != want {
			t.Errorf("%s %s=%q: %d derivations, want %d", c.op, c.attr, c.value, misses-before, want)
		}
	}
	if tgtStore.Rows() != 0 {
		t.Errorf("refused requests loaded %d target rows", tgtStore.Rows())
	}
}

// wsdlxParse parses marshaled WSDL bytes for test setup.
func wsdlxParse(t *testing.T, data []byte) (*wsdlx.Definitions, error) {
	t.Helper()
	return wsdlx.Parse(bytes.NewReader(data))
}
