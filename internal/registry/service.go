package registry

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"

	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// Service exposes the agency itself over SOAP, so that systems can register
// and request exchanges remotely (the UDDI-like deployment of §2).
type Service struct {
	// Agency is the wrapped discovery agency.
	Agency *Agency
	// Link models the source→target connection used when executing.
	Link netsim.Link
	// Codec is the default shipment codec for exchanges ("xml", "bin",
	// "bin+flate"); a codec attribute on the Plan/Exchange request
	// overrides it.
	Codec string
	// Reliability is the retry policy of every exchange the service drives
	// (backoff, resume-from-checkpoint, circuit breaking); nil is a single
	// attempt per call. Set Reliability.Breakers to share breaker state
	// across exchanges.
	Reliability *reliable.Config
	// Delta drives repeat exchanges in delta mode by default; a delta
	// attribute on the Exchange request overrides it per call.
	Delta bool
	// Filter is the service-wide pushdown filter expression applied
	// source-side to every exchange; a filter attribute on the request
	// overrides it per call.
	Filter string
	// Sched, when set, drives every Exchange request through the
	// admission-controlled worker pool: plan derivation and the drive both
	// run on a pool worker under the requesting service's tenant budgets,
	// and over-budget requests are shed with a soap.CodeOverloaded fault
	// (HTTP 503). Nil keeps the caller's goroutine driving the exchange
	// directly. Set before SetObs so the pool's gauges are exported.
	Sched *Scheduler

	srv *soap.Server
	log obs.Logger
	met *obs.Registry
}

// NewService wraps an agency.
func NewService(a *Agency, link netsim.Link) *Service {
	s := &Service{Agency: a, Link: link, srv: soap.NewServer()}
	s.srv.Handle("Register", s.register)
	s.srv.Handle("Discover", s.discover)
	s.srv.Handle("List", s.list)
	s.srv.Handle("Plan", s.plan)
	s.srv.Handle("Exchange", s.exchange)
	return s
}

// SetObs attaches observability: the SOAP server counts requests, every
// exchange the service drives carries the logger/metrics, and a shared
// breaker set (Reliability.Breakers) is wired here exactly once — the
// per-exchange wiring skips shared sets. Call before serving traffic.
func (s *Service) SetObs(l obs.Logger, m *obs.Registry) {
	s.log = l
	s.met = m
	s.srv.SetObs(l, m)
	s.Agency.SetMetrics(m)
	if s.Sched != nil {
		s.Sched.SetObs(l, m)
	}
	if s.Reliability == nil || s.Reliability.Breakers == nil || (l == nil && m == nil) {
		return
	}
	bs := s.Reliability.Breakers
	log := obs.OrNop(l)
	bs.OnStateChange(func(url string, from, to reliable.BreakerState) {
		m.Counter("exchange.breaker.transitions").Inc()
		log.Log(obs.LevelInfo, "breaker state change",
			"url", url, "from", from.String(), "to", to.String())
	})
	m.Func("exchange.breakers", func() any { return bs.States() })
}

// discover handles <Discover service=".." role=".." url=".."/>: the agency
// fetches the WSDL from the endpoint itself and registers it.
func (s *Service) discover(req *xmltree.Node) (*xmltree.Node, error) {
	service, _ := req.Attr("service")
	roleStr, _ := req.Attr("role")
	url, _ := req.Attr("url")
	if service == "" || url == "" {
		return nil, &soap.Fault{Code: "soap:Client", String: "Discover requires service and url attributes"}
	}
	role := RoleSource
	if roleStr == string(RoleTarget) {
		role = RoleTarget
	} else if roleStr != string(RoleSource) {
		return nil, &soap.Fault{Code: "soap:Client", String: "role must be source or target"}
	}
	if err := s.Agency.RegisterFromEndpoint(service, role, url); err != nil {
		return nil, err
	}
	resp := &xmltree.Node{Name: "DiscoverResponse"}
	resp.SetAttr("service", service)
	resp.SetAttr("role", string(role))
	return resp, nil
}

// Handler returns the HTTP handler.
func (s *Service) Handler() http.Handler { return s.srv }

// maxPageSize caps a List page so a tenant cannot request an unbounded
// body anyway.
const maxPageSize = 500

// list handles <List cursor=".." pageSize=".."/>: a keyset-paginated
// tenant listing. The response carries one <service> element per
// registered service on the page, each with its <party> registrations,
// and a nextCursor attribute to resume from ("" / absent on the last
// page) — bounded bodies no matter how many tenants are registered.
func (s *Service) list(req *xmltree.Node) (*xmltree.Node, error) {
	cursor, _ := req.Attr("cursor")
	limit := 0
	if v, ok := req.Attr("pageSize"); ok && v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, &soap.Fault{Code: "soap:Client", String: "pageSize must be a positive integer"}
		}
		limit = n
	}
	if limit > maxPageSize {
		limit = maxPageSize
	}
	names, next := s.Agency.ServicesPage(cursor, limit)
	resp := &xmltree.Node{Name: "ListResponse"}
	resp.SetAttr("count", strconv.Itoa(len(names)))
	if next != "" {
		resp.SetAttr("nextCursor", next)
	}
	for _, name := range names {
		sx := &xmltree.Node{Name: "service"}
		sx.SetAttr("name", name)
		for _, role := range []Role{RoleSource, RoleTarget} {
			p := s.Agency.Party(name, role)
			if p == nil {
				continue
			}
			px := &xmltree.Node{Name: "party"}
			px.SetAttr("role", string(role))
			px.SetAttr("url", p.URL)
			px.SetAttr("fragmentation", p.Fragmentation.Name)
			px.SetAttr("fragments", strconv.Itoa(p.Fragmentation.Len()))
			sx.AddKid(px)
		}
		resp.AddKid(sx)
	}
	return resp, nil
}

// register handles <Register service=".." role=".." url=".."> with the
// WSDL definitions document as its child.
func (s *Service) register(req *xmltree.Node) (*xmltree.Node, error) {
	service, _ := req.Attr("service")
	roleStr, _ := req.Attr("role")
	url, _ := req.Attr("url")
	if service == "" || url == "" {
		return nil, &soap.Fault{Code: "soap:Client", String: "Register requires service and url attributes"}
	}
	role := RoleSource
	if roleStr == string(RoleTarget) {
		role = RoleTarget
	} else if roleStr != string(RoleSource) {
		return nil, &soap.Fault{Code: "soap:Client", String: "role must be source or target"}
	}
	if len(req.Kids) == 0 {
		return nil, &soap.Fault{Code: "soap:Client", String: "Register requires an embedded WSDL document"}
	}
	var buf bytes.Buffer
	if err := xmltree.Write(&buf, req.Kids[0], xmltree.WriteOptions{}); err != nil {
		return nil, err
	}
	if err := s.Agency.Register(service, role, buf.Bytes(), url); err != nil {
		return nil, err
	}
	resp := &xmltree.Node{Name: "RegisterResponse"}
	resp.SetAttr("service", service)
	resp.SetAttr("role", string(role))
	return resp, nil
}

// plan handles <Plan service=".." algorithm="greedy|optimal"/> and returns
// the generated program with its placement and estimated cost.
func (s *Service) plan(req *xmltree.Node) (*xmltree.Node, error) {
	service, _ := req.Attr("service")
	alg, err := parseAlgorithm(req)
	if err != nil {
		return nil, err
	}
	codec := s.reqCodec(req)
	plan, err := s.Agency.Plan(service, PlanOptions{Algorithm: alg, Codec: codec})
	if err != nil {
		return nil, err
	}
	progXML, err := wire.EncodeProgram(plan.Program, plan.Assign)
	if err != nil {
		return nil, err
	}
	resp := &xmltree.Node{Name: "PlanResponse"}
	resp.SetAttr("service", service)
	resp.SetAttr("estimatedCost", strconv.FormatFloat(plan.Estimated, 'g', -1, 64))
	resp.SetAttr("planMillis", fmt.Sprintf("%.3f", float64(plan.PlanTime.Microseconds())/1000))
	resp.AddKid(progXML)
	return resp, nil
}

// parseAlgorithm reads a Plan or Exchange request's algorithm attribute:
// absent means greedy, and a value naming no algorithm is the caller's
// fault rather than a silent greedy run.
func parseAlgorithm(req *xmltree.Node) (Algorithm, error) {
	v, _ := req.Attr("algorithm")
	switch alg := Algorithm(v); alg {
	case "":
		return AlgGreedy, nil
	case AlgGreedy, AlgOptimal:
		return alg, nil
	}
	return "", &soap.Fault{Code: "soap:Client", String: fmt.Sprintf("unknown algorithm %q", v)}
}

// reqCodec resolves a request's shipment codec: its own codec attribute,
// falling back to the service-wide default.
func (s *Service) reqCodec(req *xmltree.Node) string {
	if v, ok := req.Attr("codec"); ok && v != "" {
		return v
	}
	return s.Codec
}

// exchange handles <Exchange service=".." algorithm=".." codec=".."/>:
// plan and run. With a scheduler installed the whole unit — plan
// derivation (cache-served after the first exchange of a pair) plus the
// drive — runs on a pool worker under the service's tenant budgets; the
// SOAP goroutine just waits for the answer or the shed fault. A service
// without both registrations is refused before it reaches the scheduler,
// whose per-tenant metrics are named after the service.
func (s *Service) exchange(req *xmltree.Node) (*xmltree.Node, error) {
	service, _ := req.Attr("service")
	if src, tgt := s.Agency.parties(service); src == nil || tgt == nil {
		return nil, &soap.Fault{Code: "soap:Client", String: fmt.Sprintf("service %q needs both a source and a target registration", service)}
	}
	if s.Sched != nil {
		var resp *xmltree.Node
		err := s.Sched.Submit(service, func() error {
			var e error
			resp, e = s.exchangeNow(req)
			return e
		})
		return resp, err
	}
	return s.exchangeNow(req)
}

// exchangeNow plans and drives one exchange on the calling goroutine.
func (s *Service) exchangeNow(req *xmltree.Node) (*xmltree.Node, error) {
	service, _ := req.Attr("service")
	alg, err := parseAlgorithm(req)
	if err != nil {
		return nil, err
	}
	codec := s.reqCodec(req)
	filter := s.Filter
	if v, ok := req.Attr("filter"); ok {
		filter = v
	}
	delta := s.Delta
	if v, ok := req.Attr("delta"); ok {
		delta = v == "1" || v == "true"
	}
	// Planning probes the live endpoints for statistics; under a
	// reliability config those probes deserve the same retry policy as the
	// exchange itself (planning is idempotent, so retry it wholesale).
	var plan *Plan
	planOnce := func() error {
		var perr error
		plan, perr = s.Agency.Plan(service, PlanOptions{Algorithm: alg, Codec: codec, Filter: filter})
		return perr
	}
	if s.Reliability != nil {
		r := reliable.NewRetrier(s.Reliability.Policy, s.Reliability.Seed)
		err = r.Do("Plan", nil, func(int) error { return planOnce() })
	} else {
		err = planOnce()
	}
	if err != nil {
		return nil, err
	}
	report, err := s.Agency.ExecuteOpts(service, plan, ExecOptions{
		Link:        s.Link,
		Codec:       codec,
		Reliability: s.Reliability,
		Logger:      s.log,
		Metrics:     s.met,
		Delta:       delta,
		Filter:      filter,
	})
	if err != nil {
		return nil, err
	}
	resp := &xmltree.Node{Name: "ExchangeResponse"}
	resp.SetAttr("service", service)
	resp.SetAttr("exchange", report.Exchange)
	resp.SetAttr("retries", strconv.Itoa(report.Retries))
	resp.SetAttr("resumes", strconv.Itoa(report.Resumes))
	resp.SetAttr("declined", strconv.FormatInt(report.DeclinedChunks, 10))
	if delta {
		d := "0"
		if report.Delta {
			d = "1"
		}
		resp.SetAttr("delta", d)
		resp.SetAttr("deltaRecords", strconv.Itoa(report.DeltaRecords))
		resp.SetAttr("tombstoneRecords", strconv.Itoa(report.TombstoneRecords))
	}
	resp.SetAttr("codec", report.Codec)
	resp.SetAttr("wireBytes", strconv.FormatInt(report.WireBytes, 10))
	resp.SetAttr("payloadBytes", strconv.FormatInt(report.PayloadBytes, 10))
	resp.SetAttr("sourceMillis", fmt.Sprintf("%.3f", report.SourceTime.Seconds()*1000))
	resp.SetAttr("shipMillis", fmt.Sprintf("%.3f", report.ShipTime.Seconds()*1000))
	resp.SetAttr("targetMillis", fmt.Sprintf("%.3f", report.TargetTime.Seconds()*1000))
	resp.SetAttr("writeMillis", fmt.Sprintf("%.3f", report.WriteTime.Seconds()*1000))
	resp.SetAttr("indexMillis", fmt.Sprintf("%.3f", report.IndexTime.Seconds()*1000))
	return resp, nil
}
