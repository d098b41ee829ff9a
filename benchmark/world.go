package main

// The deployment under test: one discovery agency, and per tenant a source
// and a target endpoint, all in this process but talking over real loopback
// HTTP — built through the same public constructors, with the same
// settings, as `xdxd -reliable` and `xdxendpoint -wal-dir … -fsync batch
// -snapshot-every 256`.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/endpoint"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/registry"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/schema"
	"xdx/internal/soap"
	"xdx/internal/telgen"
	"xdx/internal/wsdlx"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// roleObs holds one metric registry per process role. Measured runs pass
// nil: observability is off, exactly as the daemons run without
// -metrics-addr.
type roleObs struct {
	agency, source, target *obs.Registry
}

func newRoleObs() *roleObs {
	return &roleObs{agency: obs.NewRegistry(), source: obs.NewRegistry(), target: obs.NewRegistry()}
}

func (o *roleObs) all() []*obs.Registry {
	return []*obs.Registry{o.agency, o.source, o.target}
}

// tenant is one registered service: a loaded source, an empty target.
type tenant struct {
	service string
	// docs are the source documents (one auction site, or the tenant's
	// customers); delta churn mutates docs[0] in place.
	docs     []*xmltree.Node
	docBytes int64

	srcStore, tgtStore *relstore.Store
	srcEP, tgtEP       *endpoint.Endpoint
	// tgtRegister is the ready-made SOAP Register request re-sent by the
	// control-plane workload to invalidate the tenant's cached plan.
	tgtRegister *xmltree.Node
	tgtWSDL     []byte
}

type deployment struct {
	w  *workload
	sz sizing

	sch          *schema.Schema
	srcFr, tgtFr *core.Fragmentation

	agency    *registry.Agency
	sched     *registry.Scheduler
	reliab    *reliable.Config
	agencyURL string
	tenants   []*tenant
	obs       *roleObs

	// churn state of the delta workload.
	rng   *rand.Rand
	round int

	walDir  string
	closers []func()
}

// deploy generates the workload's inputs from seed and stands the three
// roles up. Everything it does — generate, load, listen, register, first
// plan, first exchange — is the benchmark's set-up time.
func deploy(w *workload, sz sizing, seed int64, outDir string, ro *roleObs) (d *deployment, err error) {
	if ro == nil {
		ro = &roleObs{} // nil registries: metrics off
	}
	d = &deployment{w: w, sz: sz, obs: ro, rng: rand.New(rand.NewSource(seed))}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	var docSets [][]*xmltree.Node
	if w.Telecom {
		d.sch = telgen.Schema()
		if d.srcFr, err = core.PaperSFragmentation(d.sch); err != nil {
			return d, err
		}
		if d.tgtFr, err = core.PaperTFragmentation(d.sch); err != nil {
			return d, err
		}
		for i := 0; i < sz.Tenants; i++ {
			docSets = append(docSets, customers(sz.Customers, seed*int64(sz.Tenants)+int64(i)))
		}
	} else {
		d.sch = xmark.Schema()
		d.srcFr, d.tgtFr = auctionLayout(d.sch, w.Source), auctionLayout(d.sch, w.Target)
		docSets = [][]*xmltree.Node{{xmark.Generate(xmark.Config{TargetBytes: sz.DocBytes, Seed: seed})}}
	}

	// The agency, configured as `xdxd -reliable -codec <c> [-delta]`: worker
	// pool and plan cache on, reliable sessions with 64-record chunks and
	// one breaker set for the daemon's lifetime, codec workers per CPU.
	d.agency = registry.New()
	svc := registry.NewService(d.agency, netsim.Loopback())
	svc.Codec = w.Codec
	d.sched = registry.NewScheduler(registry.SchedulerConfig{})
	d.closers = append(d.closers, d.sched.Close)
	svc.Sched = d.sched
	d.reliab = &reliable.Config{ChunkSize: 64, Seed: seed}
	d.reliab.Breakers = reliable.NewBreakerSet(d.reliab.Breaker)
	svc.Reliability = d.reliab
	svc.Delta = w.Delta
	if ro.agency != nil {
		svc.SetObs(nil, ro.agency)
	}
	if d.agencyURL, err = d.serve(svc.Handler()); err != nil {
		return d, err
	}

	if w.Journal {
		d.walDir = filepath.Join(outDir, fmt.Sprintf("wal-%s-%d", w.Name, os.Getpid()))
		d.closers = append(d.closers, func() { os.RemoveAll(d.walDir) })
	}
	agencyClient := &soap.Client{URL: d.agencyURL}
	for i, docs := range docSets {
		t := &tenant{service: fmt.Sprintf("%s-%03d", w.Name, i), docs: docs}
		if err = d.addTenant(t, i, ro); err != nil {
			return d, err
		}
		if _, err = agencyClient.Call("Register", t.tgtRegister); err != nil {
			return d, fmt.Errorf("register %s target: %w", t.service, err)
		}
		d.tenants = append(d.tenants, t)
	}

	// First plan and first exchange per tenant: probes, codec calibration,
	// mapping and greedy derivation, connection set-up and — for delta —
	// the cold full re-ship that warms both reconciliation sides.
	for _, t := range d.tenants {
		res := d.exchange(agencyClient, t)
		if res.err != nil {
			return d, fmt.Errorf("first exchange of %s: %w", t.service, res.err)
		}
	}
	return d, nil
}

// customers generates a tenant's n customer documents. telgen draws every
// customer's order, line and feature counts from the seed, so n customers
// differ in volume by ±10% between seeds, where xmark fills to a byte
// target. To let the seed vary content but hardly volume (±1.5%), three
// times as many customers are drawn and, of the runs of n size-adjacent
// ones, the run whose total is closest to the nominal volume is kept.
func customers(n int, seed int64) []*xmltree.Node {
	const nominalCustomerBytes = 650 // telgen's mean at its default bounds
	pool := telgen.Customers(telgen.Config{Customers: 3 * n, Seed: seed})
	sizes := make(map[*xmltree.Node]int64, len(pool))
	for _, c := range pool {
		sizes[c] = xmltree.SerializedSize(c, false)
	}
	sort.SliceStable(pool, func(i, j int) bool { return sizes[pool[i]] < sizes[pool[j]] })
	best, bestOff := 0, int64(math.MaxInt64)
	for lo := 0; lo+n <= len(pool); lo++ {
		off := -int64(n) * nominalCustomerBytes
		for _, c := range pool[lo : lo+n] {
			off += sizes[c]
		}
		if off < 0 {
			off = -off
		}
		if off < bestOff {
			best, bestOff = lo, off
		}
	}
	return pool[best : best+n]
}

func auctionLayout(sch *schema.Schema, name string) *core.Fragmentation {
	if name == "MF" {
		return core.MostFragmented(sch)
	}
	return core.LeastFragmented(sch)
}

// addTenant loads the tenant's source, starts both endpoints and registers
// the source with the agency; the target's Register request is left ready
// in t.tgtRegister.
func (d *deployment) addTenant(t *tenant, i int, ro *roleObs) error {
	var err error
	if t.srcStore, err = relstore.NewStore(d.srcFr); err != nil {
		return err
	}
	if t.tgtStore, err = relstore.NewStore(d.tgtFr); err != nil {
		return err
	}
	for _, doc := range t.docs {
		if err := t.srcStore.LoadDocument(doc); err != nil {
			return err
		}
		t.docBytes += xmltree.SerializedSize(doc, false)
	}

	t.srcEP = endpoint.New("S", &endpoint.RelBackend{Store: t.srcStore, Speed: 1, CanCombine: true}, nil)
	t.tgtEP = endpoint.New("T", &endpoint.RelBackend{Store: t.tgtStore, Speed: 1, CanCombine: true}, nil)
	if ro.source != nil {
		t.srcEP.SetObs(nil, ro.source)
		t.tgtEP.SetObs(nil, ro.target)
	}
	if d.w.Journal {
		j, err := durable.OpenJournal(filepath.Join(d.walDir, fmt.Sprint(i)), durable.Options{
			Fsync: durable.FsyncBatch, SnapshotEvery: 256, Met: ro.target,
		})
		if err != nil {
			return err
		}
		d.closers = append(d.closers, func() { j.Close() })
		t.tgtEP.SetJournal(j)
	}
	d.closers = append(d.closers, t.srcEP.Sessions().StartSweeper(0), t.tgtEP.Sessions().StartSweeper(0))

	srcURL, err := d.serve(t.srcEP.Handler())
	if err != nil {
		return err
	}
	tgtURL, err := d.serve(t.tgtEP.Handler())
	if err != nil {
		return err
	}
	srcReg, _, err := registerRequest(t.service, registry.RoleSource, d.sch, d.srcFr, srcURL)
	if err != nil {
		return err
	}
	if t.tgtRegister, t.tgtWSDL, err = registerRequest(t.service, registry.RoleTarget, d.sch, d.tgtFr, tgtURL); err != nil {
		return err
	}
	if _, err := (&soap.Client{URL: d.agencyURL}).Call("Register", srcReg); err != nil {
		return fmt.Errorf("register %s source: %w", t.service, err)
	}
	return nil
}

// registerRequest builds the agency's SOAP <Register> payload for a party
// and returns it with the embedded WSDL document's bytes.
func registerRequest(service string, role registry.Role, sch *schema.Schema, fr *core.Fragmentation, url string) (*xmltree.Node, []byte, error) {
	defs := &wsdlx.Definitions{
		Name: "Bench", TargetNamespace: "http://bench.wsdl",
		ServiceName: service, PortName: "BenchPort", Address: url,
		Schema: sch, Fragmentations: []*core.Fragmentation{fr},
	}
	data, err := defs.Marshal()
	if err != nil {
		return nil, nil, err
	}
	tree, err := xmltree.Parse(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	req := &xmltree.Node{Name: "Register"}
	req.SetAttr("service", service)
	req.SetAttr("role", string(role))
	req.SetAttr("url", url)
	req.AddKid(tree)
	return req, data, nil
}

// serve exposes h at /soap on a fresh loopback port, as the daemons do.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/soap", h)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns http.ErrServerClosed on close
		close(done)
	}()
	d.closers = append(d.closers, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String() + "/soap", nil
}

// close stops every server, sweeper, pool and journal, newest first, and
// removes the WAL directory.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// opResult is the outcome of one exchange as the client saw it.
type opResult struct {
	err       error
	wireBytes int64
	// fallback marks a delta exchange that did not run as a delta: on a
	// clean link after warm-up that is a failure.
	fallback bool
	// The endpoints' own step clocks (§5.2), as the agency reports them.
	source, target, write, index time.Duration
	// trace is the agency's span tree; nil on the SOAP-driven path, whose
	// response does not carry it.
	trace *obs.Span
}

// exchange runs one exchange for tenant t the way the workload's client
// does: telecom tenants through the agency's SOAP Exchange operation,
// auction documents in-process (the Report carries what the SOAP response
// drops).
func (d *deployment) exchange(c *soap.Client, t *tenant) opResult {
	if d.w.Telecom {
		return exchangeSOAP(c, t)
	}
	return d.exchangeDirect(t)
}

func exchangeSOAP(c *soap.Client, t *tenant) opResult {
	req := &xmltree.Node{Name: "Exchange"}
	req.SetAttr("service", t.service)
	resp, err := c.Call("Exchange", req)
	if err != nil {
		return opResult{err: err}
	}
	var res opResult
	v, _ := resp.Attr("wireBytes")
	res.wireBytes, _ = strconv.ParseInt(v, 10, 64)
	for attr, dst := range map[string]*time.Duration{
		"sourceMillis": &res.source, "targetMillis": &res.target,
		"writeMillis": &res.write, "indexMillis": &res.index,
	} {
		v, _ := resp.Attr(attr)
		*dst = endpoint.ParseMillis(v)
	}
	return res
}

// planOptions are the options the agency service plans every exchange with.
func (d *deployment) planOptions() registry.PlanOptions {
	return registry.PlanOptions{Algorithm: registry.AlgGreedy, Codec: d.w.Codec}
}

// exchangeDirect is Service.exchangeNow without the SOAP front: Plan
// (cache-served) + ExecuteOpts with exactly the options the service passes.
func (d *deployment) exchangeDirect(t *tenant) opResult {
	plan, err := d.agency.Plan(t.service, d.planOptions())
	if err != nil {
		return opResult{err: err}
	}
	rep, err := d.agency.ExecuteOpts(t.service, plan, registry.ExecOptions{
		Link:        netsim.Loopback(),
		Codec:       d.w.Codec,
		Reliability: d.reliab,
		Delta:       d.w.Delta,
		Scheduler:   d.sched,
		Metrics:     d.obs.agency,
	})
	if err != nil {
		return opResult{err: err}
	}
	return opResult{
		wireBytes: rep.WireBytes,
		fallback:  d.w.Delta && d.round > 0 && !rep.Delta,
		source:    rep.SourceTime, target: rep.TargetTime, write: rep.WriteTime, index: rep.IndexTime,
		trace: rep.Trace,
	}
}

// prepare readies tenant t for its next exchange, outside every timed
// interval: the delta workload churns and reloads the source (the target
// replaces its snapshot itself); every other workload empties the target,
// whose Load appends.
func (d *deployment) prepare(t *tenant) error {
	if !d.w.Delta {
		t.tgtStore.Clear()
		return nil
	}
	d.round++
	churnAuction(t.docs[0], d.rng, d.sz.ChurnFrac, d.round)
	t.docBytes = xmltree.SerializedSize(t.docs[0], false)
	t.srcStore.Clear()
	return t.srcStore.LoadDocument(t.docs[0])
}
