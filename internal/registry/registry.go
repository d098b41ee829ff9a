// Package registry implements the discovery agency of Figure 2: the
// middle-ware where systems register WSDL descriptions with fragmentation
// extensions (step 1), where mappings and data-transfer programs are
// generated (step 2), where the systems' cost interfaces are probed
// (step 3), and which assigns operations to the source and target and
// drives the exchange (step 4). The agency sees only fragmentations and
// cost estimates — never the systems' internal data structures.
package registry

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xdx/internal/core"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/wsdlx"
	"xdx/internal/xmltree"
)

// Role says which side of an exchange a registration plays.
type Role string

// Registration roles.
const (
	RoleSource Role = "source"
	RoleTarget Role = "target"
)

// Party is one registered system.
type Party struct {
	// Role is source or target.
	Role Role
	// URL is the endpoint's SOAP address.
	URL string
	// WSDL is the parsed service description.
	WSDL *wsdlx.Definitions
	// Fragmentation is the system's registered fragmentation; when the
	// WSDL carries none, the initial XML Schema is used by default, as in
	// publish&map (§1.1).
	Fragmentation *core.Fragmentation
}

// Agency is the discovery agency. Registration state lives behind a
// read-write lock: planning and executing only ever take read snapshots,
// so they never serialize on each other or on concurrent registrations —
// only Register writes. A *Party is immutable once published
// (re-registration installs a fresh Party), so a pointer copied out under
// the read lock stays valid forever.
type Agency struct {
	mu          sync.RWMutex
	services    map[string]map[Role]*Party
	autosaveDir string

	// epoch counts registration mutations; the plan cache uses it to
	// discard derivations that raced a Register.
	epoch atomic.Int64
	plans planCache

	log obs.Logger
	met *obs.Registry
}

// New returns an empty agency.
func New() *Agency {
	a := &Agency{services: make(map[string]map[Role]*Party)}
	a.plans.init()
	return a
}

// SetMetrics exports the agency's control-plane metrics (plan-cache hits,
// misses, evictions, size) into m and makes m the sink for the agency's own
// counters (autosave errors). Call before serving traffic.
func (a *Agency) SetMetrics(m *obs.Registry) {
	a.met = m
	a.plans.export(m)
}

// PlanCacheStats reports the plan cache's lifetime counters and current
// entry count — the hit-rate source for the benchmark and tests.
func (a *Agency) PlanCacheStats() (hits, misses, evictions int64, size int) {
	return a.plans.stats()
}

// Register stores a party's WSDL document under a service name (step 1 of
// Figure 2). A missing fragmentation defaults to the whole XML Schema.
func (a *Agency) Register(service string, role Role, wsdlDoc []byte, url string) error {
	defs, err := wsdlx.Parse(bytes.NewReader(wsdlDoc))
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	p := &Party{Role: role, URL: url, WSDL: defs}
	if len(defs.Fragmentations) > 0 {
		p.Fragmentation = defs.Fragmentations[0]
	} else {
		p.Fragmentation = core.Trivial(defs.Schema)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.services[service] == nil {
		a.services[service] = make(map[Role]*Party)
	}
	a.services[service][role] = p
	a.epoch.Add(1)
	a.plans.invalidate(service)
	if a.autosaveDir != "" {
		if err := a.saveLocked(a.autosaveDir); err != nil {
			return err
		}
	}
	return nil
}

// RegisterFromEndpoint fetches the party's WSDL description from the
// endpoint's own GetWSDL operation and registers it — discovery without
// the party having to push its document (the UDDI-style flow of §2).
func (a *Agency) RegisterFromEndpoint(service string, role Role, url string) error {
	c := &soap.Client{URL: url}
	resp, err := c.Call("GetWSDL", &xmltree.Node{Name: "GetWSDL"})
	if err != nil {
		return fmt.Errorf("registry: fetching WSDL from %s: %w", url, err)
	}
	return a.Register(service, role, []byte(resp.Text), url)
}

// Party returns the registration for a role, or nil. The returned Party
// is an immutable snapshot — safe to read after the lock is released.
func (a *Agency) Party(service string, role Role) *Party {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.services[service][role]
}

// parties copies out both of a service's registrations under one read
// lock, so a plan or execute sees a coherent source/target pair even while
// registrations churn.
func (a *Agency) parties(service string) (src, tgt *Party) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	m := a.services[service]
	return m[RoleSource], m[RoleTarget]
}

// Services lists registered service names.
func (a *Agency) Services() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []string
	for s := range a.services {
		out = append(out, s)
	}
	return out
}

// ServicesPage lists registered service names sorted lexicographically,
// keyset-paginated: up to limit names strictly after cursor, plus the
// cursor for the next page ("" when this page is the last). Pass cursor ""
// for the first page; limit <= 0 takes a default page.
func (a *Agency) ServicesPage(cursor string, limit int) (names []string, next string) {
	if limit <= 0 {
		limit = DefaultPageSize
	}
	all := a.Services()
	sort.Strings(all)
	for _, s := range all {
		if s <= cursor {
			continue
		}
		if len(names) == limit {
			return names, names[len(names)-1]
		}
		names = append(names, s)
	}
	return names, ""
}

// DefaultPageSize is the page size ServicesPage and the List SOAP op use
// when the caller names none.
const DefaultPageSize = 50

// Algorithm selects the program-generation strategy of §4.
type Algorithm string

// Optimization algorithms.
const (
	AlgOptimal Algorithm = "optimal" // §4.2: exhaustive orderings × Cost_Based_Optim
	AlgGreedy  Algorithm = "greedy"  // §4.3: cheapest-combine-first, greedy placement
)

// PlanOptions tune step 2/3.
type PlanOptions struct {
	// Algorithm is AlgGreedy (also when empty) or AlgOptimal; any other
	// value is refused.
	Algorithm Algorithm
	// Codec names the shipment encoding the exchange will travel under.
	// When set, the stats probes ask the endpoints for compression-
	// calibrated statistics, so the optimizer's comm term reflects true
	// wire bytes — a lean codec can flip placements toward shipping.
	Codec string
}

// Plan is the outcome of steps 2 and 3: a data-transfer program with its
// placement and estimated cost.
type Plan struct {
	Service   string
	Mapping   *core.Mapping
	Program   *core.Graph
	Assign    core.Assignment
	Estimated float64
	// PlanTime is how long optimization took (the §5.4.2 greedy-vs-optimal
	// runtime comparison).
	PlanTime time.Duration
}

// Plan generates and optimizes a data-transfer program for the service:
// it derives the mapping between the registered fragmentations, probes both
// endpoints' cost interfaces over SOAP, and runs the selected optimizer.
//
// Derivations are cached: the mapping and optimizer output depend only on
// the (source fragmentation, target fragmentation, endpoint pair, options)
// tuple, so repeated plans over the same pair return the cached immutable
// *Plan template without re-deriving or re-probing (Mahboubi & Darmont:
// fragmentation-derived artifacts are reusable across queries). The cache
// is invalidated whenever the service re-registers. Callers
// must treat the returned Plan as read-only. An algorithm other than
// greedy and optimal is the caller's mistake: a soap:Client fault.
func (a *Agency) Plan(service string, opts PlanOptions) (*Plan, error) {
	switch opts.Algorithm {
	case "":
		opts.Algorithm = AlgGreedy
	case AlgGreedy, AlgOptimal:
	default:
		return nil, clientFault(fmt.Sprintf("registry: unknown algorithm %q", opts.Algorithm))
	}
	epoch := a.epoch.Load()
	src, tgt := a.parties(service)
	if src == nil || tgt == nil {
		return nil, unregistered(service)
	}
	key := planKey(src, tgt, opts)
	p, flight, leader := a.plans.join(service, key)
	if p != nil {
		return p, nil
	}
	if !leader {
		// Another caller is deriving this very key; wait for its answer
		// instead of stampeding the endpoints with duplicate probe rounds.
		<-flight.done
		if flight.err != nil {
			return nil, flight.err
		}
		// Hits count every plan handed out without a derivation of its own.
		a.plans.hits.Add(1)
		return flight.p, nil
	}
	p, err := a.derivePlan(service, src, tgt, opts)
	defer func() { a.plans.finish(service, key, flight, p, err) }()
	if err != nil {
		return nil, err
	}
	// The epoch check drops derivations whose party snapshot predates a
	// registration change; waiters coalesced onto this flight still receive
	// the plan (they raced the change exactly as a lone caller would have).
	a.plans.put(service, key, p, func() bool { return a.epoch.Load() == epoch })
	return p, nil
}

// clientFault is a caller's mistake as the agency answers it: a
// soap:Client fault, which the SOAP service sends on as is and no retry
// policy repeats.
func clientFault(why string) *soap.Fault {
	return &soap.Fault{Code: "soap:Client", String: why}
}

// unregistered refuses a service without both registrations.
func unregistered(service string) *soap.Fault {
	return clientFault(fmt.Sprintf("registry: service %q needs both a source and a target registration", service))
}

// derivePlan is the uncached step 2/3 work: mapping derivation, stats
// probes against both live endpoints, and optimizer search.
func (a *Agency) derivePlan(service string, src, tgt *Party, opts PlanOptions) (*Plan, error) {
	// The two parties agreed on one XML Schema; align the target's
	// fragmentation onto the source's schema object.
	tgtFrag, err := realign(tgt.Fragmentation, src.Fragmentation)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMapping(src.Fragmentation, tgtFrag)
	if err != nil {
		return nil, err
	}
	model, err := a.probe(src, tgt, opts.Codec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var res core.OptimalResult
	if opts.Algorithm == AlgOptimal {
		res, err = core.Optimal(m, model, core.GenOptions{})
	} else {
		res, err = core.Greedy(m, model)
	}
	if err != nil {
		return nil, err
	}
	return &Plan{
		Service:   service,
		Mapping:   m,
		Program:   res.Program,
		Assign:    res.Assign,
		Estimated: res.Cost,
		PlanTime:  time.Since(start),
	}, nil
}

// realign rebuilds fr against the schema owned by ref so fragment element
// checks share one schema object.
func realign(fr, ref *core.Fragmentation) (*core.Fragmentation, error) {
	if fr.Schema == ref.Schema {
		return fr, nil
	}
	if fr.Schema.Len() != ref.Schema.Len() {
		return nil, fmt.Errorf("registry: parties registered different schemas (%d vs %d elements)", fr.Schema.Len(), ref.Schema.Len())
	}
	var frags []*core.Fragment
	for _, f := range fr.Fragments {
		nf, err := core.NewFragment(ref.Schema, f.Name, f.ElemList())
		if err != nil {
			return nil, fmt.Errorf("registry: parties registered incompatible schemas: %w", err)
		}
		frags = append(frags, nf)
	}
	return core.NewFragmentation(ref.Schema, fr.Name, frags)
}

// probe queries both endpoints' ProbeStats interfaces and builds the
// two-system cost model (step 3 of Figure 2): one provider, as the §5.4
// simulator prices a plan. The source's reply sizes every operation and
// cross-edge — the data flowing lives at the source — and the target
// contributes only its speed and whether it can combine, so the target is
// probed without a codec.
func (a *Agency) probe(src, tgt *Party, codec string) (*core.Model, error) {
	p, err := probeStats(src.URL, codec)
	if err != nil {
		return nil, fmt.Errorf("registry: probing source: %w", err)
	}
	tp, err := probeStats(tgt.URL, "")
	if err != nil {
		return nil, fmt.Errorf("registry: probing target: %w", err)
	}
	p.TargetSpeed, p.TargetCombines = tp.TargetSpeed, tp.TargetCombines
	return core.NewModel(p), nil
}

func probeStats(url, codec string) (*core.StatsProvider, error) {
	c := &soap.Client{URL: url}
	req := &xmltree.Node{Name: "ProbeStats"}
	if codec != "" {
		req.SetAttr("codec", codec)
	}
	resp, err := c.Call("ProbeStats", req)
	if err != nil {
		return nil, err
	}
	if len(resp.Kids) == 0 {
		return nil, fmt.Errorf("empty stats response")
	}
	return wire.DecodeStats(resp.Kids[0])
}

// Report aggregates the measurable steps of one executed exchange,
// mirroring §5.2's step list.
type Report struct {
	// Plan is the executed plan.
	Plan *Plan
	// Exchange is the exchange id: it rode on every call of the exchange,
	// the source's delivery to the target included, and every agency,
	// source and target log line of the exchange carries it.
	Exchange string
	// SourceTime is step 1: executing the program parts assigned to the
	// source.
	SourceTime time.Duration
	// WireBytes is what crossed the link to the target: every byte of the
	// shipment as the source serialized it onto its ExecuteTarget request —
	// framing, codec encoding, compression and transfer text included —
	// summed over every delivery attempt of the session, torn ones too
	// (retransmission is a real communication cost); the source meters it
	// and reports it on its <timing>. ShipTime is the modeled time for
	// WireBytes over the configured link (step 2). PayloadBytes is the same shipment
	// measured once in the universal tagged-XML tree codec (the source
	// reports it alongside its timing), so the two
	// diverge exactly by what the codec saved and what retries re-sent.
	WireBytes    int64
	PayloadBytes int64
	ShipTime     time.Duration
	// Codec is the shipment codec the agency named on ExecuteSource, which
	// the source ships in.
	Codec string
	// TargetTime is step 3: program parts executed at the target.
	TargetTime time.Duration
	// WriteTime is step 4: loading the target store.
	WriteTime time.Duration
	// IndexTime is step 5: updating target indexes.
	IndexTime time.Duration
	// Retries counts failed call attempts that were retried under the
	// exchange's retry policy (always zero with the single-attempt default).
	Retries int
	// Resumes counts target deliveries that resumed from a positive chunk
	// checkpoint instead of restarting the shipment.
	Resumes int
	// DeclinedChunks is how many replayed chunks the target's session
	// ledger skipped as already committed — zero unless a resumed delivery
	// restarted below the target's checkpoint.
	DeclinedChunks int64
	// Delta reports whether the delivery actually ran in delta mode (a
	// requested delta falls back to a full re-ship when the target's base
	// or the source's reconciliation index is cold, or the fragmentation
	// epoch changed). DeltaRecords is how many added/changed records the
	// delta shipped; TombstoneRecords how many deletions it announced. The
	// source reports all three on its response.
	Delta            bool
	DeltaRecords     int
	TombstoneRecords int
	// Trace is the exchange's span tree — the root "exchange" span with
	// per-phase children (source attempts, delivery attempts, resume
	// probes, commit). Always populated by ExecuteOpts; End() has been
	// called on the root by the time the report is returned.
	Trace *obs.Span
}

// ExecOptions tunes Execute.
type ExecOptions struct {
	// Link models the source→target connection.
	Link netsim.Link
	// Codec names the shipment encoding for the exchange: "xml", "bin", or
	// "bin+flate"; empty is "xml". The agency names it on ExecuteSource and
	// the source ships exactly that; the shipment itself stays
	// self-describing.
	Codec string
	// Filter passes a service argument (§3.2) to the source: a
	// core.CompileFilter expression (child steps + leaf comparison), e.g.
	// "CustName = 'Ann'", evaluated source-side, so only matching
	// root-fragment records (and their descendants) are exchanged. It
	// belongs to this exchange, not to the plan: the drive compiles it
	// against the source's fragmentation before any call, and one that
	// does not compile, or names an element outside the source's root
	// fragment, is a soap:Client fault.
	Filter string
	// Delta asks for an incremental delivery: the source diffs its fresh
	// shipment against the snapshot the target says it holds and ships
	// only added/changed records plus tombstones for deletions, falling
	// back to a full re-ship whenever either side's state is cold or the
	// fragmentation epoch changed. The agency only reads the outcome.
	Delta bool
	// Reliability is the exchange's retry policy: retried source execution
	// with backoff, resume-from-checkpoint for the target delivery, and
	// circuit breaking through its Breakers when the caller shares a set.
	// Nil is a single attempt per call — the same drive, just with no
	// second try. Its Transport is the hook a fault-injecting
	// netsim.FaultyLink plugs into.
	Reliability *reliable.Config
	// Logger, when set, narrates the exchange: attempts, retries, breaker
	// transitions, and the final outcome. Nil is silent.
	Logger obs.Logger
	// Metrics, when set, receives exchange.* counters and latency
	// histograms from the drive. Nil records nothing.
	Metrics *obs.Registry
	// Scheduler, when set, routes the drive through the admission-
	// controlled exchange pool: the exchange waits for a worker under
	// Tenant's budgets and runs there, or is shed immediately with a
	// soap.CodeOverloaded fault (see Scheduler.Submit).
	Scheduler *Scheduler
	// Tenant names the admission-control bucket the exchange charges
	// against; empty defaults to the service name.
	Tenant string
}

// Execute drives an exchange end-to-end (step 4 of Figure 2) with default
// options; see ExecuteOpts.
func (a *Agency) Execute(service string, plan *Plan, link netsim.Link) (*Report, error) {
	return a.ExecuteOpts(service, plan, ExecOptions{Link: link})
}

// ExecuteOpts drives an exchange end-to-end (§5.2's step list): the source
// executes its slice and streams the cross-edge shipment straight to the
// target as one sessioned, chunked request together with the target
// slice; the agency coordinates and never carries the data. Communication
// time is modeled over the link from the actual wire bytes. Every drive carries a span tree (Report.Trace)
// and, when opts wires a Logger/Metrics, emits exchange.* observability.
func (a *Agency) ExecuteOpts(service string, plan *Plan, opts ExecOptions) (*Report, error) {
	if opts.Scheduler != nil {
		sched, tenant := opts.Scheduler, opts.Tenant
		if tenant == "" {
			tenant = service
		}
		opts.Scheduler = nil
		var report *Report
		err := sched.Submit(tenant, func() error {
			var e error
			report, e = a.ExecuteOpts(service, plan, opts)
			return e
		})
		return report, err
	}
	start := time.Now()
	met := opts.Metrics
	log := obs.OrNop(opts.Logger)
	met.Counter("exchange.total").Inc()

	if opts.Reliability == nil {
		opts.Reliability = &reliable.Config{Policy: reliable.Policy{MaxAttempts: 1}}
	}
	report, err := a.drive(service, plan, opts)

	met.Histogram("exchange.millis").ObserveSince(start)
	if report != nil {
		report.Trace.End()
	}
	if err != nil {
		met.Counter("exchange.errors").Inc()
		id := ""
		if report != nil {
			id = report.Exchange
		}
		log.Log(obs.LevelWarn, "exchange failed", "exchange", id, "service", service, "err", err.Error())
		return report, err
	}
	met.Counter("exchange.wire_bytes").Add(report.WireBytes)
	met.Counter("exchange.payload_bytes").Add(report.PayloadBytes)
	if log.Enabled(obs.LevelInfo) {
		log.Log(obs.LevelInfo, "exchange complete", "exchange", report.Exchange,
			"service", service, "codec", report.Codec,
			"wireBytes", report.WireBytes, "retries", report.Retries,
			"resumes", report.Resumes, "millis", time.Since(start).Milliseconds())
	}
	return report, nil
}
