// Package endpoint implements a service endpoint of the exchange
// architecture (Figure 2): a system that registers a fragmentation, answers
// the discovery agency's cost probes, executes the program slice assigned
// to it, and produces or consumes fragment shipments — all over SOAP/HTTP,
// without revealing its internal data structures.
package endpoint

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/ldapstore"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/wsdlx"
	"xdx/internal/xmltree"
)

// Backend abstracts the system behind an endpoint. Only fragment-level
// operations are exposed; how data is stored stays hidden, per the Web
// services principle the paper builds on.
type Backend interface {
	// Layout is the fragmentation the system produces/consumes natively.
	Layout() *core.Fragmentation
	// Scan returns a layout fragment's records (Definition 3.6): rows
	// built on demand, or trees the backend holds. The endpoint builds or
	// Shares them before an op consumes them (see Endpoint.trees).
	Scan(f *core.Fragment) (core.Records, error)
	// Write stores a fragment instance (Definition 3.9).
	Write(in *core.Instance) error
	// BuildIndexes finalizes storage after loading (Table 4's index step).
	BuildIndexes() error
	// Provider reports the system's cost estimates for probing.
	Provider() *core.StatsProvider
}

// RelBackend adapts a relational store.
type RelBackend struct {
	// Store is the backing relational store.
	Store *relstore.Store
	// Speed is the system's relative processing speed (1 = baseline).
	Speed float64
	// CanCombine is false for dumb clients that cannot run Combine.
	CanCombine bool
}

// Layout implements Backend.
func (b *RelBackend) Layout() *core.Fragmentation { return b.Store.Layout }

// Scan implements Backend with a snapshot of the fragment's rows.
func (b *RelBackend) Scan(f *core.Fragment) (core.Records, error) {
	return b.Store.Snapshot(f.Name)
}

// Write implements Backend.
func (b *RelBackend) Write(in *core.Instance) error { return b.Store.Load(in) }

// BuildIndexes implements Backend.
func (b *RelBackend) BuildIndexes() error { return b.Store.BuildIndexes() }

// Clear implements Clearer by dropping every stored row.
func (b *RelBackend) Clear() { b.Store.Clear() }

// Provider implements Backend.
func (b *RelBackend) Provider() *core.StatsProvider {
	card, bytes := b.Store.Stats()
	speed := b.Speed
	if speed <= 0 {
		speed = 1
	}
	return &core.StatsProvider{
		Card: card, Bytes: bytes,
		Unit:        core.DefaultUnitCosts(),
		SourceSpeed: speed, TargetSpeed: speed,
		TargetCombines: b.CanCombine,
	}
}

// LDAPBackend adapts an LDAP directory store — the provisioning system T
// of §1.1. It is primarily a consumer (and a dumb client: no combines),
// but its directory can also be scanned so an exchange may later flow back
// out of it.
type LDAPBackend struct {
	// Store is the backing directory.
	Store *ldapstore.Store
	// Speed is the system's relative processing speed.
	Speed float64
}

// Layout implements Backend.
func (b *LDAPBackend) Layout() *core.Fragmentation { return b.Store.Layout }

// Scan implements Backend.
func (b *LDAPBackend) Scan(f *core.Fragment) (core.Records, error) {
	return b.Store.Scan(f.Name)
}

// Write implements Backend.
func (b *LDAPBackend) Write(in *core.Instance) error { return b.Store.Load(in) }

// BuildIndexes implements Backend.
func (b *LDAPBackend) BuildIndexes() error { return nil }

// Provider implements Backend. The directory is a dumb client: it consumes
// fragments but does not combine them (§4.1).
func (b *LDAPBackend) Provider() *core.StatsProvider {
	speed := b.Speed
	if speed <= 0 {
		speed = 1
	}
	card := map[string]float64{}
	bytes := map[string]float64{}
	for _, e := range b.Store.Layout.Schema.Names() {
		card[e] = 1
		bytes[e] = 16
	}
	return &core.StatsProvider{
		Card: card, Bytes: bytes,
		Unit:        core.DefaultUnitCosts(),
		SourceSpeed: speed, TargetSpeed: speed,
		TargetCombines: false,
	}
}

// VirtualBackend wraps a backend and serves some fragments from computing
// functions instead of stored data — the paper's TotalMRCService idea
// (§1.1): "a fragment could correspond to the result of a service call ...
// without revealing how this fragment is computed."
type VirtualBackend struct {
	// Base handles everything not overridden.
	Base Backend
	// Virtual maps fragment names (of Base's layout) to producers. An
	// exchange consumes what a producer returns, as it does a Scan's
	// instance, so a producer that keeps its records hands out a Share view.
	Virtual map[string]func() (*core.Instance, error)
}

// Layout implements Backend.
func (b *VirtualBackend) Layout() *core.Fragmentation { return b.Base.Layout() }

// Scan implements Backend: virtual fragments are computed, the rest
// delegate to the base backend.
func (b *VirtualBackend) Scan(f *core.Fragment) (core.Records, error) {
	if fn, ok := b.Virtual[f.Name]; ok {
		in, err := fn()
		if err != nil {
			return nil, fmt.Errorf("endpoint: virtual fragment %q: %w", f.Name, err)
		}
		if err := core.ValidateInstance(b.Layout().Schema, in); err != nil {
			return nil, fmt.Errorf("endpoint: virtual fragment %q: %w", f.Name, err)
		}
		return in, nil
	}
	return b.Base.Scan(f)
}

// Write implements Backend.
func (b *VirtualBackend) Write(in *core.Instance) error { return b.Base.Write(in) }

// BuildIndexes implements Backend.
func (b *VirtualBackend) BuildIndexes() error { return b.Base.BuildIndexes() }

// Provider implements Backend.
func (b *VirtualBackend) Provider() *core.StatsProvider { return b.Base.Provider() }

// Clear implements Clearer when the base backend does.
func (b *VirtualBackend) Clear() {
	if c, ok := b.Base.(Clearer); ok {
		c.Clear()
	}
}

// Clearer marks backends whose contents a stream-tagged exchange replaces:
// a full snapshot shipped on a stream drops the prior rows before the
// write, so repeat exchanges converge instead of accumulating.
type Clearer interface{ Clear() }

// Endpoint serves a backend over SOAP.
type Endpoint struct {
	// Name identifies the endpoint in logs and faults.
	Name string
	// WSDL is the service description (with the fragmentation extension)
	// the endpoint publishes.
	WSDL *wsdlx.Definitions

	backend Backend
	srv     *soap.Server
	// sessions is the endpoint's one session table: by delivery session,
	// the source render a delivery in progress or a failed one streams
	// from (see respondSource) and the target state receiving it. A render
	// is dropped when its delivery succeeds or fails for good; an entry on
	// EndSession, or idle past the table's MaxAge.
	sessions *reliable.SessionStore[session]
	journal  *durable.Journal
	log      obs.Logger
	met      *obs.Registry

	// recon is the source side of delta exchanges: per stream and epoch,
	// the per-edge record hashes of the shipments this endpoint rendered,
	// by delivery session.
	recon *reliable.ReconIndex
}

// New wires a backend into a SOAP endpoint.
func New(name string, be Backend, defs *wsdlx.Definitions) *Endpoint {
	e := &Endpoint{Name: name, WSDL: defs, backend: be, srv: soap.NewServer(),
		sessions: reliable.NewSessionStore[session](),
		log:      obs.Nop,
		recon:    reliable.NewReconIndex()}
	e.srv.Handle("GetWSDL", e.getWSDL)
	e.srv.Handle("ProbeStats", e.probeStats)
	e.srv.Handle("DeltaStatus", e.deltaStatus)
	e.srv.Handle("SessionStatus", e.sessionStatus)
	e.srv.Handle("EndSession", e.endSession)
	e.srv.HandleStream("ExecuteSource", e.executeSource)
	e.srv.HandleStream("ExecuteTarget", e.executeTarget)
	return e
}

// Handler returns the endpoint's HTTP handler.
func (e *Endpoint) Handler() http.Handler { return e.srv }

// Sessions exposes the endpoint's session table — held source renders and
// target sessions alike — so daemons can run its background sweeper and
// tests can observe session lifecycle.
func (e *Endpoint) Sessions() *reliable.SessionStore[session] { return e.sessions }

// SetJournal makes the endpoint's resumable sessions durable: every chunk
// commit is journaled before its checkpoint advances, and the sessions the
// journal recovered are re-seeded into the store — the ledger checkpoint,
// and the committed chunks' payloads, which the resumed delivery replays
// through its shipment decoder once it arrives with its program. Session
// evictions (EndSession, idle sweeps) release the journaled state so
// compaction can shrink the log. Call once, after SetObs and before
// serving traffic; it returns how many sessions were restored.
func (e *Endpoint) SetJournal(j *durable.Journal) (int, error) {
	sessions, err := j.Sessions()
	if err != nil {
		return 0, err
	}
	e.journal = j
	for _, js := range sessions {
		ts := &targetSession{
			inbound:   map[string]*core.Instance{},
			tombs:     map[string][]string{},
			j:         j,
			id:        js.ID,
			recovered: js.Chunks,
		}
		ts.ledger.Restore(js.Next)
		e.sessions.GetOrCreate(js.ID).target = ts
	}
	restored := len(sessions)
	log := e.log
	e.sessions.OnEvict = func(ids []string) {
		if err := j.End(ids...); err != nil {
			log.Log(obs.LevelWarn, "journal end failed", "sessions", len(ids), "err", err.Error())
		}
	}
	if e.met != nil {
		e.met.Gauge("endpoint.sessions.recovered").Set(int64(restored))
	}
	if restored > 0 {
		e.log.Log(obs.LevelInfo, "sessions recovered from journal", "endpoint", e.Name, "sessions", restored)
	}
	return restored, nil
}

// SetObs attaches observability to the endpoint: the SOAP server's
// soap.server.* request metrics, an endpoint.* family (probes, execute
// timings, session lifecycle), and a live-session gauge fed
// by the store's change hook. Either argument may be nil ("off"). Call
// before serving traffic — hooks are installed without locks.
func (e *Endpoint) SetObs(l obs.Logger, m *obs.Registry) {
	e.log = obs.OrNop(l)
	e.met = m
	e.srv.SetObs(l, m)
	if m != nil {
		log := e.log
		e.sessions.OnChange = func(live, swept int) {
			m.Gauge("endpoint.sessions.live").Set(int64(live))
			if swept > 0 {
				m.Counter("endpoint.sessions.swept").Add(int64(swept))
				log.Log(obs.LevelDebug, "sessions swept", "swept", swept, "live", live)
			}
		}
	}
}

func (e *Endpoint) getWSDL(req *xmltree.Node) (*xmltree.Node, error) {
	data, err := e.WSDL.Marshal()
	if err != nil {
		return nil, err
	}
	resp := &xmltree.Node{Name: "GetWSDLResponse", Text: string(data)}
	return resp, nil
}

func (e *Endpoint) probeStats(req *xmltree.Node) (*xmltree.Node, error) {
	e.met.Counter("endpoint.probe_stats").Inc()
	defer e.met.Histogram("endpoint.probe_stats.millis").ObserveSince(time.Now())
	p := e.backend.Provider()
	if name, ok := req.Attr("codec"); ok && name != "" {
		codec, err := wire.ParseCodec(name)
		if err != nil {
			return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
		if p.ShipRatio, p.ShipRatioDefault, err = e.calibrate(codec); err != nil {
			return nil, err
		}
	}
	resp := &xmltree.Node{Name: "ProbeStatsResponse"}
	resp.AddKid(wire.EncodeStats(p))
	return resp, nil
}

// calSampleRecords bounds how many records of each layout fragment the
// calibration pass encodes; compression ratios stabilize well before this.
const calSampleRecords = 64

// calibrate measures, per layout fragment, what fraction of the tree-codec
// size the given codec actually puts on the wire, by encoding a bounded
// sample of the records the backend holds now both ways. It also returns
// the size-weighted mean, for the fragments the optimizer derives (combine
// outputs, split parts) that calibration never saw. Every probe naming a
// codec runs it afresh, so a store loaded since the last probe is priced
// as it stands. The xml codec's wire bytes are the tree bytes, so it
// measures nothing: its ratios are the unmeasured 1.
func (e *Endpoint) calibrate(codec wire.Codec) (map[string]float64, float64, error) {
	if codec.Kind != wire.CodecBin {
		return nil, 0, nil
	}
	calStart := time.Now()
	e.met.Counter("endpoint.calibrations").Inc()
	sch := e.backend.Layout().Schema
	ratios := map[string]float64{}
	var wireSum, treeSum float64
	for _, f := range e.backend.Layout().Fragments {
		recs, err := e.backend.Scan(f)
		if err != nil {
			return nil, 0, err
		}
		sample, err := recs.Build(nil, 0, min(recs.Len(), calSampleRecords), &xmltree.Arena{})
		if err != nil {
			return nil, 0, err
		}
		wb, err := wire.InstanceWireBytes(sample, sch, codec)
		if err != nil {
			return nil, 0, err
		}
		if tb := wire.RecordBytes(sample); tb > 0 {
			ratios[f.Name] = float64(wb) / float64(tb)
			wireSum += float64(wb)
			treeSum += float64(tb)
		}
	}
	// With nothing sampled the store weighs 0 bytes, and the default
	// stays unmeasured.
	var def float64
	if treeSum > 0 {
		def = wireSum / treeSum
	}
	e.log.Log(obs.LevelInfo, "codec calibrated",
		"endpoint", e.Name, "codec", codec.String(),
		"ratio", strconv.FormatFloat(def, 'f', 3, 64),
		"millis", formatMillis(time.Since(calStart)))
	return ratios, def, nil
}

// deltaStatus answers a DeltaStatus probe: when this endpoint holds a warm
// delta base for the stream at the given epoch, the base attribute names
// the session that delivered it — the snapshot a source diffs against. A
// cold answer (no base) tells the source to ship the full snapshot; delta
// deliveries that arrive cold anyway (the probe raced a restart) fault
// with xdx:ColdDelta instead.
func (e *Endpoint) deltaStatus(req *xmltree.Node) (*xmltree.Node, error) {
	stream, _ := req.Attr("stream")
	if stream == "" {
		return nil, &soap.Fault{Code: "soap:Client", String: "DeltaStatus without stream"}
	}
	epoch, _ := req.Attr("epoch")
	resp := &xmltree.Node{Name: "DeltaStatusResponse"}
	resp.SetAttr("stream", stream)
	if b := e.base(stream, epoch); b != "" {
		resp.SetAttr("base", b)
	}
	return resp, nil
}

// rowStore returns the store the backend lands a delta on as row edits, or
// nil when it cannot: only a relational backend retains a delta base, and
// every other answers each DeltaStatus cold and takes full snapshots.
func (e *Endpoint) rowStore() *relstore.Store {
	if rb, ok := e.backend.(*RelBackend); ok {
		return rb.Store
	}
	return nil
}

// base returns the session whose snapshot of the stream at epoch the
// backend's rows hold (see relstore.Store.Base), or "" when the stream is
// cold.
func (e *Endpoint) base(stream, epoch string) string {
	if st := e.rowStore(); st != nil {
		return st.Base(stream, epoch)
	}
	return ""
}

// clearBackend drops the backend's stored rows before a stream-tagged
// exchange writes its snapshot; backends that cannot clear keep their
// append semantics.
func (e *Endpoint) clearBackend() {
	if c, ok := e.backend.(Clearer); ok {
		c.Clear()
	}
}

// layoutFrag resolves a plan fragment to this system's layout fragment by
// element set, so plans need not share pointers with the store.
func (e *Endpoint) layoutFrag(f *core.Fragment) (*core.Fragment, error) {
	for _, lf := range e.backend.Layout().Fragments {
		if lf.SameElems(f) {
			return lf, nil
		}
	}
	return nil, fmt.Errorf("endpoint %s: no layout fragment matching %q", e.Name, f.Name)
}

// sourceScan resolves the scans an ExecuteSource request's slice runs
// over. Each layout fragment's records are taken once, by the backend's
// Scan. A request naming a filter (the filter attribute, §3.2's service
// arguments generalized to comparisons: the system "filters the data
// accordingly and provides the relevant pieces") has them trimmed to the
// records its root records reach (core.FilterSources). A Scan whose fragment only ships
// (see shipOnly) hands the slice an empty instance and files the records
// under the fragment, for the render to ship; any other Scan gets trees of
// its own (see trees).
func (e *Endpoint) sourceScan(req *xmltree.Node, g *core.Graph, a core.Assignment) (func(*core.Fragment) (*core.Instance, error), map[*core.Fragment]core.Records, error) {
	layout := e.backend.Layout()
	taken := map[*core.Fragment]core.Records{}
	if expr, ok := req.Attr("filter"); ok && expr != "" {
		f, err := core.CompileFilter(expr, layout.Schema)
		if err == nil {
			// A filter whose path lies outside this layout's root fragment
			// can never match a root record; fault loudly rather than
			// serve an exchange that silently shipped nothing.
			err = f.CheckRoot(layout)
		}
		if err != nil {
			return nil, nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
		e.met.Counter("endpoint.source.filtered").Inc()
		all := make(map[string]core.Records, layout.Len())
		for _, lf := range layout.Fragments {
			if all[lf.Name], err = e.backend.Scan(lf); err != nil {
				return nil, nil, err
			}
		}
		kept, err := core.FilterSources(layout, all, f.Predicate())
		if err != nil {
			return nil, nil, err
		}
		for _, lf := range layout.Fragments {
			taken[lf] = kept[lf.Name]
		}
	}
	only := shipOnly(g, a)
	ship := map[*core.Fragment]core.Records{}
	return func(f *core.Fragment) (*core.Instance, error) {
		lf, err := e.layoutFrag(f)
		if err != nil {
			return nil, err
		}
		recs := taken[lf]
		if recs == nil {
			if recs, err = e.backend.Scan(lf); err != nil {
				return nil, err
			}
			taken[lf] = recs
		}
		if only[f] {
			ship[f] = recs
			return &core.Instance{Frag: f}, nil
		}
		return e.trees(f, recs)
	}, ship, nil
}

// trees returns a Scan's records as an instance of f for the slice, which
// consumes what it is served (Combine attaches into its records and Split
// cuts them): built from rows — a whole snapshot into one arena sized by
// its rows, as ScanFragment builds it, whichever backend took it — or a
// Share view of records a backend without a row store may hold as trees,
// so every Scan of a fragment reads them pristine.
func (e *Endpoint) trees(f *core.Fragment, recs core.Records) (*core.Instance, error) {
	if rows, ok := recs.(*relstore.Rows); ok {
		return rows.Instance(f)
	}
	if e.rowStore() == nil {
		held, err := recs.Build(make([]*xmltree.Node, 0, recs.Len()), 0, recs.Len(), nil)
		return (&core.Instance{Frag: f, Records: held}).Share(), err
	}
	built, err := recs.Build(make([]*xmltree.Node, 0, recs.Len()), 0, recs.Len(), &xmltree.Arena{})
	return &core.Instance{Frag: f, Records: built}, err
}

// shipOnly reports, by fragment, whether every source Scan of it feeds
// only cross-edges: no source op reads its records.
func shipOnly(g *core.Graph, a core.Assignment) map[*core.Fragment]bool {
	only := map[*core.Fragment]bool{}
	for _, e := range g.Edges {
		if op := e.From; op.Kind == core.OpScan && a[op.ID] == core.LocSource {
			if prev, seen := only[op.Out]; !seen || prev {
				only[op.Out] = a[e.To.ID] != core.LocSource
			}
		}
	}
	return only
}

// programChild returns a request's <program> child, nil when it has none.
func programChild(req *xmltree.Node) *xmltree.Node {
	for _, k := range req.Kids {
		if k.Name == "program" {
			return k
		}
	}
	return nil
}

func formatMillis(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
}

// ParseMillis converts a millisecond attribute back to a duration.
func ParseMillis(s string) time.Duration {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return time.Duration(f * float64(time.Millisecond))
}
