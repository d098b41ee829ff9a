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
	// built on demand, or trees the backend holds, which the endpoint
	// copies for each reader (see Endpoint.sourceScan).
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
	return core.NewStatsProvider(card, bytes, b.Speed, b.CanCombine)
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
	card := map[string]float64{}
	bytes := map[string]float64{}
	for _, e := range b.Store.Layout.Schema.Names() {
		card[e] = 1
		bytes[e] = 16
	}
	return core.NewStatsProvider(card, bytes, b.Speed, false)
}

// VirtualBackend wraps a backend and serves some fragments from computing
// functions instead of stored data — the paper's TotalMRCService idea
// (§1.1): "a fragment could correspond to the result of a service call ...
// without revealing how this fragment is computed."
type VirtualBackend struct {
	// Base handles everything not overridden.
	Base Backend
	// Virtual maps fragment names (of Base's layout) to producers. A
	// producer may return records it keeps: an exchange copies what it
	// serves before an op or a calibration Split cuts them.
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
		if p.ShipScale, p.ShipRecord, err = e.calibrate(codec); err != nil {
			return nil, err
		}
	}
	resp := &xmltree.Node{Name: "ProbeStatsResponse"}
	resp.AddKid(wire.EncodeStats(p))
	return resp, nil
}

// calSampleRecords bounds how many records of each layout fragment the
// calibration pass encodes; the coefficients stabilize well before this.
const calSampleRecords = 64

// calibrate measures ShipScale and ShipRecord under codec on a sample of
// the records each layout fragment holds now, encoded as shipped and Split
// into single-element records (the same content in more records): the
// bytes added per added record are ShipRecord, and the shipped bytes
// beyond their records' framing, per byte of content, are ShipScale. No
// records leave both 0 (unmeasured); single-element fragments (MF) have
// nothing to split, so their framing lands in ShipScale.
func (e *Endpoint) calibrate(codec wire.Codec) (scale, perRecord float64, err error) {
	calStart := time.Now()
	e.met.Counter("endpoint.calibrations").Inc()
	sch := e.backend.Layout().Schema
	single := core.MostFragmented(sch).Fragments
	var shippedWire, cutWire, shippedRecs, cutRecs, content float64
	for _, f := range e.backend.Layout().Fragments {
		rs, err := e.backend.Scan(f)
		if err != nil {
			return 0, 0, err
		}
		sample, err := rs.Build(nil, 0, min(rs.Len(), calSampleRecords), &xmltree.Arena{})
		if err != nil {
			return 0, 0, err
		}
		shipped, err := wire.InstanceWireBytes(sample, sch, codec)
		if err != nil {
			return 0, 0, err
		}
		var parts []*core.Fragment // Split consumes sample: it runs last
		for _, p := range single {
			if f.Elems[p.Root] {
				parts = append(parts, p)
			}
		}
		in := &core.Instance{Frag: f, Records: sample}
		if _, built := rs.(*relstore.Rows); !built {
			in = in.Clone() // trees the backend holds: Split cuts the copy
		}
		split, err := core.Split(sch, in, parts)
		if err != nil {
			return 0, 0, err
		}
		var cut []*xmltree.Node
		for _, in := range split {
			cut = append(cut, in.Records...)
		}
		cutBytes, err := wire.InstanceWireBytes(cut, sch, codec)
		if err != nil {
			return 0, 0, err
		}
		shippedWire, cutWire = shippedWire+float64(shipped), cutWire+float64(cutBytes)
		shippedRecs, cutRecs = shippedRecs+float64(len(sample)), cutRecs+float64(len(cut))
		for _, n := range cut {
			content += core.ElemBytes(n.Name, n.Text)
		}
	}
	if cutRecs > shippedRecs {
		perRecord = max(0, (cutWire-shippedWire)/(cutRecs-shippedRecs))
	}
	if content > 0 {
		if scale = (shippedWire - perRecord*shippedRecs) / content; scale <= 0 {
			scale, perRecord = shippedWire/content, 0
		}
	}
	e.log.Log(obs.LevelInfo, "codec calibrated", "endpoint", e.Name, "codec", codec.String(),
		"scale", strconv.FormatFloat(scale, 'f', 3, 64), "perRecord", strconv.FormatFloat(perRecord, 'f', 1, 64),
		"millis", formatMillis(time.Since(calStart)))
	return scale, perRecord, nil
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
// records its root records reach (core.FilterSources). Records built on
// demand — a snapshot of a store's rows, or a filter's Pick of one — are
// served as they are, to every Scan of their fragment: each reader builds
// its own. Trees a backend without a row store holds are served as copies
// built into each reader's arena, since the slice consumes the trees it is
// served.
func (e *Endpoint) sourceScan(req *xmltree.Node) (func(*core.Fragment) (core.Records, error), error) {
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
			return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
		e.met.Counter("endpoint.source.filtered").Inc()
		all := make(map[string]core.Records, layout.Len())
		for _, lf := range layout.Fragments {
			if all[lf.Name], err = e.backend.Scan(lf); err != nil {
				return nil, err
			}
		}
		kept, err := core.FilterSources(layout, all, f.Predicate())
		if err != nil {
			return nil, err
		}
		for _, lf := range layout.Fragments {
			taken[lf] = kept[lf.Name]
		}
	}
	return func(f *core.Fragment) (core.Records, error) {
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
		if _, built := recs.(core.Keyed); built {
			return recs, nil
		}
		return copies{recs}, nil
	}, nil
}

// copies serves the trees a backend without a row store holds: each Build
// copies them into the reader's arena, so an op gets trees of its own and
// a chunk's copies go with its scratch.
type copies struct{ core.Records }

// Build implements core.Records.
func (c copies) Build(dst []*xmltree.Node, i, j int, a *xmltree.Arena) ([]*xmltree.Node, error) {
	at := len(dst)
	dst, err := c.Records.Build(dst, i, j, a)
	for k := at; k < len(dst); k++ {
		dst[k] = dst[k].CloneInto(a)
	}
	return dst, err
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
