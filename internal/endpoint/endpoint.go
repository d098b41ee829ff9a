// Package endpoint implements a service endpoint of the exchange
// architecture (Figure 2): a system that registers a fragmentation, answers
// the discovery agency's cost probes, executes the program slice assigned
// to it, and produces or consumes fragment shipments — all over SOAP/HTTP,
// without revealing its internal data structures.
package endpoint

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
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
	// Scan materializes a layout fragment's instance (Definition 3.6).
	Scan(f *core.Fragment) (*core.Instance, error)
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

// Scan implements Backend.
func (b *RelBackend) Scan(f *core.Fragment) (*core.Instance, error) {
	return b.Store.ScanFragment(f.Name)
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
func (b *LDAPBackend) Scan(f *core.Fragment) (*core.Instance, error) {
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
	// Virtual maps fragment names (of Base's layout) to producers.
	Virtual map[string]func() (*core.Instance, error)
}

// Layout implements Backend.
func (b *VirtualBackend) Layout() *core.Fragmentation { return b.Base.Layout() }

// Scan implements Backend: virtual fragments are computed, the rest
// delegate to the base backend.
func (b *VirtualBackend) Scan(f *core.Fragment) (*core.Instance, error) {
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
// each such exchange carries the full logical snapshot — shipped whole or
// patched together from a delta — so prior rows are dropped before the
// write and repeat exchanges converge instead of accumulating.
type Clearer interface{ Clear() }

// Endpoint serves a backend over SOAP.
type Endpoint struct {
	// Name identifies the endpoint in logs and faults.
	Name string
	// WSDL is the service description (with the fragmentation extension)
	// the endpoint publishes.
	WSDL *wsdlx.Definitions

	backend  Backend
	srv      *soap.Server
	sessions *reliable.SessionStore
	journal  *durable.Journal
	log      obs.Logger
	met      *obs.Registry

	// codecs is the shipment codecs this endpoint will answer in, in the
	// order it prefers them; negotiation picks the client's first advertised
	// codec that appears here. Defaults to everything the wire package
	// speaks.
	codecs []string

	// codecWorkers dials the chunk codec pools of every shipment this
	// endpoint writes or decodes: 0 (default) is one worker per CPU, 1 or
	// less runs the codecs in-line. See SetCodecWorkers.
	codecWorkers int

	calMu    sync.Mutex
	calCache map[string]*shipCalibration

	// deltaMu guards deltaBases: the per-stream retained snapshots delta
	// exchanges patch against. Memory-only by design — after a restart
	// every stream is cold and the agency falls back to a full reship.
	deltaMu    sync.Mutex
	deltaBases map[string]*deltaBase
	deltaOff   bool
}

// deltaBase is one stream's retained snapshot: the instance map of the
// last successful stream-tagged exchange, valid only while the plan
// epoch it was built under still matches.
type deltaBase struct {
	epoch string
	out   map[string]*core.Instance
}

// shipCalibration holds measured wire/tree size ratios for one codec:
// per layout fragment, plus the size-weighted mean used for fragments the
// optimizer derives (combine outputs, split parts) that calibration never
// saw.
type shipCalibration struct {
	ratios map[string]float64
	def    float64
}

// New wires a backend into a SOAP endpoint.
func New(name string, be Backend, defs *wsdlx.Definitions) *Endpoint {
	e := &Endpoint{Name: name, WSDL: defs, backend: be, srv: soap.NewServer(),
		sessions:   reliable.NewSessionStore(),
		codecs:     wire.Codecs(),
		log:        obs.Nop,
		calCache:   map[string]*shipCalibration{},
		deltaBases: map[string]*deltaBase{}}
	e.srv.Handle("GetWSDL", e.getWSDL)
	e.srv.Handle("ProbeStats", e.probeStats)
	e.srv.Handle("ProbeCost", e.probeCost)
	e.srv.Handle("DeltaStatus", e.deltaStatus)
	e.srv.Handle("SessionStatus", e.sessionStatus)
	e.srv.Handle("EndSession", e.endSession)
	e.srv.HandleStream("ExecuteSource", e.executeSource)
	e.srv.HandleStream("ExecuteTarget", e.executeTarget)
	return e
}

// Handler returns the endpoint's HTTP handler.
func (e *Endpoint) Handler() http.Handler { return e.srv }

// Sessions exposes the endpoint's resumable-session store, so daemons can
// run its background sweeper and tests can observe session lifecycle.
func (e *Endpoint) Sessions() *reliable.SessionStore { return e.sessions }

// SetJournal makes the endpoint's resumable sessions durable: every chunk
// commit is journaled before its checkpoint advances, and the sessions the
// journal recovered are re-seeded into the store — the ledger checkpoint,
// and the committed chunks' payloads, which the resumed delivery replays
// through its shipment decoder (record dedup included) once it arrives
// with its program. Session evictions (EndSession, idle sweeps) release
// the journaled state so compaction can shrink the log. Call once, after
// SetObs and before serving traffic; it returns how many sessions were
// restored.
func (e *Endpoint) SetJournal(j *durable.Journal) (int, error) {
	sessions, err := j.Sessions()
	if err != nil {
		return 0, err
	}
	e.journal = j
	for _, js := range sessions {
		s := e.sessions.GetOrCreate(js.ID)
		s.Ledger.Restore(js.Next)
		s.Mu.Lock()
		s.Data = &targetSession{
			ledger:    s.Ledger,
			inbound:   map[string]*core.Instance{},
			tombs:     map[string][]string{},
			j:         j,
			id:        js.ID,
			recovered: js.Chunks,
		}
		s.Mu.Unlock()
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
// timings, codec picks, session lifecycle), and a live-session gauge fed
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

// SetCodecWorkers dials the parallel chunk pipelines of the endpoint's
// shipment codecs: source responses render chunks and target requests
// parse raw chunks on a pool of n workers (0 — the default — sizes the
// pool to the CPU count, 1 or less is the serial path). The wire format
// is byte-identical for every setting. Call before serving traffic.
func (e *Endpoint) SetCodecWorkers(n int) { e.codecWorkers = n }

// SetSupportedCodecs restricts (and orders) the shipment codecs this
// endpoint answers in. Unknown names are rejected. An empty call is a
// no-op, leaving the default of everything the wire package speaks.
func (e *Endpoint) SetSupportedCodecs(names ...string) error {
	if len(names) == 0 {
		return nil
	}
	for _, n := range names {
		if _, err := wire.ParseCodec(n); err != nil {
			return err
		}
	}
	e.codecs = append([]string(nil), names...)
	return nil
}

// supportsCodec reports whether the endpoint will answer in codec name.
func (e *Endpoint) supportsCodec(name string) bool {
	for _, c := range e.codecs {
		if c == name {
			return true
		}
	}
	return false
}

// pickCodec resolves the shipment codec for an ExecuteSource reply. The
// envelope's advertised codecs win — the server picks the first it
// supports, the Content-Encoding-style half of negotiation — with the
// universal tagged-XML format as the answer when nothing advertised is
// spoken here. Requests that did not negotiate fall back to the payload's
// explicit codec attribute. The second return reports whether negotiation
// happened (and so whether the choice should be stamped on the response
// envelope).
func (e *Endpoint) pickCodec(env soap.Header, req *xmltree.Node) (wire.Codec, bool, error) {
	if len(env.Codecs) > 0 {
		for _, name := range env.Codecs {
			if e.supportsCodec(name) {
				c, err := wire.ParseCodec(name)
				if err == nil {
					e.met.Counter("endpoint.codec.picks." + name).Inc()
					return c, true, nil
				}
			}
		}
		// Nothing advertised is spoken here; answer in the universal format.
		e.met.Counter("endpoint.codec.picks.unsupported").Inc()
		return wire.Codec{}, true, nil
	}
	if v, ok := req.Attr("codec"); ok && v != "" {
		c, err := wire.ParseCodec(v)
		if err != nil {
			return wire.Codec{}, false, &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
		return c, false, nil
	}
	return wire.Codec{}, false, nil
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
		cal, err := e.calibrate(codec)
		if err != nil {
			return nil, err
		}
		p.ShipCodec = codec.String()
		p.ShipRatio = cal.ratios
		p.ShipRatioDefault = cal.def
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
// sample of real records both ways. Results are cached per codec — the
// data does not change under the endpoint, and probes repeat.
func (e *Endpoint) calibrate(codec wire.Codec) (*shipCalibration, error) {
	key := codec.String()
	e.calMu.Lock()
	defer e.calMu.Unlock()
	if cal, ok := e.calCache[key]; ok {
		return cal, nil
	}
	calStart := time.Now()
	e.met.Counter("endpoint.calibrations").Inc()
	sch := e.backend.Layout().Schema
	cal := &shipCalibration{ratios: map[string]float64{}}
	var wireSum, treeSum float64
	for _, f := range e.backend.Layout().Fragments {
		in, err := e.backend.Scan(f)
		if err != nil {
			return nil, err
		}
		recs := in.Records
		if len(recs) > calSampleRecords {
			recs = recs[:calSampleRecords]
		}
		wb, err := wire.InstanceWireBytes(recs, f, sch, codec)
		if err != nil {
			return nil, err
		}
		tb := wire.RecordBytes(recs)
		if tb > 0 {
			cal.ratios[f.Name] = float64(wb) / float64(tb)
			wireSum += float64(wb)
			treeSum += float64(tb)
		}
	}
	// Derived fragments (combine outputs, split parts) were never scanned;
	// they default to the size-weighted mean of what was.
	if treeSum > 0 {
		cal.def = wireSum / treeSum
	} else {
		cal.def = core.DefaultShipRatio(key)
	}
	e.calCache[key] = cal
	e.log.Log(obs.LevelInfo, "codec calibrated",
		"endpoint", e.Name, "codec", key,
		"ratio", strconv.FormatFloat(cal.def, 'f', 3, 64),
		"millis", formatMillis(time.Since(calStart)))
	return cal, nil
}

// probeCost answers a single comp_cost(OP, location) query (§4.1): the
// request carries the op kind, the location, and inline fragment
// definitions — first the output, then the inputs.
func (e *Endpoint) probeCost(req *xmltree.Node) (*xmltree.Node, error) {
	e.met.Counter("endpoint.probe_cost").Inc()
	kindStr, _ := req.Attr("kind")
	locStr, _ := req.Attr("loc")
	var kind core.OpKind
	switch kindStr {
	case "Scan":
		kind = core.OpScan
	case "Combine":
		kind = core.OpCombine
	case "Split":
		kind = core.OpSplit
	case "Write":
		kind = core.OpWrite
	default:
		return nil, &soap.Fault{Code: "soap:Client", String: "unknown op kind " + kindStr}
	}
	loc := core.LocSource
	if locStr == "T" {
		loc = core.LocTarget
	}
	sch := e.backend.Layout().Schema
	var frags []*core.Fragment
	for _, fx := range req.Kids {
		if fx.Name != "fragment" {
			continue
		}
		name, _ := fx.Attr("name")
		var elems []string
		for _, el := range fx.Kids {
			elems = append(elems, el.Text)
		}
		f, err := core.NewFragment(sch, name, elems)
		if err != nil {
			return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
		frags = append(frags, f)
	}
	if len(frags) == 0 {
		return nil, &soap.Fault{Code: "soap:Client", String: "probe without fragments"}
	}
	cost := e.backend.Provider().CompCost(kind, frags[1:], frags[0], loc)
	resp := &xmltree.Node{Name: "ProbeCostResponse"}
	if math.IsInf(cost, 1) {
		resp.SetAttr("cost", "Inf")
	} else {
		resp.SetAttr("cost", strconv.FormatFloat(cost, 'g', -1, 64))
	}
	return resp, nil
}

// deltaStatus answers a DeltaStatus probe: whether this endpoint holds a
// warm delta base for the stream at the given epoch. A cold answer tells
// the agency to ship the full snapshot; delta deliveries that arrive cold
// anyway (the probe raced a restart) fault with xdx:ColdDelta instead.
func (e *Endpoint) deltaStatus(req *xmltree.Node) (*xmltree.Node, error) {
	stream, _ := req.Attr("stream")
	if stream == "" {
		return nil, &soap.Fault{Code: "soap:Client", String: "DeltaStatus without stream"}
	}
	epoch, _ := req.Attr("epoch")
	resp := &xmltree.Node{Name: "DeltaStatusResponse"}
	resp.SetAttr("stream", stream)
	warm := "0"
	if e.deltaWarm(stream, epoch) {
		warm = "1"
	}
	resp.SetAttr("warm", warm)
	return resp, nil
}

// SetDeltaRetention toggles delta-base retention. Off, the endpoint
// answers every DeltaStatus probe cold and retains nothing, so agencies
// always ship full snapshots — a memory knob for targets with many
// streams. On (the default) is required for delta exchanges to engage.
func (e *Endpoint) SetDeltaRetention(on bool) {
	e.deltaMu.Lock()
	e.deltaOff = !on
	if e.deltaOff {
		e.deltaBases = map[string]*deltaBase{}
	}
	e.deltaMu.Unlock()
}

// deltaWarm reports whether a stream's retained base can absorb a delta
// built against the given epoch.
func (e *Endpoint) deltaWarm(stream, epoch string) bool {
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	b := e.deltaBases[stream]
	return b != nil && b.epoch == epoch
}

// deltaBaseFor returns a stream's retained snapshot when its epoch
// matches, else nil.
func (e *Endpoint) deltaBaseFor(stream, epoch string) map[string]*core.Instance {
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	if b := e.deltaBases[stream]; b != nil && b.epoch == epoch {
		return b.out
	}
	return nil
}

// storeDeltaBase retains a stream's just-executed snapshot as the base
// the next delta patches against.
func (e *Endpoint) storeDeltaBase(stream, epoch string, out map[string]*core.Instance) {
	e.deltaMu.Lock()
	if !e.deltaOff {
		e.deltaBases[stream] = &deltaBase{epoch: epoch, out: out}
	}
	e.deltaMu.Unlock()
}

// clearBackend drops the backend's stored rows before a stream-tagged
// exchange writes its snapshot; backends that cannot clear keep their
// append semantics.
func (e *Endpoint) clearBackend() {
	if c, ok := e.backend.(Clearer); ok {
		c.Clear()
	}
}

// scanByElems resolves a plan fragment to this system's layout fragment by
// element set, so plans need not share pointers with the store.
func (e *Endpoint) scanByElems(f *core.Fragment) (*core.Instance, error) {
	for _, lf := range e.backend.Layout().Fragments {
		if lf.SameElems(f) {
			in, err := e.backend.Scan(lf)
			if err != nil {
				return nil, err
			}
			return &core.Instance{Frag: f, Records: in.Records}, nil
		}
	}
	return nil, fmt.Errorf("endpoint %s: no layout fragment matching %q", e.Name, f.Name)
}

// sourceScan resolves the scan an ExecuteSource request's slice runs
// over: a compiled pushdown filter (the filter attribute, §3.2's service
// arguments generalized to comparisons) when the request carries one —
// the system "filters the data accordingly and provides the relevant
// pieces" — plain layout scans otherwise.
func (e *Endpoint) sourceScan(req *xmltree.Node) (func(*core.Fragment) (*core.Instance, error), error) {
	if expr, ok := req.Attr("filter"); ok && expr != "" {
		f, err := core.CompileFilter(expr, e.backend.Layout().Schema)
		if err != nil {
			return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
		// A filter whose path lies outside this layout's root fragment can
		// never match a root record; fault loudly rather than serve an
		// exchange that silently shipped nothing.
		if err := f.CheckRoot(e.backend.Layout()); err != nil {
			return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
		}
		e.met.Counter("endpoint.source.filtered").Inc()
		return e.filteredScan(f.Predicate())
	}
	return e.scanByElems, nil
}

// filteredScan materializes the whole layout once, trims it consistently
// to the root records keep accepts, and serves program Scans from the
// trimmed instances.
func (e *Endpoint) filteredScan(keep func(*xmltree.Node) bool) (func(*core.Fragment) (*core.Instance, error), error) {
	layout := e.backend.Layout()
	sources := make(map[string]*core.Instance, layout.Len())
	for _, f := range layout.Fragments {
		in, err := e.backend.Scan(f)
		if err != nil {
			return nil, err
		}
		sources[f.Name] = in
	}
	kept, err := core.FilterSources(layout, sources, keep)
	if err != nil {
		return nil, err
	}
	return func(f *core.Fragment) (*core.Instance, error) {
		for _, in := range kept {
			if in.Frag.SameElems(f) {
				return &core.Instance{Frag: f, Records: in.Records}, nil
			}
		}
		return nil, fmt.Errorf("endpoint %s: no layout fragment matching %q", e.Name, f.Name)
	}, nil
}

func decodeProgramChild(req *xmltree.Node, layout *core.Fragmentation) (*core.Graph, core.Assignment, error) {
	for _, k := range req.Kids {
		if k.Name == "program" {
			return wire.DecodeProgram(k, layout.Schema)
		}
	}
	return nil, nil, &soap.Fault{Code: "soap:Client", String: "missing program"}
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
