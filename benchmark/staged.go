package main

// The staged replay of the traced run: one exchange's work performed stage
// by stage through each layer's public functions, every call wrapped in a
// span. It yields the per-layer budget rows of ROADMAP item 1 — scan, ops,
// encode, SOAP/HTTP, decode, journal wait + fsync, load, index — on the same
// stores, plan and codec the real exchanges of this run used.
//
// The real exchange crosses two hops (source -> agency -> target) and
// overlaps stages across goroutines; the replay runs each stage once,
// serially, for the target-bound shipment. What it leaves out — the first
// hop's encode/decode, the agency's re-encode, pipe hand-offs, HTTP
// framing, the target's delta patch — shows up as budget.unattributed_ms.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"xdx/internal/core"
	"xdx/internal/durable"
	"xdx/internal/endpoint"
	"xdx/internal/obs"
	"xdx/internal/registry"
	"xdx/internal/reliable"
	"xdx/internal/relstore"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/wsdlx"
	"xdx/internal/xmltree"
)

// stager replays exchanges of one tenant and collects, per metric name,
// one sample per replayed exchange.
type stager struct {
	d    *deployment
	t    *tenant
	plan *registry.Plan
	rec  *recorder

	codec  wire.Codec
	lookup func(string) *core.Fragment

	// sink is a no-op SOAP endpoint on loopback: what the transport costs
	// when neither side does any work on the payload.
	sink *soap.Client
	// store is the replay's own target, so the deployment's is left as the
	// last real exchange wrote it (the oracle checks that one).
	store   *relstore.Store
	journal *durable.Journal
	met     *obs.Registry // wire.* and wal.* of the replay alone

	// base is the previous replay's shipment hashes: the delta workload's
	// reconciliation index.
	base map[string]reliable.EdgeHashes

	samples map[string][]float64
	cur     struct {
		root int
		xid  string
		sum  float64
	}
}

func newStager(d *deployment, rec *recorder) (*stager, error) {
	t := d.tenants[0]
	plan, err := d.agency.Plan(t.service, d.planOptions())
	if err != nil {
		return nil, err
	}
	s := &stager{d: d, t: t, plan: plan, rec: rec, met: obs.NewRegistry(), samples: map[string][]float64{}}
	if s.codec, err = wire.ParseCodec(d.w.Codec); err != nil {
		return nil, err
	}
	frags := map[string]*core.Fragment{}
	for _, op := range plan.Program.Ops {
		frags[op.Out.Name] = op.Out
		for _, p := range op.Parts {
			frags[p.Name] = p
		}
	}
	for _, e := range plan.Program.Edges {
		frags[e.Frag.Name] = e.Frag
	}
	s.lookup = func(name string) *core.Fragment { return frags[name] }

	srv := soap.NewServer()
	srv.HandleStream("Sink", func(soap.Header, []xmltree.Attr) (xmltree.AttrHandler, soap.RespondFunc, error) {
		return discard{}, func(w io.Writer) error {
			_, err := io.WriteString(w, "<SinkResponse/>")
			return err
		}, nil
	})
	srv.Handle("Ping", func(*xmltree.Node) (*xmltree.Node, error) {
		return &xmltree.Node{Name: "PingResponse"}, nil
	})
	url, err := d.serve(srv)
	if err != nil {
		return nil, err
	}
	s.sink = &soap.Client{URL: url}

	if s.store, err = relstore.NewStore(d.tgtFr); err != nil {
		return nil, err
	}
	if d.w.Journal {
		s.journal, err = durable.OpenJournal(d.walDir+"-staged", durable.Options{
			Fsync: durable.FsyncBatch, SnapshotEvery: 256, Met: s.met,
		})
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, func() {
			s.journal.Close()
			os.RemoveAll(d.walDir + "-staged")
		})
	}
	return s, nil
}

// discard is the sink's payload handler.
type discard struct{}

func (discard) StartElement(string, []xmltree.Attr) error { return nil }
func (discard) Text(string) error                         { return nil }
func (discard) EndElement(string) error                   { return nil }

// stage runs fn inside a span under the current exchange's root and files
// its duration under metric.
func (s *stager) stage(metric string, fn func() error) error {
	id := s.rec.start(metric, s.cur.xid, s.cur.root)
	err := fn()
	ms := s.rec.end(id)
	s.samples[metric] = append(s.samples[metric], ms)
	s.cur.sum += ms
	if err != nil {
		return fmt.Errorf("staged %s: %w", metric, err)
	}
	return nil
}

func (s *stager) note(metric string, v float64) {
	s.samples[metric] = append(s.samples[metric], v)
}

// replay stages one exchange. keep=false runs it as a warm-up (for delta,
// the round that primes the reconciliation base) and files nothing.
func (s *stager) replay(i int, keep bool) error {
	d, g, a := s.d, s.plan.Program, s.plan.Assign
	if !keep {
		saved := s.samples
		s.samples = map[string][]float64{}
		defer func() { s.samples = saved }()
	}
	if d.w.Delta {
		// Churn and reload the source, as before every real delta exchange.
		if err := d.prepare(s.t); err != nil {
			return err
		}
	}
	s.cur.xid = fmt.Sprintf("%s-staged-%d", d.w.Name, i)
	s.cur.root = s.rec.start("exchange.staged", s.cur.xid, 0)
	s.cur.sum = 0
	defer func() { s.rec.end(s.cur.root) }()

	// relstore: the source layout's tables back into fragment instances.
	scanned := make(map[string]*core.Instance, d.srcFr.Len())
	rows := 0
	if err := s.stage("relstore.scan_ms", func() error {
		for _, f := range d.srcFr.Fragments {
			in, err := s.t.srcStore.ScanFragment(f.Name)
			if err != nil {
				return err
			}
			scanned[f.Name] = in
			rows += in.Rows()
		}
		return nil
	}); err != nil {
		return err
	}
	s.note("relstore.scan_rows", float64(rows))

	// core: the source slice over the pre-scanned instances.
	var outbound map[string]*core.Instance
	var traces []core.OpTrace
	if err := s.stage("core.source_slice_ms", func() (err error) {
		outbound, traces, err = core.ExecuteSlice(g, d.sch, a, core.LocSource, core.SliceIO{
			Scan: func(f *core.Fragment) (*core.Instance, error) {
				for _, lf := range d.srcFr.Fragments {
					if lf.SameElems(f) {
						return &core.Instance{Frag: f, Records: scanned[lf.Name].Records}, nil
					}
				}
				return nil, fmt.Errorf("no layout fragment matching %q", f.Name)
			},
		})
		return err
	}); err != nil {
		return err
	}

	// reliable: the agency's reconciliation, delta exchanges only.
	ship, isDelta := outbound, false
	var dead map[string][]string
	if d.w.Delta {
		var hashes map[string]reliable.EdgeHashes
		if err := s.stage("reliable.hash_ms", func() error {
			hashes, _ = reliable.HashShipment(outbound)
			return nil
		}); err != nil {
			return err
		}
		if s.base != nil {
			var dl *reliable.Delta
			if err := s.stage("reliable.diff_ms", func() error {
				dl = reliable.DiffShipment(outbound, s.base)
				return nil
			}); err != nil {
				return err
			}
			ship, dead, isDelta = dl.Ship, dl.Tombs, true
		}
		s.base = hashes
	}

	// wire: encode the target-bound shipment as the agency does — 64-record
	// sequenced chunks, tombstones last — then decode it as the target does.
	chunks := reliable.ChunkShipment(ship, d.reliab.ChunkSize)
	type tombChunk struct {
		key string
		ids []string
		seq int64
	}
	tombs := make([]tombChunk, 0, len(dead))
	for key, ids := range dead {
		tombs = append(tombs, tombChunk{key: key, ids: ids})
	}
	sort.Slice(tombs, func(i, j int) bool { return tombs[i].key < tombs[j].key })
	for i := range tombs {
		tombs[i].seq = int64(len(chunks) + i)
	}
	var buf bytes.Buffer
	if err := s.stage("wire.encode_ms", func() error {
		sw := wire.NewShipmentWriterCodec(&buf, d.sch, s.codec)
		sw.SetObs(s.met)
		sw.SetDelta(isDelta)
		for _, c := range chunks {
			if err := sw.EmitChunk(c.Key, c.Frag, c.Recs, c.Seq); err != nil {
				sw.Close()
				return err
			}
		}
		for _, tc := range tombs {
			if err := sw.EmitTombstones(tc.key, tc.ids, tc.seq); err != nil {
				sw.Close()
				return err
			}
		}
		return sw.Close()
	}); err != nil {
		return err
	}
	s.note("wire.shipment_bytes", float64(buf.Len()))
	s.note("wire.payload_bytes", float64(wire.ShipmentBytes(ship)))
	s.note("wire.chunks", float64(len(chunks)+len(tombs)))

	// soap: the encoded shipment through a streamed call to a no-op sink.
	if err := s.stage("soap.stream_roundtrip_ms", func() error {
		return s.sink.CallStream("Sink", func(w io.Writer) error {
			if _, err := io.WriteString(w, "<Sink>"); err != nil {
				return err
			}
			if _, err := w.Write(buf.Bytes()); err != nil {
				return err
			}
			_, err := io.WriteString(w, "</Sink>")
			return err
		}, nil)
	}); err != nil {
		return err
	}

	var inbound map[string]*core.Instance
	if err := s.stage("wire.decode_ms", func() (err error) {
		dec := wire.NewShipmentDecoder(d.sch, s.lookup)
		dec.Met = s.met
		if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), dec); err != nil {
			return err
		}
		inbound, err = dec.Result()
		return err
	}); err != nil {
		return err
	}

	// durable: one session's journal traffic under group commit — mint,
	// every chunk submitted asynchronously, one flush, every ticket awaited,
	// end.
	if s.journal != nil {
		if err := s.stage("durable.journal_ms", func() error {
			j, id := s.journal, s.cur.xid
			if err := j.Mint(id); err != nil {
				return err
			}
			tickets := make([]*durable.Pending, 0, len(chunks)+len(tombs))
			for _, c := range chunks {
				p, err := j.ChunkAsync(id, c.Key, c.Frag.Name, c.Seq, c.Recs)
				if err != nil {
					return err
				}
				tickets = append(tickets, p)
			}
			for _, tc := range tombs {
				p, err := j.TombAsync(id, tc.key, tc.seq, tc.ids)
				if err != nil {
					return err
				}
				tickets = append(tickets, p)
			}
			j.Flush()
			for _, p := range tickets {
				if err := p.Err(); err != nil {
					return err
				}
			}
			return j.End(id)
		}); err != nil {
			return err
		}
	}

	// core + relstore: the target slice, then load and index. A delta
	// exchange is stream-tagged: the endpoint patches the delta onto its
	// retained base and replaces the stored snapshot with the full result,
	// so the replay feeds the full shipment here, not the decoded delta.
	targetIn := inbound
	if isDelta {
		targetIn = outbound
	}
	var written []*core.Instance
	var ttraces []core.OpTrace
	if err := s.stage("core.target_slice_ms", func() (err error) {
		_, ttraces, err = core.ExecuteSlice(g, d.sch, a, core.LocTarget, core.SliceIO{
			Inbound: targetIn,
			Write: func(in *core.Instance) error {
				written = append(written, in)
				return nil
			},
		})
		return err
	}); err != nil {
		return err
	}
	s.store.Clear()
	rows = 0
	if err := s.stage("relstore.load_ms", func() error {
		for _, in := range written {
			if err := s.store.Load(in); err != nil {
				return err
			}
			rows += in.Rows()
		}
		return nil
	}); err != nil {
		return err
	}
	s.note("relstore.load_rows", float64(rows))
	if err := s.stage("relstore.index_ms", s.store.BuildIndexes); err != nil {
		return err
	}

	// core's own per-op clocks, both slices.
	byKind := map[core.OpKind]time.Duration{}
	outRows := 0
	for _, tr := range append(traces, ttraces...) {
		byKind[tr.Op.Kind] += tr.Duration
		outRows += tr.OutRows
	}
	for kind, metric := range map[core.OpKind]string{
		core.OpCombine: "core.combine_ms", core.OpSplit: "core.split_ms",
		core.OpScan: "core.scan_op_ms", core.OpWrite: "core.write_op_ms",
	} {
		s.note(metric, ms(byKind[kind]))
	}
	s.note("core.out_rows", float64(outRows))
	s.note("budget.staged_sum_ms", s.cur.sum)
	return nil
}

// control stages the control-plane calls every exchange rests on, n times:
// WSDL parse, mapping, greedy derivation, and — through the live agency —
// a re-Register, the cold plan it forces and the cache hit after it.
func (s *stager) control(n int) error {
	d := s.d
	agency := &soap.Client{URL: d.agencyURL}
	model := core.NewModel((&endpoint.RelBackend{Store: s.t.srcStore, Speed: 1, CanCombine: true}).Provider())
	opts := d.planOptions()
	for i := 0; i < n; i++ {
		s.cur.xid = fmt.Sprintf("%s-control-%d", d.w.Name, i)
		s.cur.root = s.rec.start("control.staged", s.cur.xid, 0)
		var m *core.Mapping
		steps := []struct {
			metric string
			fn     func() error
		}{
			{"wsdlx.parse_ms", func() error {
				_, err := wsdlx.Parse(bytes.NewReader(s.t.tgtWSDL))
				return err
			}},
			{"core.mapping_ms", func() (err error) {
				m, err = core.NewMapping(d.srcFr, d.tgtFr)
				return err
			}},
			{"core.greedy_ms", func() error {
				_, err := core.Greedy(m, model)
				return err
			}},
			{"registry.register_ms", func() error {
				_, err := agency.Call("Register", s.t.tgtRegister)
				return err
			}},
			{"registry.plan_cold_ms", func() error {
				_, err := d.agency.Plan(s.t.service, opts)
				return err
			}},
			{"registry.plan_hit_ms", func() error {
				_, err := d.agency.Plan(s.t.service, opts)
				return err
			}},
			{"soap.empty_call_ms", func() error {
				_, err := s.sink.Call("Ping", &xmltree.Node{Name: "Ping"})
				return err
			}},
		}
		for _, st := range steps {
			if err := s.stage(st.metric, st.fn); err != nil {
				return err
			}
		}
		s.rec.end(s.cur.root)
	}
	return nil
}
