package bench

import (
	"bytes"
	"fmt"
	"time"

	"xdx/internal/core"
	"xdx/internal/netsim"
	"xdx/internal/publish"
	"xdx/internal/relstore"
	"xdx/internal/shred"
	"xdx/internal/wire"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// Options tune the real-measurement experiments.
type Options struct {
	// Sizes are the document sizes in bytes; the paper uses 2.5, 12.5 and
	// 25 MB. Defaults to those three.
	Sizes []int64
	// Seed drives document generation.
	Seed int64
	// Link models the WAN between the systems. The zero value asks Measure
	// to calibrate a link that preserves the paper's communication-to-
	// processing proportion on this machine (their 25 MB transfer took
	// ~1.8x their MF publish time); the in-memory store is orders of
	// magnitude faster than their MySQL setup, so a fixed 160 KB/s link
	// would otherwise drown every processing effect.
	Link netsim.Link
	// Repeat measures every timed phase this many times and keeps the
	// minimum (0 = once). The phases are sub-millisecond on small
	// documents, where a single scheduler hiccup can invert the MF/LF
	// orderings the paper's tables rest on; the minimum is the standard
	// noise-robust estimator for shape assertions. Defaults to once so
	// end-to-end benchmarks keep their cost.
	Repeat int
}

func (o Options) withDefaults() Options {
	if len(o.Sizes) == 0 {
		o.Sizes = []int64{2_500_000, 12_500_000, 25_000_000}
	}
	if o.Repeat < 1 {
		o.Repeat = 1
	}
	return o
}

// commToPublishRatio is the paper's observed proportion between shipping
// the full document and publishing it from the MF layout (Table 3's
// 158.65s over Table 2's 87.32s).
const commToPublishRatio = 1.8

// Scenario names in paper order.
var Scenarios = []string{"MF->MF", "MF->LF", "LF->MF", "LF->LF"}

type key struct {
	scen string // scenario or layout name
	size int64
}

// Results holds every raw measurement the §5.1–§5.3 tables are built from.
type Results struct {
	Options Options

	// Step1 is the optimized-DE source query time per scenario and size
	// (Table 1).
	Step1 map[key]time.Duration
	// PublishTime and ShredTime per source/target layout ("MF"/"LF") and
	// size (Table 2). ParseTime is included in ShredTime and also reported
	// separately, as in the paper's §5.3 discussion.
	PublishTime map[key]time.Duration
	ShredTime   map[key]time.Duration
	ParseTime   map[key]time.Duration
	// ShipBytesDE is the shipped fragment volume per *target* layout and
	// size; DocBytes the published document size (Table 3).
	ShipBytesDE map[key]int64
	DocBytes    map[key]int64
	// LoadTime and IndexTime per target layout and size (Table 4).
	LoadTime  map[key]time.Duration
	IndexTime map[key]time.Duration
	// Step1OpRows (rows out of Step 1's Combines and Splits), PublishJoins
	// (child rows publishing joined) and LoadRows (rows loaded into the
	// target) are the work behind the Table 1, 2 and 4 times. They repeat
	// exactly where the times do not, so the shape checks assert them.
	Step1OpRows  map[key]int
	PublishJoins map[key]int
	LoadRows     map[key]int
}

// CommDE returns the modeled communication time for the optimized exchange
// with the given target layout.
func (r *Results) CommDE(layout string, size int64) time.Duration {
	return r.Options.Link.TransferTime(r.ShipBytesDE[key{layout, size}])
}

// CommPM returns the modeled communication time for publish&map.
func (r *Results) CommPM(size int64) time.Duration {
	return r.Options.Link.TransferTime(r.DocBytes[key{"doc", size}])
}

// Measure runs all real experiments once and returns the raw numbers.
//
// Substitutions relative to the paper (see DESIGN.md): MySQL is replaced
// by the in-memory relational store, the Internet link by a calibrated
// bandwidth model, and expat by the streaming shredder over the hand-rolled
// tokenizer xmltree.ScanAttrs.
func Measure(opts Options) (*Results, error) {
	opts = opts.withDefaults()
	res := &Results{
		Options:      opts,
		Step1:        map[key]time.Duration{},
		PublishTime:  map[key]time.Duration{},
		ShredTime:    map[key]time.Duration{},
		ParseTime:    map[key]time.Duration{},
		ShipBytesDE:  map[key]int64{},
		DocBytes:     map[key]int64{},
		LoadTime:     map[key]time.Duration{},
		IndexTime:    map[key]time.Duration{},
		Step1OpRows:  map[key]int{},
		PublishJoins: map[key]int{},
		LoadRows:     map[key]int{},
	}
	sch := xmark.Schema()
	layouts := map[string]*core.Fragmentation{
		"MF": core.MostFragmented(sch),
		"LF": core.LeastFragmented(sch),
	}
	if res.Options.Link == (netsim.Link{}) {
		link, err := calibrateLink(opts, layouts["MF"])
		if err != nil {
			return nil, err
		}
		res.Options.Link = link
	}
	for _, size := range opts.Sizes {
		doc := xmark.Generate(xmark.Config{TargetBytes: size, Seed: opts.Seed})
		// Source stores for MF and LF, loaded with the same document.
		stores := map[string]*relstore.Store{}
		for name, layout := range layouts {
			st, err := relstore.NewStore(layout)
			if err != nil {
				return nil, err
			}
			if err := st.LoadDocument(doc); err != nil {
				return nil, err
			}
			stores[name] = st
		}
		// ---- Optimized data exchange, Step 1 (Table 1) and shipped bytes
		// (Table 3). All operations except Writes run at the source, which
		// is what Cost_Based_Optim chose for similar machines (§5.3).
		for _, scen := range Scenarios {
			srcName, tgtName := scen[:2], scen[4:]
			m, err := core.NewMapping(layouts[srcName], layouts[tgtName])
			if err != nil {
				return nil, err
			}
			g, err := core.CanonicalProgram(m)
			if err != nil {
				return nil, err
			}
			a := allAtSource(g)
			var outbound map[string]*core.Instance
			var traces []core.OpTrace
			var step1 time.Duration
			for r := 0; r < opts.Repeat; r++ {
				start := time.Now()
				outbound, traces, err = core.ExecuteSlice(g, sch, a, core.LocSource, core.SliceIO{
					Scan: func(f *core.Fragment) (*core.Instance, error) {
						return scanByElems(stores[srcName], f)
					},
				})
				if err != nil {
					return nil, fmt.Errorf("bench: %s: %w", scen, err)
				}
				if d := time.Since(start); r == 0 || d < step1 {
					step1 = d
				}
			}
			res.Step1[key{scen, size}] = step1
			for _, tr := range traces {
				if tr.Op.Kind == core.OpCombine || tr.Op.Kind == core.OpSplit {
					res.Step1OpRows[key{scen, size}] += tr.OutRows
				}
			}
			// Shipped bytes depend only on the target layout; record once
			// per target. Fragments travel as sorted feeds ([5, 6]), which
			// is what Table 3 measures.
			if srcName == tgtName {
				res.ShipBytesDE[key{tgtName, size}] = wire.ShipmentFeedBytes(outbound)
			}
		}
		// ---- Publish&map: publish (Table 2, first value), document size
		// (Table 3), shred (Table 2, second value), load and index
		// (Table 4).
		var docBuf bytes.Buffer
		for _, srcName := range []string{"MF", "LF"} {
			var pubTime time.Duration
			for r := 0; r < opts.Repeat; r++ {
				docBuf.Reset()
				pres, err := publish.Publish(stores[srcName], &docBuf)
				if err != nil {
					return nil, err
				}
				if d := pres.QueryTime + pres.TagTime; r == 0 || d < pubTime {
					pubTime = d
				}
				res.DocBytes[key{"doc", size}] = pres.Bytes
				res.PublishJoins[key{srcName, size}] = pres.JoinedRows
			}
			res.PublishTime[key{srcName, size}] = pubTime
		}
		// Parse-only time, reported separately in §5.3.
		var parseTime time.Duration
		for r := 0; r < opts.Repeat; r++ {
			pStart := time.Now()
			if err := xmltree.ScanAttrs(bytes.NewReader(docBuf.Bytes()), xmltree.FuncHandler{}); err != nil {
				return nil, err
			}
			if d := time.Since(pStart); r == 0 || d < parseTime {
				parseTime = d
			}
		}
		res.ParseTime[key{"doc", size}] = parseTime
		for _, tgtName := range []string{"MF", "LF"} {
			var shredTime, loadTime, indexTime time.Duration
			for r := 0; r < opts.Repeat; r++ {
				// Full shred (parse + stack + cut).
				sStart := time.Now()
				insts, err := shred.Shred(bytes.NewReader(docBuf.Bytes()), layouts[tgtName])
				if err != nil {
					return nil, err
				}
				if d := time.Since(sStart); r == 0 || d < shredTime {
					shredTime = d
				}
				// Load + index an empty target store (Table 4). Each
				// repetition starts from its own empty store so load and
				// index always do full work.
				tgtStore, err := relstore.NewStore(layouts[tgtName])
				if err != nil {
					return nil, err
				}
				lStart := time.Now()
				for _, f := range layouts[tgtName].Fragments {
					if err := tgtStore.Load(insts[f.Name]); err != nil {
						return nil, err
					}
				}
				if d := time.Since(lStart); r == 0 || d < loadTime {
					loadTime = d
				}
				iStart := time.Now()
				if err := tgtStore.BuildIndexes(); err != nil {
					return nil, err
				}
				if d := time.Since(iStart); r == 0 || d < indexTime {
					indexTime = d
				}
				res.LoadRows[key{tgtName, size}] = tgtStore.Rows()
			}
			res.ShredTime[key{tgtName, size}] = shredTime
			res.LoadTime[key{tgtName, size}] = loadTime
			res.IndexTime[key{tgtName, size}] = indexTime
		}
	}
	return res, nil
}

// calibrateLink measures an MF publish of the largest document and sizes
// the link so that shipping the document costs commToPublishRatio times
// publishing it, preserving the paper's balance between communication and
// processing on much faster hardware.
func calibrateLink(opts Options, mf *core.Fragmentation) (netsim.Link, error) {
	size := opts.Sizes[len(opts.Sizes)-1]
	doc := xmark.Generate(xmark.Config{TargetBytes: size, Seed: opts.Seed})
	st, err := relstore.NewStore(mf)
	if err != nil {
		return netsim.Link{}, err
	}
	if err := st.LoadDocument(doc); err != nil {
		return netsim.Link{}, err
	}
	var sink netsim.Discard
	pres, err := publish.Publish(st, &sink)
	if err != nil {
		return netsim.Link{}, err
	}
	pubSecs := (pres.QueryTime + pres.TagTime).Seconds()
	if pubSecs <= 0 {
		pubSecs = 0.001
	}
	return netsim.Link{BytesPerSecond: float64(pres.Bytes) / (commToPublishRatio * pubSecs)}, nil
}

func allAtSource(g *core.Graph) core.Assignment {
	a := core.NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == core.OpWrite {
			a[op.ID] = core.LocTarget
		} else {
			a[op.ID] = core.LocSource
		}
	}
	return a
}

func scanByElems(st *relstore.Store, f *core.Fragment) (*core.Instance, error) {
	for _, lf := range st.Layout.Fragments {
		if lf.SameElems(f) {
			in, err := st.ScanFragment(lf.Name)
			if err != nil {
				return nil, err
			}
			return &core.Instance{Frag: f, Records: in.Records}, nil
		}
	}
	return nil, fmt.Errorf("bench: no layout fragment matching %q", f.Name)
}
