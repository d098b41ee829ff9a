package xdx

// One testing.B benchmark per table and figure of the paper's evaluation
// (§5). Benchmarks run on reduced document sizes so `go test -bench=.`
// completes quickly; cmd/xdxbench regenerates the tables at the paper's
// full 2.5/12.5/25 MB sizes.

import (
	"bytes"
	"fmt"
	"testing"

	"xdx/internal/bench"
	"xdx/internal/core"
	"xdx/internal/publish"
	"xdx/internal/relstore"
	"xdx/internal/shred"
	"xdx/internal/sim"
	"xdx/internal/wire"
	"xdx/internal/xmark"
)

const benchDocBytes = 250_000

func benchLayout(b *testing.B, name string) *core.Fragmentation {
	b.Helper()
	sch := xmark.Schema()
	switch name {
	case "MF":
		return core.MostFragmented(sch)
	case "LF":
		return core.LeastFragmented(sch)
	}
	b.Fatalf("unknown layout %q", name)
	return nil
}

func benchStore(b *testing.B, layout *core.Fragmentation) *relstore.Store {
	b.Helper()
	doc := xmark.Generate(xmark.Config{TargetBytes: benchDocBytes, Seed: 1})
	st, err := relstore.NewStore(layout)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.LoadDocument(doc); err != nil {
		b.Fatal(err)
	}
	return st
}

// benchStep1 measures Table 1's Step 1: executing the optimized exchange's
// source-side queries.
func benchStep1(b *testing.B, srcName, tgtName string) {
	sch := xmark.Schema()
	layouts := map[string]*core.Fragmentation{
		"MF": core.MostFragmented(sch),
		"LF": core.LeastFragmented(sch),
	}
	src := layouts[srcName]
	tgt := layouts[tgtName]
	st := benchStore(b, src)
	m, err := core.NewMapping(src, tgt)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.CanonicalProgram(m)
	if err != nil {
		b.Fatal(err)
	}
	a := core.NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == core.OpWrite {
			a[op.ID] = core.LocTarget
		} else {
			a[op.ID] = core.LocSource
		}
	}
	scan := func(f *core.Fragment) (*core.Instance, error) {
		for _, lf := range src.Fragments {
			if lf.SameElems(f) {
				in, err := st.ScanFragment(lf.Name)
				if err != nil {
					return nil, err
				}
				return &core.Instance{Frag: f, Records: in.Records}, nil
			}
		}
		return nil, fmt.Errorf("no fragment %q", f.Name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ExecuteSlice(g, sch, a, core.LocSource, core.SliceIO{Scan: scan}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_MFtoMF(b *testing.B) { benchStep1(b, "MF", "MF") }
func BenchmarkTable1_MFtoLF(b *testing.B) { benchStep1(b, "MF", "LF") }
func BenchmarkTable1_LFtoMF(b *testing.B) { benchStep1(b, "LF", "MF") }
func BenchmarkTable1_LFtoLF(b *testing.B) { benchStep1(b, "LF", "LF") }

// Table 2, first value: publishing the full document at the source.
func benchPublish(b *testing.B, srcName string) {
	st := benchStore(b, benchLayout(b, srcName))
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := publish.Publish(st, &buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkTable2_Publish_MF(b *testing.B) { benchPublish(b, "MF") }
func BenchmarkTable2_Publish_LF(b *testing.B) { benchPublish(b, "LF") }

// Table 2, second value: parsing and shredding the document at the target.
func benchShred(b *testing.B, tgtName string) {
	st := benchStore(b, benchLayout(b, "MF"))
	var buf bytes.Buffer
	if _, err := publish.Publish(st, &buf); err != nil {
		b.Fatal(err)
	}
	tgt := benchLayout(b, tgtName)
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shred.Shred(bytes.NewReader(buf.Bytes()), tgt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Shred_MF(b *testing.B) { benchShred(b, "MF") }
func BenchmarkTable2_Shred_LF(b *testing.B) { benchShred(b, "LF") }

// Table 3: sizing the shipped fragments (sorted-feed format).
func benchShipBytes(b *testing.B, layoutName string) {
	layout := benchLayout(b, layoutName)
	st := benchStore(b, layout)
	m, err := core.NewMapping(layout, layout)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.CanonicalProgram(m)
	if err != nil {
		b.Fatal(err)
	}
	a := core.NewAssignment(g)
	for _, op := range g.Ops {
		if op.Kind == core.OpWrite {
			a[op.ID] = core.LocTarget
		} else {
			a[op.ID] = core.LocSource
		}
	}
	scan := func(f *core.Fragment) (*core.Instance, error) {
		in, err := st.ScanFragment(f.Name)
		if err != nil {
			return nil, err
		}
		return &core.Instance{Frag: f, Records: in.Records}, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := core.ExecuteSlice(g, layout.Schema, a, core.LocSource, core.SliceIO{Scan: scan})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(wire.ShipmentFeedBytes(out))
	}
}

func BenchmarkTable3_ShipFeed_MF(b *testing.B) { benchShipBytes(b, "MF") }
func BenchmarkTable3_ShipFeed_LF(b *testing.B) { benchShipBytes(b, "LF") }

// Table 4: loading and indexing the target database.
func benchLoadIndex(b *testing.B, tgtName string, index bool) {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: benchDocBytes, Seed: 1})
	tgt := benchLayout(b, tgtName)
	insts, err := core.FromDocument(tgt, doc)
	if err != nil {
		b.Fatal(err)
	}
	_ = sch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := relstore.NewStore(tgt)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range tgt.Fragments {
			if err := st.Load(insts[f.Name]); err != nil {
				b.Fatal(err)
			}
		}
		if index {
			if err := st.BuildIndexes(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable4_Load_MF(b *testing.B)      { benchLoadIndex(b, "MF", false) }
func BenchmarkTable4_Load_LF(b *testing.B)      { benchLoadIndex(b, "LF", false) }
func BenchmarkTable4_LoadIndex_MF(b *testing.B) { benchLoadIndex(b, "MF", true) }
func BenchmarkTable4_LoadIndex_LF(b *testing.B) { benchLoadIndex(b, "LF", true) }

// Figure 9: end-to-end transfer, optimized exchange vs publish&map.
func BenchmarkFigure9_EndToEnd(b *testing.B) {
	opts := bench.Options{Sizes: []int64{100_000}, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Measure(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 10 and 11: the simulator comparison.
func benchFigureSim(b *testing.B, targetSpeed float64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(sim.Config{Seed: int64(i), TargetSpeed: targetSpeed})
		if _, err := s.CompareWithPublish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10_EqualSystems(b *testing.B) { benchFigureSim(b, 1) }
func BenchmarkFigure11_FastTarget(b *testing.B)   { benchFigureSim(b, 10) }

// Table 5 and the §5.4.2 runtime comparison: exhaustive vs greedy
// optimization on the 31-node DTD.
func table5Mapping(b *testing.B, seed int64) (*core.Mapping, *core.Model) {
	b.Helper()
	scn := sim.New(sim.Config{Depth: 2, Fanout: 5, FragsPerSide: 6, SourceSpeed: 5, TargetSpeed: 1, Seed: seed})
	m, err := core.NewMapping(scn.Source, scn.Target)
	if err != nil {
		b.Fatal(err)
	}
	return m, scn.Model
}

func BenchmarkTable5_OptimizerExhaustive(b *testing.B) {
	m, model := table5Mapping(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Optimal(m, model); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5_OptimizerGreedy(b *testing.B) {
	m, model := table5Mapping(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Greedy(m, model); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5_FullRow(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Depth: 2, Fanout: 5, FragsPerSide: 6, SourceSpeed: 5, TargetSpeed: 1, Seed: int64(i)}
		if _, err := sim.EvaluateGreedy(cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}
