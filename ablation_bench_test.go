package xdx

// Ablation benchmarks for the design choices DESIGN.md calls out:
//   - program execution (the one batch executor);
//   - combine-ordering strategy (canonical vs greedy vs exhaustive);
//   - shipment format (tagged XML with join keys vs sorted feeds);
//   - placement algorithm (greedy vs exhaustive) at growing fragment
//     counts.

import (
	"fmt"
	"testing"

	"xdx/internal/core"
	"xdx/internal/netsim"
	"xdx/internal/sim"
	"xdx/internal/wire"
	"xdx/internal/xmark"
)

func ablationSetup(b *testing.B) (*core.Mapping, map[string]*core.Instance) {
	b.Helper()
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 200_000, Seed: 3})
	src := core.MostFragmented(sch)
	tgt := core.LeastFragmented(sch)
	m, err := core.NewMapping(src, tgt)
	if err != nil {
		b.Fatal(err)
	}
	sources, err := core.FromDocument(src, doc)
	if err != nil {
		b.Fatal(err)
	}
	return m, sources
}

func freshSources(b *testing.B, m *core.Mapping, seed int64) map[string]*core.Instance {
	b.Helper()
	doc := xmark.Generate(xmark.Config{TargetBytes: 200_000, Seed: seed})
	sources, err := core.FromDocument(m.Source, doc)
	if err != nil {
		b.Fatal(err)
	}
	return sources
}

func BenchmarkAblation_ExecuteSequential(b *testing.B) {
	m, _ := ablationSetup(b)
	g, err := core.CanonicalProgram(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src := freshSources(b, m, 3)
		b.StartTimer()
		if _, err := core.Execute(g, m.Source.Schema, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_OrderingCanonical(b *testing.B) {
	m, _ := ablationSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CanonicalProgram(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_OrderingGreedy(b *testing.B) {
	m, _ := ablationSetup(b)
	scn := sim.New(sim.Config{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyProgram(m, scn.Provider); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShipCodec serializes the same auction shipment under one codec and
// layout, reporting the wire size alongside throughput so the three codecs
// can be read as one size/speed table (EXPERIMENTS.md "wire formats").
func benchShipCodec(b *testing.B, layout *core.Fragmentation, codec wire.Codec) {
	b.Helper()
	sch := layout.Schema
	doc := xmark.Generate(xmark.Config{TargetBytes: 200_000, Seed: 3})
	sources, err := core.FromDocument(layout, doc)
	if err != nil {
		b.Fatal(err)
	}
	out := map[string]*core.Instance{}
	for name, in := range sources {
		out["0:"+name] = in
	}
	var wireBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink netsim.Discard
		if err := wire.StreamShipmentCodec(&sink, out, sch, codec); err != nil {
			b.Fatal(err)
		}
		wireBytes = sink.N
		b.SetBytes(wireBytes)
	}
	b.ReportMetric(float64(wireBytes), "wire-bytes/op")
}

// benchShipLayouts runs one codec over both reference layouts: MF (many
// small flat fragments) and LF (few deep fragments).
func benchShipLayouts(b *testing.B, codec wire.Codec) {
	sch := xmark.Schema()
	b.Run("MF", func(b *testing.B) { benchShipCodec(b, core.MostFragmented(sch), codec) })
	b.Run("LF", func(b *testing.B) { benchShipCodec(b, core.LeastFragmented(sch), codec) })
}

func BenchmarkAblation_ShipFormatXML(b *testing.B) {
	benchShipLayouts(b, wire.Codec{Kind: wire.CodecXML})
}

func BenchmarkAblation_ShipFormatBin(b *testing.B) {
	benchShipLayouts(b, wire.Codec{Kind: wire.CodecBin})
}

func BenchmarkAblation_ShipFormatBinFlate(b *testing.B) {
	benchShipLayouts(b, wire.Codec{Kind: wire.CodecBin, Flate: true})
}

func benchPlacement(b *testing.B, frags int, exhaustive bool) {
	scn := sim.New(sim.Config{Depth: 2, Fanout: 4, FragsPerSide: frags, Seed: 1})
	m, err := core.NewMapping(scn.Source, scn.Target)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.CanonicalProgram(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if exhaustive {
			if _, _, err := core.MinMaxPlacement(g, scn.Model); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := core.GreedyPlacement(g, scn.Model); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblation_Placement(b *testing.B) {
	for _, frags := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("greedy-%dfrags", frags), func(b *testing.B) { benchPlacement(b, frags, false) })
		b.Run(fmt.Sprintf("exhaustive-%dfrags", frags), func(b *testing.B) { benchPlacement(b, frags, true) })
	}
}
