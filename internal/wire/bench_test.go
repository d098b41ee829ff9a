package wire

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmark"
	"xdx/internal/xmltree"
)

// auctionShipment builds the benchmark workload from ISSUE acceptance: the
// XMark auction document fragmented by the most aggressive fragmentation,
// yielding a realistic multi-instance shipment (~200 KB of records).
func auctionShipment(b *testing.B) (*schema.Schema, map[string]*core.Instance, func(string) *core.Fragment) {
	b.Helper()
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 200_000, Seed: 3})
	src := core.MostFragmented(sch)
	out, err := core.FromDocument(src, doc)
	if err != nil {
		b.Fatal(err)
	}
	lookup := func(name string) *core.Fragment {
		for _, f := range src.Fragments {
			if f.Name == name {
				return f
			}
		}
		return nil
	}
	return sch, out, lookup
}

// BenchmarkShipmentCodecTree is the baseline wire path: materialize the
// shipment tree (cloning every record to strip interior IDs), serialize it,
// parse it back, and decode instances out of the tree.
func BenchmarkShipmentCodecTree(b *testing.B) {
	sch, out, lookup := auctionShipment(b)
	var wireLen int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := EncodeShipmentAuto(out, sch, false)
		if err != nil {
			b.Fatal(err)
		}
		data := xmltree.Marshal(x, xmltree.WriteOptions{EmitAllIDs: true})
		wireLen = len(data)
		parsed, err := xmltree.Parse(strings.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		in, err := DecodeShipmentAuto(parsed, sch, lookup)
		if err != nil {
			b.Fatal(err)
		}
		if len(in) != len(out) {
			b.Fatalf("decoded %d instances, want %d", len(in), len(out))
		}
	}
	b.SetBytes(int64(wireLen))
}

// BenchmarkShipmentCodecStream is the zero-materialization path: records
// stream straight onto the writer and decode straight from SAX events —
// no stripped clones, no envelope tree on either side.
func BenchmarkShipmentCodecStream(b *testing.B) {
	sch, out, lookup := auctionShipment(b)
	var buf bytes.Buffer
	var wireLen int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := StreamShipment(&buf, out, sch, false); err != nil {
			b.Fatal(err)
		}
		wireLen = buf.Len()
		in, err := ReadShipment(bytes.NewReader(buf.Bytes()), sch, lookup)
		if err != nil {
			b.Fatal(err)
		}
		if len(in) != len(out) {
			b.Fatalf("decoded %d instances, want %d", len(in), len(out))
		}
	}
	b.SetBytes(int64(wireLen))
}

// BenchmarkShipmentCodecParallel sweeps the chunk-worker pool over the
// compute-heaviest codec (bin+flate: binary packing plus per-chunk DEFLATE)
// so the GOMAXPROCS scaling of the parallel pipeline is visible in one
// table: w1 is the serial floor, w2/wN show how far concurrent chunk
// rendering and parsing amortize the compression cost.
func BenchmarkShipmentCodecParallel(b *testing.B) {
	sch, out, lookup := auctionShipment(b)
	codec := Codec{Kind: CodecBin, Flate: true}
	widths := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		w := w
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			var buf bytes.Buffer
			var wireLen int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				sw := NewShipmentWriterCodec(&buf, sch, codec)
				sw.SetWorkers(w)
				if err := EmitShipment(sw, out); err != nil {
					b.Fatal(err)
				}
				if err := sw.Close(); err != nil {
					b.Fatal(err)
				}
				wireLen = buf.Len()
				d := NewShipmentDecoder(sch, lookup)
				d.Workers = w
				if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d); err != nil {
					b.Fatal(err)
				}
				in, err := d.Result()
				if err != nil {
					b.Fatal(err)
				}
				if len(in) != len(out) {
					b.Fatalf("decoded %d instances, want %d", len(in), len(out))
				}
			}
			b.SetBytes(int64(wireLen))
		})
	}
}

// BenchmarkShipmentEncodeTree / Stream isolate the send half, which is the
// hot path for a source endpoint.
func BenchmarkShipmentEncodeTree(b *testing.B) {
	sch, out, _ := auctionShipment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := EncodeShipmentAuto(out, sch, false)
		if err != nil {
			b.Fatal(err)
		}
		data := xmltree.Marshal(x, xmltree.WriteOptions{EmitAllIDs: true})
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkShipmentEncodeStream(b *testing.B) {
	sch, out, _ := auctionShipment(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := StreamShipment(&buf, out, sch, false); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}
