package wire

import (
	"bytes"
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
		x, err := EncodeShipmentCodec(out, sch, Codec{})
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
		if err := StreamShipmentCodec(&buf, out, sch, Codec{}); err != nil {
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

// BenchmarkShipmentCodecParallel runs the compute-heaviest codec
// (bin+flate: binary packing plus per-chunk DEFLATE) both ways, each chunk
// rendered by the emitting goroutine and parsed by the scanning one as its
// close tag arrives. The name is the one scripts/alloc_smoke.sh gates.
func BenchmarkShipmentCodecParallel(b *testing.B) {
	sch, out, lookup := auctionShipment(b)
	codec := Codec{Kind: CodecBin, Flate: true}
	var buf bytes.Buffer
	var wireLen int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := StreamShipmentCodec(&buf, out, sch, codec); err != nil {
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

// BenchmarkShipmentEncodeTree / Stream isolate the send half, which is the
// hot path for a source endpoint.
func BenchmarkShipmentEncodeTree(b *testing.B) {
	sch, out, _ := auctionShipment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := EncodeShipmentCodec(out, sch, Codec{})
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
		if err := StreamShipmentCodec(&buf, out, sch, Codec{}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkTokenizeShipment is the XML tokenizer alone over the shipment
// an LF→MF exchange of the 2.5 MB XMark document ships in the xml codec:
// the MF instances, streamed, scanned with a handler that keeps nothing
// and takes text as bytes, as the shipment decoder does.
// It is the target's single-goroutine parse of its request, with record
// building and loading left out; MB/s is the tokenizer's throughput.
func BenchmarkTokenizeShipment(b *testing.B) {
	sch := xmark.Schema()
	doc := xmark.Generate(xmark.Config{TargetBytes: 2_500_000, Seed: 1})
	out, err := core.FromDocument(core.MostFragmented(sch), doc)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := StreamShipmentCodec(&buf, out, sch, Codec{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), nopScan{}); err != nil {
			b.Fatal(err)
		}
	}
}

// nopScan is an xmltree.AttrHandler that keeps nothing, text bytes included.
type nopScan struct{ xmltree.FuncHandler }

func (nopScan) TextBytes([]byte) error { return nil }
