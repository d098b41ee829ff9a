package wire

import (
	"bytes"
	"testing"

	"xdx/internal/bufpool"
	"xdx/internal/core"
	"xdx/internal/reliable"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// chunkedFixture is a shipment with several edges, one of them empty, one
// holding more records than a chunk, with XML-special characters in keys
// and texts.
func chunkedFixture(t testing.TB) (*schema.Schema, map[string]*core.Instance, func(string) *core.Fragment) {
	sch, f, chunks := parallelFixture(t)
	out := map[string]*core.Instance{
		`2:feat<&">`: {Frag: f},
		"0:feat":     {Frag: f},
		"1:feat":     {Frag: f, Records: chunks[0][:3]},
	}
	for _, recs := range chunks {
		out["0:feat"].Records = append(out["0:feat"].Records, recs...)
	}
	return sch, out, func(string) *core.Fragment { return f }
}

// parentRender is the explicitly numbered rendering of a shipment:
// reliable.ChunkShipment re-batching, EmitChunk per chunk, from next on.
func parentRender(t testing.TB, sch *schema.Schema, out map[string]*core.Instance, codec Codec, size int, next int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, codec)
	for _, c := range reliable.ChunkShipment(out, size) {
		if c.Seq < next {
			continue
		}
		if err := sw.EmitChunk(c.Key, c.Frag, c.Recs, c.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSetChunkMatchesChunkShipment: a writer that cuts and numbers its own
// chunks over a sorted-key emit renders, for every codec, byte for byte
// what ChunkShipment + EmitChunk render for the same shipment — from any
// first chunk, down to an empty tail — and accounts the whole shipment's
// tree-codec size on the way, skipped chunks included.
func TestSetChunkMatchesChunkShipment(t *testing.T) {
	sch, out, _ := chunkedFixture(t)
	for _, name := range Codecs() {
		codec, err := ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 7, 64} {
			n := int64(len(reliable.ChunkShipment(out, size)))
			for _, from := range []int64{0, 1, n / 2, n - 1, n, n + 3} {
				want := parentRender(t, sch, out, codec, size, from)
				var buf bytes.Buffer
				sw := NewShipmentWriterCodec(&buf, sch, codec)
				sw.SetChunk(size, from)
				if err := EmitShipment(sw, out); err != nil {
					t.Fatal(err)
				}
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s size=%d from=%d: self-chunked bytes differ from ChunkShipment+EmitChunk:\n%s\nwant\n%s", name, size, from, buf.Bytes(), want)
				}
				if got := sw.PayloadBytes(); got != ShipmentBytes(out) {
					t.Errorf("%s size=%d from=%d: PayloadBytes = %d, want %d", name, size, from, got, ShipmentBytes(out))
				}
			}
		}
	}
}

// TestRecordBytesMatchesRender holds the size-only walk to the renderer it
// stands in for, escapes and attributes included.
func TestRecordBytesMatchesRender(t *testing.T) {
	rec := &xmltree.Node{Name: "Order", ID: `o<1>`, Parent: `c&"`, Attrs: []xmltree.Attr{{Name: "k", Value: `v"<`}}, Kids: []*xmltree.Node{
		{Name: "Service", ID: "s", Parent: "o", Kids: []*xmltree.Node{{Name: "ServiceName", ID: "n", Text: `a&b<c>"d"`}}},
		{Name: "Empty", ID: "e"},
		{Name: "Leaf", ID: "dropped", Text: "x"},
	}}
	_, out, _ := chunkedFixture(t)
	recs := append([]*xmltree.Node{rec}, out["0:feat"].Records...)
	var buf bytes.Buffer
	bw := bufpool.Writer(&buf)
	for _, r := range recs {
		streamRecord(bw, r, true)
	}
	bw.Flush()
	bufpool.PutWriter(bw)
	if got := RecordBytes(recs); got != int64(buf.Len()) {
		t.Errorf("RecordBytes = %d, the renderer wrote %d", got, buf.Len())
	}
}

// TestSetChunkNumbersTombstones: a delta through a SetChunk writer — the
// records, then tombstones whose seq argument it ignores — renders byte
// for byte what an explicitly numbered writer renders, tombstones
// sequenced after the last record chunk, from any first chunk.
func TestSetChunkNumbersTombstones(t *testing.T) {
	sch, out, _ := chunkedFixture(t)
	tombs := [][2]string{{"0:feat", "f7"}, {"9:gone", "g1"}}
	for _, name := range Codecs() {
		codec, _ := ParseCodec(name)
		for _, size := range []int{1, 64} {
			chunks := reliable.ChunkShipment(out, size)
			n := int64(len(chunks))
			for _, from := range []int64{0, n - 1, n, n + 1, n + 2} {
				var want, got bytes.Buffer
				sw := NewShipmentWriterCodec(&want, sch, codec)
				sw.SetDelta(true)
				for _, c := range chunks {
					if c.Seq < from {
						continue
					}
					if err := sw.EmitChunk(c.Key, c.Frag, c.Recs, c.Seq); err != nil {
						t.Fatal(err)
					}
				}
				for i, tb := range tombs {
					if seq := n + int64(i); seq >= from {
						if err := sw.EmitTombstones(tb[0], []string{tb[1]}, seq); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
				sw = NewShipmentWriterCodec(&got, sch, codec)
				sw.SetDelta(true)
				sw.SetChunk(size, from)
				if err := EmitShipment(sw, out); err != nil {
					t.Fatal(err)
				}
				for _, tb := range tombs {
					if err := sw.EmitTombstones(tb[0], []string{tb[1]}, 0); err != nil {
						t.Fatal(err)
					}
				}
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s size=%d from=%d: self-numbered delta differs:\n%s\nwant\n%s", name, size, from, got.String(), want.String())
				}
			}
		}
	}
}
