package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"xdx/internal/bufpool"
	"xdx/internal/core"
	"xdx/internal/reliable"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// relayScan feeds a bare <shipment> document's chunk elements to a relay,
// the way the agency's response handler does.
type relayScan struct {
	r     *Relay
	depth int
}

func (s *relayScan) StartElement(string, []xmltree.Attr) error { s.depth++; return nil }
func (s *relayScan) Text(string) error                         { return nil }
func (s *relayScan) EndElement(string) error                   { s.depth--; return nil }
func (s *relayScan) EndRaw(string) error                       { return s.r.EndChunk() }
func (s *relayScan) StartRaw(string) io.Writer {
	if s.depth != 1 {
		return nil
	}
	return s.r.BeginChunk()
}

func captureShipment(shipment []byte) (*Relay, error) {
	r := NewRelay()
	if err := xmltree.ScanAttrs(bytes.NewReader(shipment), &relayScan{r: r}); err != nil {
		r.Release()
		return nil, err
	}
	return r, nil
}

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

// parentRender is what the agency used to send for a decoded shipment:
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
// what ChunkShipment + EmitChunk render for the same shipment, and accounts
// its tree-codec size on the way.
func TestSetChunkMatchesChunkShipment(t *testing.T) {
	sch, out, _ := chunkedFixture(t)
	for _, name := range Codecs() {
		codec, err := ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 7, 64} {
			want := parentRender(t, sch, out, codec, size, 0)
			var buf bytes.Buffer
			sw := NewShipmentWriterCodec(&buf, sch, codec)
			sw.SetChunk(size)
			if err := EmitShipment(sw, out); err != nil {
				t.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s size=%d: self-chunked bytes differ from ChunkShipment+EmitChunk", name, size)
			}
			if got := sw.PayloadBytes(); got != ShipmentBytes(out) {
				t.Errorf("%s size=%d: PayloadBytes = %d, want %d", name, size, got, ShipmentBytes(out))
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
// records, then tombstones whose seq argument it ignores — renders byte for byte what an
// explicitly numbered writer renders, tombstones sequenced after the last
// record chunk.
func TestSetChunkNumbersTombstones(t *testing.T) {
	sch, out, _ := chunkedFixture(t)
	tombs := [][2]string{{"0:feat", "f7"}, {"9:gone", "g1"}}
	for _, name := range Codecs() {
		codec, _ := ParseCodec(name)
		for _, size := range []int{1, 64} {
			var want, got bytes.Buffer
			sw := NewShipmentWriterCodec(&want, sch, codec)
			sw.SetDelta(true)
			chunks := reliable.ChunkShipment(out, size)
			for _, c := range chunks {
				if err := sw.EmitChunk(c.Key, c.Frag, c.Recs, c.Seq); err != nil {
					t.Fatal(err)
				}
			}
			for i, tb := range tombs {
				if err := sw.EmitTombstones(tb[0], []string{tb[1]}, int64(len(chunks)+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			sw = NewShipmentWriterCodec(&got, sch, codec)
			sw.SetDelta(true)
			sw.SetChunk(size)
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
				t.Errorf("%s size=%d: self-numbered delta differs:\n%s\nwant\n%s", name, size, got.String(), want.String())
			}
		}
	}
}

// TestRelayForwardsVerbatim: what a relay captured it writes back byte for
// byte, from any checkpoint, across buffer boundaries, in both shipment
// flavours.
func TestRelayForwardsVerbatim(t *testing.T) {
	sch, out, _ := chunkedFixture(t)
	// Grow the shipment past several relay buffers.
	pad := strings.Repeat("x", 4<<10)
	for i := 0; i < 600; i++ {
		id := fmt.Sprintf("9.%d", i)
		out["1:feat"].Records = append(out["1:feat"].Records, &xmltree.Node{Name: "Feature", ID: id, Parent: "l1",
			Kids: []*xmltree.Node{{Name: "FeatureID", ID: id + ".1", Parent: id, Text: pad}}})
	}
	for _, name := range Codecs() {
		codec, _ := ParseCodec(name)
		full := parentRender(t, sch, out, codec, 5, 0)
		r, err := captureShipment(full)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if codec.Flate == false && len(r.segs) < 3 {
			t.Fatalf("%s: fixture fills %d relay buffers, want several", name, len(r.segs))
		}
		n := int64(r.Len())
		if want := len(reliable.ChunkShipment(out, 5)); int(n) != want {
			t.Fatalf("%s: relay holds %d chunks, want %d", name, n, want)
		}
		for _, next := range []int64{0, 1, n / 2, n - 1, n, n + 3} {
			var got bytes.Buffer
			if err := r.WriteShipment(&got, next, false); err != nil {
				t.Fatal(err)
			}
			if want := parentRender(t, sch, out, codec, 5, next); !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: resume from %d of %d differs from a writer emitting those chunks", name, next, n)
			}
		}
		var d, dEmpty bytes.Buffer
		r.WriteShipment(&d, 0, true)
		r.WriteShipment(&dEmpty, n, true)
		if want := `<shipment delta="1">` + strings.TrimPrefix(string(full), "<shipment>"); d.String() != want {
			t.Errorf("%s: delta shipment differs beyond its open tag", name)
		}
		if dEmpty.String() != `<shipment delta="1"/>` {
			t.Errorf("%s: drained delta shipment = %q", name, dEmpty.String())
		}
		r.Reset()
		if r.Len() != 0 || len(r.segs) != 0 {
			t.Errorf("%s: reset relay still holds %d chunks", name, r.Len())
		}
		r.Release()
	}
}

// TestRelayRejects: chunks that are unsequenced, out of order or oversized
// are typed protocol errors, and the decoder refuses an oversized raw
// payload the same way.
func TestRelayRejects(t *testing.T) {
	for _, doc := range []string{
		`<shipment><instance edge="k" frag="f"/></shipment>`,
		`<shipment><instance edge="k" frag="f" seq="1"/></shipment>`,
		`<shipment><instance seq="0"/><instance seq="2"/></shipment>`,
		`<shipment><instance seq="0"/><instance seq="0"/></shipment>`,
		`<shipment><instance seq=""/></shipment>`,
		`<shipment><instance edge=' seq="0"'/></shipment>`,
		`<shipment><instance seq="-0"/></shipment>`,
	} {
		if _, err := captureShipment([]byte(doc)); !errors.Is(err, ErrChunkOrder) {
			t.Errorf("%s: err = %v, want ErrChunkOrder", doc, err)
		}
	}
	r, err := captureShipment([]byte(`<shipment><instance a='seq="9"' seq = '0' edge=">"/><tombstones edge="k" seq="1"><d ID="1"/></tombstones></shipment>`))
	if err != nil || r.Len() != 2 {
		t.Fatalf("well-sequenced chunks refused: %v", err)
	}
	r.Release()

	big := `<shipment><instance edge="k" frag="f" seq="0" format="bin">` + strings.Repeat("A", MaxChunkBytes+1) + `</instance></shipment>`
	if _, err := captureShipment([]byte(big)); !errors.Is(err, ErrChunkTooLarge) {
		t.Errorf("oversized chunk: relay err = %v, want ErrChunkTooLarge", err)
	}
	sch, f, _ := parallelFixture(t)
	_, err = ReadShipment(strings.NewReader(big), sch, func(string) *core.Fragment { return f })
	if !errors.Is(err, ErrChunkTooLarge) {
		t.Errorf("oversized chunk: decoder err = %v, want ErrChunkTooLarge", err)
	}
}
