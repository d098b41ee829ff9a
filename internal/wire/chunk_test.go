package wire

import (
	"bytes"
	"reflect"
	"testing"

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
// first chunk, down to an empty tail.
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
				if err := EmitShipment(sw, outbound(out)); err != nil {
					t.Fatal(err)
				}
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s size=%d from=%d: self-chunked bytes differ from ChunkShipment+EmitChunk:\n%s\nwant\n%s", name, size, from, buf.Bytes(), want)
				}
			}
		}
	}
}

// buildCounter is an instance that notes every range a Build asks for.
type buildCounter struct {
	*core.Instance
	built [][2]int
}

func (c *buildCounter) Build(dst []*xmltree.Node, i, j int, a *xmltree.Arena) ([]*xmltree.Node, error) {
	c.built = append(c.built, [2]int{i, j})
	return c.Instance.Build(dst, i, j, a)
}

// TestResumeBuildsNoSkippedChunk: a writer resuming at chunk from builds
// only the records of the chunks it writes, each once, and writes byte for
// byte the tail ChunkShipment + EmitChunk render.
func TestResumeBuildsNoSkippedChunk(t *testing.T) {
	sch, out, _ := chunkedFixture(t)
	const size = 7
	chunks := reliable.ChunkShipment(out, size)
	n := int64(len(chunks))
	for _, name := range Codecs() {
		codec, _ := ParseCodec(name)
		for _, from := range []int64{0, 1, n / 2, n - 1, n} {
			want := map[string][][2]int{}
			lo := map[string]int{}
			for _, c := range chunks {
				if c.Seq >= from {
					want[c.Key] = append(want[c.Key], [2]int{lo[c.Key], lo[c.Key] + len(c.Recs)})
				}
				lo[c.Key] += len(c.Recs)
			}
			counted := map[string]*buildCounter{}
			ship := map[string]core.Outbound{}
			for key, in := range out {
				counted[key] = &buildCounter{Instance: in}
				ship[key] = core.Outbound{Frag: in.Frag, Recs: counted[key]}
			}
			var buf bytes.Buffer
			sw := NewShipmentWriterCodec(&buf, sch, codec)
			sw.SetChunk(size, from)
			if err := EmitShipment(sw, ship); err != nil {
				t.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			for key, c := range counted {
				if !reflect.DeepEqual(c.built, want[key]) {
					t.Errorf("%s from=%d: edge %s built ranges %v, want %v", name, from, key, c.built, want[key])
				}
			}
			if tail := parentRender(t, sch, out, codec, size, from); !bytes.Equal(buf.Bytes(), tail) {
				t.Errorf("%s from=%d: resumed bytes differ from ChunkShipment+EmitChunk:\n%s\nwant\n%s", name, from, buf.Bytes(), tail)
			}
		}
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
				if err := EmitShipment(sw, outbound(out)); err != nil {
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

// outbound is an instance map as the outbound records EmitShipment takes.
func outbound(out map[string]*core.Instance) map[string]core.Outbound {
	ship := make(map[string]core.Outbound, len(out))
	for key, in := range out {
		ship[key] = core.Outbound{Frag: in.Frag, Recs: in}
	}
	return ship
}
