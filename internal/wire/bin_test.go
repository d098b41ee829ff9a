package wire

import (
	"bytes"
	"compress/flate"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

func TestParseCodec(t *testing.T) {
	cases := []struct {
		in   string
		want Codec
		str  string
	}{
		{"", Codec{Kind: CodecXML}, "xml"},
		{"xml", Codec{Kind: CodecXML}, "xml"},
		{"bin", Codec{Kind: CodecBin}, "bin"},
		{"bin+flate", Codec{Kind: CodecBin, Flate: true}, "bin+flate"},
	}
	for _, c := range cases {
		got, err := ParseCodec(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseCodec(%q) = %+v, %v", c.in, got, err)
		}
		if got.String() != c.str {
			t.Errorf("ParseCodec(%q).String() = %q, want %q", c.in, got.String(), c.str)
		}
	}
	// feed was a codec of earlier builds; a peer or flag still naming it
	// must fail at parse time, not ship something else.
	for _, bad := range []string{"gzip", "feed"} {
		if _, err := ParseCodec(bad); err == nil {
			t.Errorf("ParseCodec accepted unknown codec %q", bad)
		}
	}
	if got := strings.Join(Codecs(), " "); got != "bin+flate bin xml" {
		t.Errorf("Codecs() = %q, want bin+flate bin xml", got)
	}
	if (Codec{}).String() != "xml" {
		t.Errorf("zero Codec renders as %q", Codec{}.String())
	}
}

// TestBinShipmentRoundTrip holds the bin codec — compressed and not — to
// tree-codec equivalence: decoding a bin shipment yields exactly the
// instances the XML wire format delivers for the same outbound map.
func TestBinShipmentRoundTrip(t *testing.T) {
	sch, out, lookup := outboundFixture(t)
	var xml bytes.Buffer
	if err := StreamShipmentCodec(&xml, out, sch, Codec{}); err != nil {
		t.Fatal(err)
	}
	want, err := ReadShipment(bytes.NewReader(xml.Bytes()), sch, lookup)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{CodecBin, CodecBinFlate} {
		codec, err := ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := StreamShipmentCodec(&buf, out, sch, codec); err != nil {
			t.Fatal(err)
		}
		got, err := ReadShipment(bytes.NewReader(buf.Bytes()), sch, lookup)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := shipmentsEqual(want, got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestBinStreamMatchesTreeCodec holds the streaming bin encoder to the
// tree codec's bytes and the streaming decoder to the tree decoder's
// instances, the same interoperability property the XML and feed formats
// guarantee.
func TestBinStreamMatchesTreeCodec(t *testing.T) {
	sch, out, lookup := outboundFixture(t)
	for _, codec := range []Codec{{Kind: CodecBin}, {Kind: CodecBin, Flate: true}} {
		x, err := EncodeShipmentCodec(out, sch, codec)
		if err != nil {
			t.Fatal(err)
		}
		want := xmltree.Marshal(x, xmltree.WriteOptions{EmitAllIDs: true})
		var buf bytes.Buffer
		if err := StreamShipmentCodec(&buf, out, sch, codec); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Fatalf("%s: stream bytes differ from tree codec:\n%s\nvs\n%s", codec, buf.String(), want)
		}
		wantDec, err := DecodeShipmentAuto(x, sch, lookup)
		if err != nil {
			t.Fatal(err)
		}
		gotDec, err := ReadShipment(bytes.NewReader(buf.Bytes()), sch, lookup)
		if err != nil {
			t.Fatal(err)
		}
		if err := shipmentsEqual(wantDec, gotDec); err != nil {
			t.Errorf("%s: %v", codec, err)
		}
	}
}

// TestBinShipsFewerBytes pins the point of the codec: the dictionary plus
// delta keys undercut tagged XML on the same shipment.
func TestBinShipsFewerBytes(t *testing.T) {
	sch, out, _ := outboundFixture(t)
	size := func(c Codec) int {
		var buf bytes.Buffer
		if err := StreamShipmentCodec(&buf, out, sch, c); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	xml := size(Codec{Kind: CodecXML})
	bin := size(Codec{Kind: CodecBin})
	if bin >= xml {
		t.Errorf("bin shipment %d bytes, tagged XML %d", bin, xml)
	}
}

// TestBinChunkSeqAndResume checks that sequenced bin chunks carry seq
// attributes and respect OnChunk declines, the contract resumable sessions
// are built on.
func TestBinChunkSeqAndResume(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	for _, codec := range []Codec{{Kind: CodecBin}, {Kind: CodecBin, Flate: true}} {
		var buf bytes.Buffer
		sw := NewShipmentWriterCodec(&buf, sch, codec)
		if err := sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}, 0); err != nil {
			t.Fatal(err)
		}
		if err := sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f2", "i2", "voicemail")}, 1); err != nil {
			t.Fatal(err)
		}
		if err := sw.EmitChunk("1:feat", f, nil, 2); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), ` seq="1"`) || !strings.Contains(buf.String(), `format="bin"`) {
			t.Fatalf("%s: chunk framing missing:\n%s", codec, buf.String())
		}

		d := NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
		d.OnChunk = func(seq int64, _ bool) (bool, error) { return seq != 0, nil }
		var seqs []int64
		d.ChunkDone = func(s int64) { seqs = append(seqs, s) }
		if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d); err != nil {
			t.Fatal(err)
		}
		got, err := d.Result()
		if err != nil {
			t.Fatal(err)
		}
		if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
			t.Fatalf("%s: ChunkDone seqs = %v", codec, seqs)
		}
		in := got["0:feat"]
		if in == nil || len(in.Records) != 1 || in.Records[0].ID != "f2" {
			t.Fatalf("%s: declined bin chunk leaked: %+v", codec, got)
		}
		if in := got["1:feat"]; in == nil || len(in.Records) != 0 {
			t.Fatalf("%s: empty bin chunk lost", codec)
		}
	}
}

// TestBinTornChunkIsAtomic tears a bin stream inside the second chunk's
// base64 payload: the decoder must keep chunk 0 whole and commit nothing
// of chunk 1 — the parse happens at commit time and a truncated payload
// fails it.
func TestBinTornChunkIsAtomic(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	for _, codec := range []Codec{{Kind: CodecBin}, {Kind: CodecBin, Flate: true}} {
		var buf bytes.Buffer
		sw := NewShipmentWriterCodec(&buf, sch, codec)
		sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}, 0)
		sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f2", "i2", "voicemail")}, 1)
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		wireBytes := buf.Bytes()

		// Cut inside chunk 1's payload text but keep the XML well-formed by
		// appending closing tags, so even a parse that reaches the end sees
		// a chunk whose payload is torn.
		second := bytes.Index(wireBytes, []byte(`seq="1"`))
		if second < 0 {
			t.Fatal("fixture missing second chunk")
		}
		open := bytes.Index(wireBytes[second:], []byte(">"))
		cut := second + open + 1 + 5 // a few bytes into the base64 text
		torn := append(append([]byte{}, wireBytes[:cut]...), []byte("</instance></shipment>")...)

		out := map[string]*core.Instance{}
		var done []int64
		d := NewShipmentDecoderInto(sch, func(string) *core.Fragment { return f }, out)
		d.ChunkDone = func(s int64) { done = append(done, s) }
		if err := xmltree.ScanAttrs(bytes.NewReader(torn), d); err == nil {
			t.Fatalf("%s: torn bin chunk decoded clean", codec)
		}
		if len(done) != 1 || done[0] != 0 {
			t.Fatalf("%s: committed chunks after tear = %v, want [0]", codec, done)
		}
		in := out["0:feat"]
		if in == nil || len(in.Records) != 1 || in.Records[0].ID != "f1" {
			t.Fatalf("%s: torn bin chunk leaked partial state: %+v", codec, out["0:feat"])
		}
	}
}

// TestReadBinChunkRejects exercises the malformed-payload guards.
func TestReadBinChunkRejects(t *testing.T) {
	sch := schema.CustomerInfo()
	for _, c := range []struct {
		name, text, enc string
	}{
		{"bad base64", "!!!", ""},
		{"empty payload", "", ""},
		{"bad version", "/w==", ""}, // 0xff
		{"unknown enc", "AQA=", "gzip"},
		{"truncated flate", "AQA=", "flate"},
	} {
		if _, err := readBinChunk([]byte(c.text), sch, c.enc); err == nil {
			t.Errorf("%s: decoded clean", c.name)
		}
	}
	// A well-formed empty chunk (version byte + zero record count) is fine.
	recs, err := readBinChunk([]byte("AQA="), sch, "")
	if err != nil || len(recs) != 0 {
		t.Errorf("empty chunk: recs=%v err=%v", recs, err)
	}
}

// zeroFlateChunk is the wire text of a bin+flate chunk whose payload
// inflates to exactly n bytes: one record whose text is a zero-filled run.
// The text itself stays a few KiB whatever n is.
func zeroFlateChunk(n int) []byte {
	const head = 9 // version, count, tag, flags, 4-byte text length, kid count
	payload := binary.AppendUvarint([]byte{binVersion, 1, 1, binFlagText}, uint64(n-head))
	payload = append(payload, make([]byte, n-head+1)...) // the text, then no kids
	var text bytes.Buffer
	b64 := base64.NewEncoder(base64.StdEncoding, &text)
	fw, _ := flate.NewWriter(b64, flate.BestSpeed)
	fw.Write(payload)
	fw.Close()
	b64.Close()
	return text.Bytes()
}

// TestBinFlateInflationCapped: a bin+flate chunk inflates to at most
// MaxChunkBytes. One byte past, it is refused as ErrChunkTooLarge — by
// readBinChunk, and by the decoder, which parses the chunk as it closes —
// and nothing of it commits; a chunk at the limit decodes.
func TestBinFlateInflationCapped(t *testing.T) {
	sch, f, _ := chunkFixture(t)
	for _, n := range []int{MaxChunkBytes, MaxChunkBytes + 1} {
		over := n > MaxChunkBytes
		text := zeroFlateChunk(n)
		recs, err := readBinChunk(text, sch, "flate")
		if over && !errors.Is(err, ErrChunkTooLarge) {
			t.Errorf("%d-byte payload: err = %v, want ErrChunkTooLarge", n, err)
		}
		if !over && (err != nil || len(recs) != 1 || len(recs[0].Text) != n-9) {
			t.Errorf("%d-byte payload: err = %v, %d records", n, err, len(recs))
		}
		shipment := `<shipment><instance edge="0:feat" frag="feat" seq="0" format="bin" enc="flate">` + string(text) + `</instance></shipment>`
		out := map[string]*core.Instance{}
		d := NewShipmentDecoderInto(sch, func(string) *core.Fragment { return f }, out)
		err = xmltree.ScanAttrs(strings.NewReader(shipment), d)
		if over != errors.Is(err, ErrChunkTooLarge) || !over && err != nil {
			t.Errorf("%d-byte payload: decode err = %v", n, err)
		}
		if got := out["0:feat"]; over && got != nil || !over && (got == nil || got.Rows() != 1) {
			t.Errorf("%d-byte payload: committed %v", n, got)
		}
	}
}

// quadraticKeyChunk crafts the payload binMaxKeyLen exists for: n records
// whose IDs each keep the whole previous key and add one byte, so 4n
// payload bytes name keys of 1, 2, ... n bytes.
func quadraticKeyChunk(n int) []byte {
	payload := binary.AppendUvarint([]byte{binVersion}, uint64(n))
	for i := 0; i < n; i++ {
		payload = binary.AppendUvarint(payload, 1) // first dictionary element
		payload = append(payload, binFlagID)
		payload = binary.AppendUvarint(payload, uint64(i)) // prefix: all of the previous key
		payload = append(payload, 1, 'k', 0)               // 1-byte suffix, no kids
	}
	return payload
}

// TestBinKeyLengthCapped: delta-coded keys may not grow without bound — a
// chunk that reconstructs a key past binMaxKeyLen fails whole, with the
// typed error, and nothing of it is delivered.
func TestBinKeyLengthCapped(t *testing.T) {
	sch := schema.CustomerInfo()
	recs, err := decodeBinRecords(quadraticKeyChunk(binMaxKeyLen), sch)
	if err != nil || len(recs) != binMaxKeyLen || len(recs[binMaxKeyLen-1].ID) != binMaxKeyLen {
		t.Fatalf("keys up to the limit must decode: %d recs, err %v", len(recs), err)
	}
	recs, err = decodeBinRecords(quadraticKeyChunk(binMaxKeyLen+1), sch)
	if !errors.Is(err, ErrBinKeyTooLong) || recs != nil {
		t.Fatalf("over-long key: %d recs, err %v; want ErrBinKeyTooLong and nothing decoded", len(recs), err)
	}
}

// TestDecodeBinRecordsAllocatesPerChunk: decoding costs a constant number
// of allocations per chunk — the record slice and one slab of each kind —
// whatever the record count, where it used to cost several per record.
func TestDecodeBinRecordsAllocatesPerChunk(t *testing.T) {
	sch := schema.CustomerInfo()
	for _, n := range []int{64, 1024} {
		recs := make([]*xmltree.Node, n)
		for i := range recs {
			id := fmt.Sprintf("1.%d.%d", i/7, i)
			recs[i] = &xmltree.Node{Name: "Feature", ID: id, Parent: fmt.Sprintf("1.%d", i/7), Kids: []*xmltree.Node{
				{Name: "FeatureID", Parent: id, Text: fmt.Sprintf("feature %d", i)}, // leaf IDs do not travel
			}}
		}
		var buf bytes.Buffer
		appendBinRecords(&buf, recs, sch)
		var got []*xmltree.Node
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if got, err = decodeBinRecords(buf.Bytes(), sch); err != nil {
				t.Fatal(err)
			}
		})
		for i := range recs {
			if !xmltree.Equal(recs[i], got[i]) {
				t.Fatalf("n=%d: record %d differs after decode", n, i)
			}
		}
		if allocs > 8 {
			t.Errorf("n=%d records: %.0f allocations per chunk, want a constant handful", n, allocs)
		}
	}
}
