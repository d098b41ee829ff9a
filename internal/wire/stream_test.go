package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xdx/internal/core"
	"xdx/internal/reliable"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// outboundFixture runs the source slice of the CustomerInfo exchange and
// returns its cross-edge shipment plus the fragment dictionary a receiver
// would decode against.
func outboundFixture(t *testing.T) (*schema.Schema, map[string]*core.Instance, func(string) *core.Fragment) {
	t.Helper()
	sch, m, g, a := fixtures(t)
	doc, err := xmltree.Parse(strings.NewReader(
		`<Customer><CustName>Ann &amp; Bob</CustName><Order><Service><ServiceName>s&lt;1&gt;</ServiceName>` +
			`<Line><TelNo>1</TelNo><Switch><SwitchID>w</SwitchID></Switch>` +
			`<Feature><FeatureID>f</FeatureID></Feature></Line></Service></Order></Customer>`))
	if err != nil {
		t.Fatal(err)
	}
	core.AssignIDs(doc)
	sources, err := core.FromDocument(m.Source, doc)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(f *core.Fragment) (*core.Instance, error) {
		for _, in := range sources {
			if in.Frag.SameElems(f) {
				return &core.Instance{Frag: f, Records: in.Records}, nil
			}
		}
		t.Fatalf("no source %q", f.Name)
		return nil, nil
	}
	out, _, err := core.ExecuteSlice(g, sch, a, core.LocSource, core.SliceIO{Scan: scan})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no outbound shipment")
	}
	frags := map[string]*core.Fragment{}
	for _, e := range g.Edges {
		frags[e.Frag.Name] = e.Frag
	}
	return sch, out, func(name string) *core.Fragment { return frags[name] }
}

// shipmentsEqual reports whether two decoded shipments are deeply equal
// (same keys, same fragments, record-wise tree equality including IDs).
func shipmentsEqual(a, b map[string]*core.Instance) error {
	if len(a) != len(b) {
		return fmt.Errorf("instance count %d vs %d", len(a), len(b))
	}
	for k, av := range a {
		bv := b[k]
		if bv == nil {
			return fmt.Errorf("missing key %q", k)
		}
		if av.Frag.Name != bv.Frag.Name {
			return fmt.Errorf("%s: fragment %q vs %q", k, av.Frag.Name, bv.Frag.Name)
		}
		if len(av.Records) != len(bv.Records) {
			return fmt.Errorf("%s: %d vs %d records", k, len(av.Records), len(bv.Records))
		}
		for i := range av.Records {
			if !xmltree.Equal(av.Records[i], bv.Records[i]) {
				return fmt.Errorf("%s record %d differs:\n%s\nvs\n%s", k, i,
					xmltree.Marshal(av.Records[i], xmltree.WriteOptions{EmitAllIDs: true}),
					xmltree.Marshal(bv.Records[i], xmltree.WriteOptions{EmitAllIDs: true}))
			}
		}
	}
	return nil
}

// treeShipment is the tree codec's tagged-XML serialization of out.
func treeShipment(t testing.TB, out map[string]*core.Instance, sch *schema.Schema) string {
	t.Helper()
	x, err := EncodeShipmentCodec(out, sch, Codec{})
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.Marshal(x, xmltree.WriteOptions{EmitAllIDs: true})
}

// allCodecs is every codec this build speaks.
var allCodecs = []Codec{{Kind: CodecXML}, {Kind: CodecBin}, {Kind: CodecBin, Flate: true}}

// TestStreamShipmentMatchesTreeBytes holds the streaming encoder to the
// tree codec's exact serialization, for every codec: streaming and
// buffered peers must interoperate byte for byte.
func TestStreamShipmentMatchesTreeBytes(t *testing.T) {
	sch, out, _ := outboundFixture(t)
	for _, codec := range allCodecs {
		x, err := EncodeShipmentCodec(out, sch, codec)
		if err != nil {
			t.Fatal(err)
		}
		want := xmltree.Marshal(x, xmltree.WriteOptions{EmitAllIDs: true})
		var buf bytes.Buffer
		if err := StreamShipmentCodec(&buf, out, sch, codec); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want {
			t.Errorf("%s: stream bytes differ from tree codec:\n%s\nvs\n%s", codec, got, want)
		}
	}
}

// TestReadShipmentMatchesDecode holds the streaming decoder to the tree
// decoder's results on the same bytes.
func TestReadShipmentMatchesDecode(t *testing.T) {
	sch, out, lookup := outboundFixture(t)
	for _, codec := range allCodecs {
		var buf bytes.Buffer
		if err := StreamShipmentCodec(&buf, out, sch, codec); err != nil {
			t.Fatal(err)
		}
		parsed, err := xmltree.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeShipmentAuto(parsed, sch, lookup)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadShipment(bytes.NewReader(buf.Bytes()), sch, lookup)
		if err != nil {
			t.Fatal(err)
		}
		if err := shipmentsEqual(want, got); err != nil {
			t.Errorf("%s: %v", codec, err)
		}
	}
}

func TestStreamShipmentEmpty(t *testing.T) {
	sch := schema.CustomerInfo()
	var buf bytes.Buffer
	if err := StreamShipmentCodec(&buf, nil, sch, Codec{Kind: CodecBin}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "<shipment/>" {
		t.Errorf("empty shipment = %q", buf.String())
	}
	got, err := ReadShipment(&buf, sch, func(string) *core.Fragment { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("decoded %d instances from empty shipment", len(got))
	}
}

// TestShipmentWriterMergesChunks checks the chunked-emission contract: a
// producer may emit several instance chunks for one edge key (a chunked
// writer does, one per SetChunk cut), and decoders merge them back into a
// single instance.
func TestShipmentWriterMergesChunks(t *testing.T) {
	sch := schema.CustomerInfo()
	f, err := core.NewFragment(sch, "feat", []string{"Feature", "FeatureID"})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(id, fid, txt string) *xmltree.Node {
		return &xmltree.Node{Name: "Feature", ID: id, Parent: "l1", Kids: []*xmltree.Node{
			{Name: "FeatureID", ID: fid, Parent: id, Text: txt},
		}}
	}
	for _, codec := range allCodecs {
		var buf bytes.Buffer
		sw := NewShipmentWriterCodec(&buf, sch, codec)
		if err := sw.Emit("0:feat", f, &core.Instance{Records: []*xmltree.Node{rec("f1", "i1", "callerID")}}); err != nil {
			t.Fatal(err)
		}
		if err := sw.Emit("0:feat", f, &core.Instance{Records: []*xmltree.Node{rec("f2", "i2", "voicemail")}}); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadShipment(&buf, sch, func(string) *core.Fragment { return f })
		if err != nil {
			t.Fatal(err)
		}
		in := got["0:feat"]
		if in == nil || len(in.Records) != 2 {
			t.Fatalf("%s: chunks not merged: %+v", codec, got)
		}
		if in.Records[1].Kids[0].Text != "voicemail" {
			t.Errorf("%s: second chunk lost: %q", codec, in.Records[1].Kids[0].Text)
		}
	}
}

func TestShipmentBytesMatchesStrippedSerialization(t *testing.T) {
	_, out, _ := outboundFixture(t)
	var want int64
	for _, in := range out {
		for _, rec := range in.Records {
			want += xmltree.SizeWith(stripIDs(rec, true), xmltree.WriteOptions{EmitAllIDs: true})
		}
	}
	if got := ShipmentBytes(out); got != want {
		t.Errorf("ShipmentBytes = %d, want %d", got, want)
	}
	if got := ShipmentBytes(nil); got != 0 {
		t.Errorf("ShipmentBytes(nil) = %d", got)
	}
}

// randomInstance builds a pseudo-random Order/Service/ServiceName instance
// exercising optional elements, empty texts, empty IDs, and XML-special
// characters in texts, IDs, and keys.
func randomInstance(rng *rand.Rand, f *core.Fragment) *core.Instance {
	alphabet := []rune(`ab<>&"'|\~é`)
	word := func() string {
		n := rng.Intn(8)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	in := &core.Instance{Frag: f}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		root := &xmltree.Node{Name: "Order", ID: word(), Parent: word()}
		if rng.Intn(4) > 0 { // Service is optional in some records
			svc := &xmltree.Node{Name: "Service", ID: word(), Parent: root.ID}
			if rng.Intn(4) > 0 {
				svc.AddKid(&xmltree.Node{Name: "ServiceName", ID: word(), Parent: svc.ID, Text: word()})
			}
			root.AddKid(svc)
		}
		in.Records = append(in.Records, root)
	}
	return in
}

// TestStreamShipmentRandomized is the randomized equivalence property: for
// arbitrary instances the streaming encoder produces the tree codec's
// bytes, and the streaming decoder produces the tree decoder's instances.
func TestStreamShipmentRandomized(t *testing.T) {
	sch := schema.CustomerInfo()
	f, err := core.NewFragment(sch, "ord", []string{"Order", "Service", "ServiceName"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		out := map[string]*core.Instance{}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			out[fmt.Sprintf(`%d:or"d<%d>`, i, rng.Intn(10))] = randomInstance(rng, f)
		}
		want := treeShipment(t, out, sch)
		var buf bytes.Buffer
		if err := StreamShipmentCodec(&buf, out, sch, Codec{}); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Fatalf("iter %d: bytes differ:\n%s\nvs\n%s", iter, buf.String(), want)
		}
		parsed, err := xmltree.Parse(strings.NewReader(want))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		wantDec, err := DecodeShipmentAuto(parsed, sch, func(string) *core.Fragment { return f })
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		gotDec, err := ReadShipment(bytes.NewReader(buf.Bytes()), sch, func(string) *core.Fragment { return f })
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := shipmentsEqual(wantDec, gotDec); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// FuzzStreamShipment cross-checks the streaming codec against the tree
// codec on fuzzer-driven shipments: identical bytes out, identical
// instances (or identical failure) back. A non-empty format also stamps a
// chunk carrying text with it, which must decode only in a known format.
func FuzzStreamShipment(f *testing.F) {
	f.Add("o1", "c1", "s1", "local", "0:ord", false, "")
	f.Add(`o"<>&`, "", "", "a|b\\n", `k<&>"`, true, "")
	f.Add("", "p", "s", "", "k", false, "")
	// A chunk past MaxChunkBytes: the decoder refuses it, typed.
	f.Add("o1", "c1", "s1", strings.Repeat("t", MaxChunkBytes), "0:ord", true, "")
	// Just under the decoder's staging cap: it decodes.
	f.Add("o1", "c1", "s1", strings.Repeat("t", MaxChunkBytes-256), "0:ord", false, "")
	// Formats this build does not decode: refused typed, never committed
	// empty.
	f.Add("o1", "c1", "s1", "AAAA", "0:feat", false, "zstd")
	f.Add("o1", "c1", "s1", "l1|f1|i1|callerID|", "0:ord", false, "feed")
	sch := schema.CustomerInfo()
	frag, err := core.NewFragment(sch, "ord", []string{"Order", "Service", "ServiceName"})
	if err != nil {
		f.Fatal(err)
	}
	lookup := func(string) *core.Fragment { return frag }
	f.Fuzz(func(t *testing.T, id, parent, svcID, text, key string, twoRecords bool, format string) {
		if format != "" {
			x := &xmltree.Node{Name: "shipment"}
			ix := &xmltree.Node{Name: "instance", Text: text}
			ix.SetAttr("edge", key)
			ix.SetAttr("frag", "ord")
			ix.SetAttr("format", format)
			x.AddKid(ix)
			stamped := xmltree.Marshal(x, xmltree.WriteOptions{})
			_, ferr := ReadShipment(strings.NewReader(stamped), sch, lookup)
			refused := errors.Is(ferr, ErrChunkFormat)
			known := format == CodecXML || format == CodecBin
			if known && refused {
				t.Fatalf("known format %q refused: %v", format, ferr)
			}
			// An unknown format may fail otherwise only where XML cannot
			// carry the stamped chunk at all.
			if _, perr := xmltree.Parse(strings.NewReader(stamped)); !known && !refused && perr == nil {
				t.Fatalf("format %q: err = %v, want ErrChunkFormat", format, ferr)
			}
		}
		rec := &xmltree.Node{Name: "Order", ID: id, Parent: parent, Kids: []*xmltree.Node{
			{Name: "Service", ID: svcID, Parent: id, Kids: []*xmltree.Node{
				{Name: "ServiceName", Parent: svcID, Text: text},
			}},
		}}
		in := &core.Instance{Frag: frag, Records: []*xmltree.Node{rec}}
		if twoRecords {
			in.Records = append(in.Records, &xmltree.Node{Name: "Order", ID: text, Parent: id})
		}
		out := map[string]*core.Instance{key: in}

		want := treeShipment(t, out, sch)
		var buf bytes.Buffer
		if err := StreamShipmentCodec(&buf, out, sch, Codec{}); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Fatalf("bytes differ:\n%s\nvs\n%s", buf.String(), want)
		}

		// Fuzzed strings may contain characters XML cannot carry (control
		// bytes, invalid UTF-8); both decoders must then fail alike.
		parsed, perr := xmltree.Parse(strings.NewReader(want))
		gotDec, serr := ReadShipment(bytes.NewReader(buf.Bytes()), sch, lookup)
		if errors.Is(serr, ErrChunkTooLarge) {
			// What a tagged-XML chunk stages (names, attribute values,
			// text) never exceeds its rendering, so only a chunk rendered
			// past the cap may be refused.
			if RecordBytes(in.Records) <= MaxChunkBytes {
				t.Fatalf("a chunk of %d record bytes was refused as oversized", RecordBytes(in.Records))
			}
			return
		}
		if perr != nil {
			if serr == nil {
				t.Fatalf("tree decode failed (%v) but stream decode succeeded", perr)
			}
			return
		}
		if serr != nil {
			t.Fatalf("stream decode failed: %v", serr)
		}
		wantDec, derr := DecodeShipmentAuto(parsed, sch, lookup)
		if derr != nil {
			t.Fatalf("tree decode failed: %v", derr)
		}
		if err := shipmentsEqual(wantDec, gotDec); err != nil {
			t.Fatal(err)
		}
	})
}

// chunkFixture returns a flat fragment plus a record factory shared by the
// sequenced-chunk tests.
func chunkFixture(t *testing.T) (*schema.Schema, *core.Fragment, func(id, fid, txt string) *xmltree.Node) {
	t.Helper()
	sch := schema.CustomerInfo()
	f, err := core.NewFragment(sch, "feat", []string{"Feature", "FeatureID"})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(id, fid, txt string) *xmltree.Node {
		return &xmltree.Node{Name: "Feature", ID: id, Parent: "l1", Kids: []*xmltree.Node{
			{Name: "FeatureID", ID: fid, Parent: id, Text: txt},
		}}
	}
	return sch, f, rec
}

// TestEmitChunkSeqRoundTrip checks the resumable-session wire extension:
// EmitChunk stamps each chunk with a seq attribute, the decoder surfaces it
// through ChunkDone in order, and seq -1 stays byte-identical to Emit so
// unsequenced peers interoperate unchanged.
func TestEmitChunkSeqRoundTrip(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	for _, codec := range allCodecs {
		var buf, plain bytes.Buffer
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
		if !strings.Contains(buf.String(), ` seq="1"`) {
			t.Fatalf("%s: seq attribute missing:\n%s", codec, buf.String())
		}

		d := NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
		var seqs []int64
		d.ChunkDone = func(s int64) { seqs = append(seqs, s) }
		if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d); err != nil {
			t.Fatal(err)
		}
		got, err := d.Result()
		if err != nil {
			t.Fatal(err)
		}
		if len(seqs) != 3 || seqs[0] != 0 || seqs[1] != 1 || seqs[2] != 2 {
			t.Fatalf("%s: ChunkDone seqs = %v", codec, seqs)
		}
		if in := got["0:feat"]; in == nil || len(in.Records) != 2 {
			t.Fatalf("%s: sequenced chunks not merged: %+v", codec, got)
		}
		if in := got["1:feat"]; in == nil || len(in.Records) != 0 {
			t.Fatalf("%s: empty sequenced chunk lost", codec)
		}

		// seq -1 must leave the wire bytes untouched.
		sw2 := NewShipmentWriterCodec(&plain, sch, codec)
		var viaEmit bytes.Buffer
		sw3 := NewShipmentWriterCodec(&viaEmit, sch, codec)
		if err := sw2.EmitChunk("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}, -1); err != nil {
			t.Fatal(err)
		}
		sw2.Close()
		if err := sw3.Emit("0:feat", f, &core.Instance{Records: []*xmltree.Node{rec("f1", "i1", "callerID")}}); err != nil {
			t.Fatal(err)
		}
		sw3.Close()
		if plain.String() != viaEmit.String() {
			t.Fatalf("%s: EmitChunk(-1) diverged from Emit:\n%s\nvs\n%s", codec, plain.String(), viaEmit.String())
		}
	}
}

// TestDecoderOnChunkSkips checks the resume path: chunks the target already
// checkpointed are declined by OnChunk and skipped wholesale — no records,
// no ChunkDone.
func TestDecoderOnChunkSkips(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, Codec{})
	sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}, 0)
	sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f2", "i2", "voicemail")}, 1)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	d := NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
	d.OnChunk = func(seq int64, _ bool) (bool, error) { return seq >= 1, nil }
	var seqs []int64
	d.ChunkDone = func(s int64) { seqs = append(seqs, s) }
	if err := xmltree.ScanAttrs(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	in := got["0:feat"]
	if in == nil || len(in.Records) != 1 || in.Records[0].ID != "f2" {
		t.Fatalf("declined chunk leaked records: %+v", got)
	}
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("ChunkDone fired for a skipped chunk: %v", seqs)
	}
}

// TestDecoderOnChunkFirstAndRefusal: OnChunk learns which chunk opens the
// shipment — only the first, on its open and not on the re-check — and an
// error it returns fails the shipment before that chunk's records decode.
func TestDecoderOnChunkFirstAndRefusal(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, Codec{})
	sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}, 4)
	sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f2", "i2", "voicemail")}, 5)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	var calls []string
	d := NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
	d.OnChunk = func(seq int64, first bool) (bool, error) {
		calls = append(calls, fmt.Sprint(seq, first))
		return true, nil
	}
	if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(calls, " "); got != "4 true 4 false 5 false 5 false" {
		t.Fatalf("OnChunk calls %q: want each chunk's open and commit, first only on chunk 4's open", got)
	}

	refused := errors.New("refused")
	d = NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
	d.OnChunk = func(seq int64, first bool) (bool, error) { return false, refused }
	if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d); !errors.Is(err, refused) {
		t.Fatalf("err = %v, want the OnChunk refusal", err)
	}
	if len(d.out) != 0 {
		t.Fatalf("refused chunk decoded: %+v", d.out)
	}
}

// TestDecoderRefusesSeqGap: once a shipment carried a seq, every later
// chunk — declined, tombstone or not — must carry the next one, and a seq
// must parse; where the first may start is OnChunk's call (none is set
// here), as a resume starts at the checkpoint. A gap is refused before the
// chunk after it can advance the checkpoint past the chunk that never
// arrived.
func TestDecoderRefusesSeqGap(t *testing.T) {
	sch, f, _ := chunkFixture(t)
	chunk := func(seq string) string {
		if seq == "" {
			return `<instance edge="0:feat" frag="feat"/>`
		}
		return `<instance edge="0:feat" frag="feat" seq="` + seq + `"/>`
	}
	tomb := `<tombstones edge="0:feat" seq="1"><d ID="x"/></tombstones>`
	for _, c := range []struct {
		name, body string
		refuse     bool
	}{
		{"dense", chunk("0") + chunk("1") + chunk("2"), false},
		{"resumed", chunk("5") + chunk("6"), false},
		{"unsequenced", chunk("") + chunk(""), false},
		{"unsequenced-first", chunk("") + chunk("3") + chunk("4"), false},
		{"tombstone-counts", chunk("0") + tomb + chunk("2"), false},
		{"gap", chunk("0") + chunk("2"), true},
		{"repeat", chunk("0") + chunk("0"), true},
		{"tombstone-gap", chunk("0") + tomb + chunk("3"), true},
		{"unsequenced-after", chunk("0") + chunk(""), true},
		{"unparsable", chunk("0") + chunk("one"), true},
		{"negative", chunk("-2"), true},
	} {
		d := NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
		checkpoint := int64(0)
		d.ChunkDone = func(s int64) { checkpoint = s + 1 }
		err := xmltree.ScanAttrs(strings.NewReader(`<shipment>`+c.body+`</shipment>`), d)
		if c.refuse != errors.Is(err, ErrChunkOrder) || !c.refuse && err != nil {
			t.Errorf("%s: err = %v, want refused=%v", c.name, err, c.refuse)
		}
		if c.name == "gap" && checkpoint > 1 {
			t.Errorf("gap: checkpoint %d passed the missing chunk 1", checkpoint)
		}
	}
	// A declined chunk counts too: the resume path skips seq 0 and 1 and
	// must still see 2 next.
	d := NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
	d.OnChunk = func(seq int64, _ bool) (bool, error) { return seq >= 2, nil }
	err := xmltree.ScanAttrs(strings.NewReader(`<shipment>`+chunk("0")+chunk("1")+chunk("3")+`</shipment>`), d)
	if !errors.Is(err, ErrChunkOrder) {
		t.Errorf("gap after declined chunks: err = %v, want ErrChunkOrder", err)
	}
}

// TestDecoderRefusesUnknownFormat: a chunk whose format names no codec this
// build decodes — feed from an older build, or anything else — is refused
// typed as it opens. Read as tagged XML, its body would fall outside every
// record and the chunk would commit empty and advance the checkpoint. An
// explicit format="xml" is the tagged-XML chunk it says it is.
func TestDecoderRefusesUnknownFormat(t *testing.T) {
	sch, f, _ := chunkFixture(t)
	for _, c := range []struct {
		format, body string
		refuse       bool
	}{
		{"zstd", "AAAA", true},
		{"feed", `l1|f1|i1|callerID|`, true},
		{"XML", "", true},
		{"xml", `<Feature ID="f1"><FeatureID ID="i1">callerID</FeatureID></Feature>`, false},
	} {
		d := NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
		checkpoint := int64(0)
		d.ChunkDone = func(s int64) { checkpoint = s + 1 }
		err := xmltree.ScanAttrs(strings.NewReader(`<shipment><instance edge="0:feat" frag="feat" seq="0" format="`+
			c.format+`">`+c.body+`</instance></shipment>`), d)
		if c.refuse {
			if !errors.Is(err, ErrChunkFormat) || !strings.Contains(err.Error(), c.format) {
				t.Errorf("format %q: err = %v, want ErrChunkFormat naming it", c.format, err)
			}
			if checkpoint != 0 || len(d.out) != 0 {
				t.Errorf("format %q: refused chunk committed (checkpoint %d, %d instances)", c.format, checkpoint, len(d.out))
			}
			continue
		}
		got, rerr := d.Result()
		if err != nil || rerr != nil || checkpoint != 1 || len(got["0:feat"].Records) != 1 {
			t.Errorf("format %q: err = %v/%v, checkpoint %d, result %+v", c.format, err, rerr, checkpoint, got)
		}
	}
	// A journaled payload in an unknown format is refused on replay alike.
	d := NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
	if err := d.Replay("0:feat", "feat", 0, Payload{Format: "feed", Bytes: []byte("l1|f1|i1|x|\n")}); !errors.Is(err, ErrChunkFormat) {
		t.Errorf("replayed feed payload: err = %v, want ErrChunkFormat", err)
	}
}

// A tagged-XML chunk stages its records in memory until it closes, so the
// decoder counts what it stages — element names, attribute values, text —
// and refuses a chunk past MaxChunkBytes, typed, however the bytes are
// spread: many records, or one value grown by split character data. A
// chunk just under the cap decodes.
func TestDecoderRefusesOversizedTaggedXMLChunk(t *testing.T) {
	sch, f, _ := chunkFixture(t)
	lookup := func(string) *core.Fragment { return f }
	half := strings.Repeat("v", MaxChunkBytes/2)
	for _, c := range []struct {
		name, body string
		refuse     bool
	}{
		{"two-records", `<Feature ID="a"><FeatureID>` + half + `</FeatureID></Feature><Feature ID="b"><FeatureID>` + half + `</FeatureID></Feature>`, true},
		{"split-text", `<Feature ID="a"><FeatureID>` + half + `<![CDATA[` + half + `]]></FeatureID></Feature>`, true},
		{"under", `<Feature ID="a"><FeatureID>` + half + `</FeatureID></Feature>`, false},
	} {
		ship := `<shipment><instance edge="0:feat" frag="feat" seq="0">` + c.body + `</instance></shipment>`
		_, err := ReadShipment(strings.NewReader(ship), sch, lookup)
		if c.refuse != errors.Is(err, ErrChunkTooLarge) || (!c.refuse && err != nil) {
			t.Errorf("%s: err = %v, want refused=%v", c.name, err, c.refuse)
		}
	}
}

// repeatByte reads as one byte repeated forever.
type repeatByte byte

func (c repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// countReader counts the bytes read through it.
type countReader struct {
	r io.Reader
	n int
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadShipmentRefusesOversizedValue: a tagged record whose ID runs to
// 64 MiB is refused by the scanner, typed, once the value passes
// xmltree.MaxTokenBytes — having read at most that plus one read buffer —
// instead of being buffered whole before the chunk's staging limit sees it.
func TestReadShipmentRefusesOversizedValue(t *testing.T) {
	sch, f, _ := chunkFixture(t)
	value := &countReader{r: io.LimitReader(repeatByte('7'), 64<<20)}
	ship := io.MultiReader(
		strings.NewReader(`<shipment><instance edge="0:feat" frag="feat" seq="0"><Feature ID="`),
		value,
		strings.NewReader(`"/></instance></shipment>`))
	_, err := ReadShipment(ship, sch, func(string) *core.Fragment { return f })
	if !errors.Is(err, xmltree.ErrTokenTooLarge) {
		t.Errorf("err = %v, want xmltree.ErrTokenTooLarge", err)
	}
	if limit := xmltree.MaxTokenBytes + 64<<10; value.n > limit {
		t.Errorf("read %d bytes of the value before refusing it, want at most %d", value.n, limit)
	}
}

// TestTokenCapAdmitsChunkLimit pins the scanner's per-token cap above
// MaxChunkBytes: a bin chunk's base64 text at the chunk limit, or one byte
// past it, is one text run, and must reach the decoder so that this
// package — not the scanner — accepts it or refuses it as ErrChunkTooLarge.
func TestTokenCapAdmitsChunkLimit(t *testing.T) {
	if xmltree.MaxTokenBytes <= MaxChunkBytes {
		t.Fatalf("xmltree.MaxTokenBytes = %d, want more than MaxChunkBytes = %d", xmltree.MaxTokenBytes, MaxChunkBytes)
	}
}

// TestDecodeTaggedAllocatesPerChunk: a tagged-XML shipment decodes in a
// constant number of allocations per chunk — nodes, kid slices, the
// staging slice and every ID, PARENT and text come out of slabs — where it
// used to cost several per record.
func TestDecodeTaggedAllocatesPerChunk(t *testing.T) {
	sch, f, _ := chunkFixture(t)
	lookup := func(string) *core.Fragment { return f }
	for _, n := range []int{64, 1024} {
		recs := make([]*xmltree.Node, n)
		for i := range recs {
			id := fmt.Sprintf("1.%d.%d", i/7, i)
			recs[i] = &xmltree.Node{Name: "Feature", ID: id, Parent: fmt.Sprintf("1.%d", i/7), Kids: []*xmltree.Node{
				{Name: "FeatureID", Parent: id, Text: fmt.Sprintf("feature %d", i)}, // leaf IDs do not travel
			}}
		}
		var buf bytes.Buffer
		sw := NewShipmentWriterCodec(&buf, sch, Codec{})
		sw.SetChunk(64, 0)
		if err := sw.Emit("0:feat", f, &core.Instance{Records: recs}); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		var got map[string]*core.Instance
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if got, err = ReadShipment(bytes.NewReader(buf.Bytes()), sch, lookup); err != nil {
				t.Fatal(err)
			}
		})
		for i, r := range got["0:feat"].Records {
			if !xmltree.Equal(recs[i], r) {
				t.Fatalf("n=%d: record %d differs after decode", n, i)
			}
		}
		if chunks := n / 64; allocs > float64(48+4*chunks) {
			t.Errorf("n=%d records in %d chunks: %.0f allocations, want a constant handful per chunk", n, chunks, allocs)
		}
	}
}

// Replay reads a chunk back from its payload at rest through the receive
// path: every format decodes to the records a live shipment delivers, a
// replay of a checkpointed seq is declined by chunk admission, and
// tombstone bodies land in Tombs.
func TestDecoderReplayPayloads(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	recs := []*xmltree.Node{rec("f1", "i1", "callerID"), rec("f2", "i2", "voicemail")}
	lookup := func(string) *core.Fragment { return f }
	body := func(write func(*bufio.Writer)) []byte {
		var b bytes.Buffer
		bw := bufio.NewWriter(&b)
		write(bw)
		bw.Flush()
		return b.Bytes()
	}
	var binText bytes.Buffer
	if _, err := writeBinChunk(&binText, recs, sch, true); err != nil {
		t.Fatal(err)
	}
	next, declined := int64(0), 0
	d := NewShipmentDecoder(sch, lookup)
	d.OnChunk = func(seq int64, _ bool) (bool, error) {
		if seq < next {
			declined++
			return false, nil
		}
		return true, nil
	}
	d.ChunkDone = func(seq int64) { next = seq + 1 }
	xmlBody := Payload{Format: CodecXML, Bytes: body(func(bw *bufio.Writer) { WriteRecords(bw, recs) })}
	binBody := Payload{Format: CodecBin, Enc: "flate", Bytes: binText.Bytes()}
	if err := d.Replay("0:feat", "feat", 0, xmlBody); err != nil {
		t.Fatal(err)
	}
	if err := d.Replay("1:feat", "feat", 1, binBody); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Payload{xmlBody, binBody} {
		if err := d.Replay("0:feat", "feat", 0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Replay("0:feat", "", 2, Payload{Format: FormatTombstones, Bytes: body(func(bw *bufio.Writer) { WriteTombstoneIDs(bw, []string{"f1"}) })}); err != nil {
		t.Fatal(err)
	}
	if err := d.Replay("0:feat", "nope", 3, Payload{Format: "yaml"}); err == nil {
		t.Fatal("unknown format replayed")
	}
	if declined != 2 || next != 3 {
		t.Fatalf("replays of chunk 0: %d declined, checkpoint %d; want 2 and 3", declined, next)
	}
	var ship bytes.Buffer
	if err := StreamShipmentCodec(&ship, map[string]*core.Instance{"0:feat": {Frag: f, Records: recs}}, sch, Codec{}); err != nil {
		t.Fatal(err)
	}
	live, err := ReadShipment(&ship, sch, lookup)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"0:feat", "1:feat"} {
		in := d.out[key]
		if in == nil || len(in.Records) != len(recs) {
			t.Fatalf("%s replayed as %v, want %d records", key, in, len(recs))
		}
		for i, want := range live["0:feat"].Records {
			if !xmltree.Equal(in.Records[i], want) {
				t.Fatalf("%s: record %d replays differently from a live shipment", key, i)
			}
		}
	}
	if ids := d.Tombs["0:feat"]; len(ids) != 1 || ids[0] != "f1" {
		t.Fatalf("tombstones replayed as %v", d.Tombs)
	}
}

// TestDecoderTornChunkIsAtomic checks chunk-level atomicity — the property
// resumable sessions replay on: a connection torn mid-chunk leaves the
// shared map holding only fully committed chunks, and a resumed decode over
// the same map (skipping committed seqs) reconstructs the exact fault-free
// shipment.
func TestDecoderTornChunkIsAtomic(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, Codec{})
	sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}, 0)
	sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f2", "i2", "voicemail")}, 1)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	wireBytes := buf.Bytes()

	// Tear the stream in the middle of chunk 1's record.
	cut := bytes.LastIndex(wireBytes, []byte("voicemail"))
	if cut < 0 {
		t.Fatal("fixture bytes missing record text")
	}
	torn := wireBytes[:cut+3]

	out := map[string]*core.Instance{}
	next := int64(0)
	hooks := func(d *ShipmentDecoder) {
		d.OnChunk = func(seq int64, _ bool) (bool, error) { return seq >= next, nil }
		d.ChunkDone = func(seq int64) {
			if seq >= next {
				next = seq + 1
			}
		}
	}
	d1 := NewShipmentDecoderInto(sch, func(string) *core.Fragment { return f }, out)
	hooks(d1)
	if err := xmltree.ScanAttrs(bytes.NewReader(torn), d1); err == nil {
		t.Fatal("torn stream scanned clean")
	}
	if in := out["0:feat"]; in == nil || len(in.Records) != 1 || in.Records[0].ID != "f1" {
		t.Fatalf("torn chunk leaked partial state: %+v", out["0:feat"])
	}
	if next != 1 {
		t.Fatalf("checkpoint = %d after torn attempt, want 1", next)
	}

	// Retry the full delivery; chunk 0 must be skipped, chunk 1 committed.
	d2 := NewShipmentDecoderInto(sch, func(string) *core.Fragment { return f }, out)
	hooks(d2)
	if err := xmltree.ScanAttrs(bytes.NewReader(wireBytes), d2); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Result(); err != nil {
		t.Fatal(err)
	}

	want, err := ReadShipment(bytes.NewReader(wireBytes), sch, func(string) *core.Fragment { return f })
	if err != nil {
		t.Fatal(err)
	}
	if err := shipmentsEqual(out, want); err != nil {
		t.Fatalf("resumed shipment differs from fault-free decode: %v", err)
	}
	if next != 2 {
		t.Fatalf("checkpoint = %d after resume, want 2", next)
	}
}

// yieldReader hands one byte per read and yields the scheduler first, so
// concurrent scans interleave deterministically even on GOMAXPROCS=1 —
// pure scheduling never preempts a tight scan loop there.
type yieldReader struct{ r io.Reader }

func (y yieldReader) Read(p []byte) (int, error) {
	runtime.Gosched()
	if len(p) > 1 {
		p = p[:1]
	}
	return y.r.Read(p)
}

// TestDecoderConcurrentAttemptsExactlyOnce drives many overlapping delivery
// attempts of one shipment into a shared instance map — the shape of a
// client retry racing a straggler whose torn connection is still draining.
// CommitLock serializes the commits (this test is the -race coverage for
// that), and the commit-time admission re-check keeps every chunk exactly
// once. The records carry no IDs, so nothing but the chunk checkpoint tells
// an overlapping attempt's copy of a record from a new one; the ledger
// counts every copy it declined, once.
func TestDecoderConcurrentAttemptsExactlyOnce(t *testing.T) {
	sch, f, _ := chunkFixture(t)
	const chunks = 64
	rec := func(txt string) *xmltree.Node {
		return &xmltree.Node{Name: "Feature", Parent: "l1", Kids: []*xmltree.Node{
			{Name: "FeatureID", Text: txt},
		}}
	}
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, Codec{})
	for i := 0; i < chunks; i++ {
		key := fmt.Sprintf("%d:feat", i%4)
		if err := sw.EmitChunk(key, f, []*xmltree.Node{rec(fmt.Sprintf("feat-%d", i))}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	wireBytes := buf.Bytes()

	out := map[string]*core.Instance{}
	led := reliable.NewLedger()
	var commit sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 8)
	for a := 0; a < 8; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := NewShipmentDecoderInto(sch, func(string) *core.Fragment { return f }, out)
			d.CommitLock = &commit
			d.OnChunk = func(seq int64, _ bool) (bool, error) { return led.AdmitChunk(seq), nil }
			d.ChunkDone = led.ChunkDone
			// The start gate plus yield-per-byte reads keep all eight
			// attempts mid-shipment at once; a plain reader (on a small
			// machine, even a merely slow one) lets each goroutine finish
			// its whole scan before the next is scheduled.
			<-start
			if err := xmltree.ScanAttrs(yieldReader{bytes.NewReader(wireBytes)}, d); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := led.Checkpoint(); got != chunks {
		t.Fatalf("checkpoint = %d, want %d", got, chunks)
	}
	if got := led.Declined(); got != 7*chunks {
		t.Fatalf("declined = %d, want %d: every attempt but one declines each chunk once", got, 7*chunks)
	}
	seen := map[string]bool{}
	total := 0
	for key, in := range out {
		for _, r := range in.Records {
			if len(r.Kids) != 1 {
				t.Fatalf("edge %s: malformed record %+v", key, r)
			}
			txt := r.Kids[0].Text
			if seen[txt] {
				t.Fatalf("record %s committed by more than one attempt", txt)
			}
			seen[txt] = true
			total++
		}
	}
	if total != chunks {
		t.Fatalf("records = %d, want exactly %d", total, chunks)
	}
}
