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

// TestStreamShipmentMatchesTreeBytes holds the streaming encoder to the
// tree codec's exact serialization, for both wire formats: streaming and
// buffered peers must interoperate byte for byte.
func TestStreamShipmentMatchesTreeBytes(t *testing.T) {
	sch, out, _ := outboundFixture(t)
	for _, preferFeed := range []bool{false, true} {
		x, err := EncodeShipmentAuto(out, sch, preferFeed)
		if err != nil {
			t.Fatal(err)
		}
		want := xmltree.Marshal(x, xmltree.WriteOptions{EmitAllIDs: true})
		var buf bytes.Buffer
		if err := StreamShipment(&buf, out, sch, preferFeed); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want {
			t.Errorf("preferFeed=%v: stream bytes differ from tree codec:\n%s\nvs\n%s", preferFeed, got, want)
		}
	}
	// Plain EncodeShipment (no feed negotiation) must match the non-feed
	// streaming output too.
	want := xmltree.Marshal(EncodeShipment(out), xmltree.WriteOptions{EmitAllIDs: true})
	var buf bytes.Buffer
	if err := StreamShipment(&buf, out, sch, false); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("stream bytes differ from EncodeShipment:\n%s\nvs\n%s", got, want)
	}
}

// TestReadShipmentMatchesDecode holds the streaming decoder to the tree
// decoder's results on the same bytes.
func TestReadShipmentMatchesDecode(t *testing.T) {
	sch, out, lookup := outboundFixture(t)
	for _, preferFeed := range []bool{false, true} {
		var buf bytes.Buffer
		if err := StreamShipment(&buf, out, sch, preferFeed); err != nil {
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
			t.Errorf("preferFeed=%v: %v", preferFeed, err)
		}
	}
}

func TestStreamShipmentEmpty(t *testing.T) {
	sch := schema.CustomerInfo()
	var buf bytes.Buffer
	if err := StreamShipment(&buf, nil, sch, true); err != nil {
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
	for _, preferFeed := range []bool{false, true} {
		var buf bytes.Buffer
		sw := NewShipmentWriter(&buf, sch, preferFeed)
		if err := sw.Emit("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}); err != nil {
			t.Fatal(err)
		}
		if err := sw.Emit("0:feat", f, []*xmltree.Node{rec("f2", "i2", "voicemail")}); err != nil {
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
			t.Fatalf("preferFeed=%v: chunks not merged: %+v", preferFeed, got)
		}
		if in.Records[1].Kids[0].Text != "voicemail" {
			t.Errorf("preferFeed=%v: second chunk lost: %q", preferFeed, in.Records[1].Kids[0].Text)
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
		x := EncodeShipment(out)
		want := xmltree.Marshal(x, xmltree.WriteOptions{EmitAllIDs: true})
		var buf bytes.Buffer
		if err := StreamShipment(&buf, out, sch, false); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Fatalf("iter %d: bytes differ:\n%s\nvs\n%s", iter, buf.String(), want)
		}
		parsed, err := xmltree.Parse(strings.NewReader(want))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		wantDec, err := DecodeShipment(parsed, func(string) *core.Fragment { return f })
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
// instances (or identical failure) back.
func FuzzStreamShipment(f *testing.F) {
	f.Add("o1", "c1", "s1", "local", "0:ord", false)
	f.Add(`o"<>&`, "", "", "a|b\\n", `k<&>"`, true)
	f.Add("", "p", "s", "", "k", false)
	// A chunk past MaxChunkBytes: the relay and the decoder refuse it, typed.
	f.Add("o1", "c1", "s1", strings.Repeat("t", MaxChunkBytes), "0:ord", true)
	// Just under the decoder's staging cap: it decodes.
	f.Add("o1", "c1", "s1", strings.Repeat("t", MaxChunkBytes-256), "0:ord", false)
	sch := schema.CustomerInfo()
	frag, err := core.NewFragment(sch, "ord", []string{"Order", "Service", "ServiceName"})
	if err != nil {
		f.Fatal(err)
	}
	lookup := func(string) *core.Fragment { return frag }
	f.Fuzz(func(t *testing.T, id, parent, svcID, text, key string, twoRecords bool) {
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

		want := xmltree.Marshal(EncodeShipment(out), xmltree.WriteOptions{EmitAllIDs: true})
		var buf bytes.Buffer
		if err := StreamShipment(&buf, out, sch, false); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Fatalf("bytes differ:\n%s\nvs\n%s", buf.String(), want)
		}

		// Relay: whatever a self-chunking writer renders, a relay forwards
		// byte for byte or refuses as oversized — it validates nothing else.
		var seqd bytes.Buffer
		sw := NewShipmentWriterCodec(&seqd, sch, Codec{Kind: CodecXML})
		sw.SetChunk(1)
		if err := EmitShipment(sw, out); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		relay, rerr := captureShipment(seqd.Bytes())
		switch {
		case rerr == nil:
			var back bytes.Buffer
			relay.WriteShipment(&back, 0, false)
			relay.Release()
			if !bytes.Equal(back.Bytes(), seqd.Bytes()) {
				t.Fatalf("relay changed the shipment:\n%q\nvs\n%q", back.Bytes(), seqd.Bytes())
			}
		case !errors.Is(rerr, ErrChunkTooLarge) || seqd.Len() <= MaxChunkBytes:
			t.Fatalf("relay refused a rendered %d-byte shipment: %v", seqd.Len(), rerr)
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
		wantDec, derr := DecodeShipment(parsed, lookup)
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
	for _, preferFeed := range []bool{false, true} {
		var buf, plain bytes.Buffer
		sw := NewShipmentWriter(&buf, sch, preferFeed)
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
			t.Fatalf("preferFeed=%v: seq attribute missing:\n%s", preferFeed, buf.String())
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
			t.Fatalf("preferFeed=%v: ChunkDone seqs = %v", preferFeed, seqs)
		}
		if in := got["0:feat"]; in == nil || len(in.Records) != 2 {
			t.Fatalf("preferFeed=%v: sequenced chunks not merged: %+v", preferFeed, got)
		}
		if in := got["1:feat"]; in == nil || len(in.Records) != 0 {
			t.Fatalf("preferFeed=%v: empty sequenced chunk lost", preferFeed)
		}

		// seq -1 must leave the wire bytes untouched.
		sw2 := NewShipmentWriter(&plain, sch, preferFeed)
		var viaEmit bytes.Buffer
		sw3 := NewShipmentWriter(&viaEmit, sch, preferFeed)
		if err := sw2.EmitChunk("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}, -1); err != nil {
			t.Fatal(err)
		}
		sw2.Close()
		if err := sw3.Emit("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}); err != nil {
			t.Fatal(err)
		}
		sw3.Close()
		if plain.String() != viaEmit.String() {
			t.Fatalf("preferFeed=%v: EmitChunk(-1) diverged from Emit:\n%s\nvs\n%s", preferFeed, plain.String(), viaEmit.String())
		}
	}
}

// TestDecoderOnChunkSkips checks the resume path: chunks the target already
// checkpointed are declined by OnChunk and skipped wholesale — no records,
// no ChunkDone.
func TestDecoderOnChunkSkips(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	var buf bytes.Buffer
	sw := NewShipmentWriter(&buf, sch, false)
	sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}, 0)
	sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f2", "i2", "voicemail")}, 1)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	d := NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
	d.OnChunk = func(seq int64) bool { return seq >= 1 }
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

// Replay reads a chunk back from its payload at rest through the receive
// path: every format decodes to the records a live shipment delivers, the
// ledger-shaped KeepRecords dedups across replayed chunks, and tombstone
// bodies land in Tombs.
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
	if err := writeBinChunk(&binText, recs, sch, true); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	dups := 0
	d := NewShipmentDecoder(sch, lookup)
	d.KeepRecords = func(_ string, in []*xmltree.Node) []*xmltree.Node {
		kept := in[:0]
		for _, r := range in {
			if seen[r.ID] {
				dups++
				continue
			}
			seen[r.ID] = true
			kept = append(kept, r)
		}
		return kept
	}
	if err := d.Replay("0:feat", "feat", 0, Payload{Format: CodecXML, Bytes: body(func(bw *bufio.Writer) { WriteRecords(bw, recs) })}); err != nil {
		t.Fatal(err)
	}
	if err := d.Replay("0:feat", "feat", 1, Payload{Format: CodecBin, Enc: "flate", Bytes: binText.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if err := d.Replay("0:feat", "", 2, Payload{Format: FormatTombstones, Bytes: body(func(bw *bufio.Writer) { WriteTombstoneIDs(bw, []string{"f1"}) })}); err != nil {
		t.Fatal(err)
	}
	if err := d.Replay("0:feat", "nope", 3, Payload{Format: "yaml"}); err == nil {
		t.Fatal("unknown format replayed")
	}
	in := d.out["0:feat"]
	if in == nil || len(in.Records) != 2 || dups != 2 {
		t.Fatalf("replayed %v records with %d dedups, want 2 and 2", in, dups)
	}
	var ship bytes.Buffer
	if err := StreamShipment(&ship, map[string]*core.Instance{"0:feat": {Frag: f, Records: recs}}, sch, false); err != nil {
		t.Fatal(err)
	}
	live, err := ReadShipment(&ship, sch, lookup)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range live["0:feat"].Records {
		if !xmltree.Equal(in.Records[i], want) {
			t.Fatalf("record %d replays differently from a live shipment", i)
		}
	}
	if ids := d.Tombs["0:feat"]; len(ids) != 1 || ids[0] != "f1" {
		t.Fatalf("tombstones replayed as %v", d.Tombs)
	}
}

// TestDecoderKeepRecordsDedup checks record-level idempotency: decoding the
// same delivery twice into one shared map keeps each record once when
// KeepRecords filters by (edge, ID), the ledger's key.
func TestDecoderKeepRecordsDedup(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	var buf bytes.Buffer
	sw := NewShipmentWriter(&buf, sch, false)
	sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID"), rec("f2", "i2", "voicemail")}, 0)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	wireBytes := buf.Bytes()

	out := map[string]*core.Instance{}
	seen := map[string]bool{}
	keep := func(edge string, recs []*xmltree.Node) []*xmltree.Node {
		kept := recs[:0]
		for _, r := range recs {
			if k := edge + "\x00" + r.ID; !seen[k] {
				seen[k] = true
				kept = append(kept, r)
			}
		}
		return kept
	}
	for attempt := 0; attempt < 2; attempt++ {
		d := NewShipmentDecoderInto(sch, func(string) *core.Fragment { return f }, out)
		d.KeepRecords = keep
		if err := xmltree.ScanAttrs(bytes.NewReader(wireBytes), d); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if in := out["0:feat"]; in == nil || len(in.Records) != 2 {
		t.Fatalf("replayed delivery duplicated records: %+v", out["0:feat"])
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
	sw := NewShipmentWriter(&buf, sch, false)
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
		d.OnChunk = func(seq int64) bool { return seq < 0 || seq >= next }
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
// once. The records here carry no IDs on purpose: KeepRecords passes ID-less
// records through, so the re-check under the lock is the only thing
// standing between an overlapping attempt and duplicated records.
func TestDecoderConcurrentAttemptsExactlyOnce(t *testing.T) {
	sch, f, _ := chunkFixture(t)
	const chunks = 64
	rec := func(txt string) *xmltree.Node {
		return &xmltree.Node{Name: "Feature", Parent: "l1", Kids: []*xmltree.Node{
			{Name: "FeatureID", Text: txt},
		}}
	}
	var buf bytes.Buffer
	sw := NewShipmentWriter(&buf, sch, false)
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
			d.OnChunk = led.AdmitChunk
			d.KeepRecords = led.KeepRecords
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
