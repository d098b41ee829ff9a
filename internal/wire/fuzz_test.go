package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// FuzzBinShipment cross-checks the binary codec against the tree codec on
// fuzzer-driven shipments: the bin stream (with and without flate) must
// decode to exactly the instances the tree codec would deliver — record
// strings ride base64, so they round-trip byte for byte even where XML
// itself could not carry them. The second half tears the stream at an
// arbitrary byte: the chunk-atomic decoder must only ever commit whole
// chunks, in order, never a partial one.
func FuzzBinShipment(f *testing.F) {
	f.Add("o1", "c1", "s1", "local", "0:ord", false, uint16(40))
	f.Add(`o"<>&`, "", "", "a|b\\n", `k<&>"`, true, uint16(0))
	f.Add("", "p", "s", "\rtab\t ", "k", false, uint16(9999))
	f.Add("id", "par", "sv", "text", "0:ord", true, uint16(120))
	// A key past binMaxKeyLen: the decoder must refuse it, typed, whole.
	f.Add(strings.Repeat("9", binMaxKeyLen+1), "p", "s", "t", "0:ord", false, uint16(60000))
	// A chunk past MaxChunkBytes: refused typed before its payload parses.
	f.Add("o1", "c1", "s1", strings.Repeat("t", MaxChunkBytes), "0:ord", false, uint16(7))
	// A few KiB of flate text inflating past MaxChunkBytes: refused typed.
	f.Add("o1", "c1", "s1", strings.Repeat("\x00", MaxChunkBytes), "0:ord", true, uint16(7))
	sch := schema.CustomerInfo()
	frag, err := core.NewFragment(sch, "ord", []string{"Order", "Service", "ServiceName"})
	if err != nil {
		f.Fatal(err)
	}
	lookup := func(string) *core.Fragment { return frag }
	f.Fuzz(func(t *testing.T, id, parent, svcID, text, key string, useFlate bool, cut uint16) {
		rec := func(id, parent, svcID, text string) *xmltree.Node {
			return &xmltree.Node{Name: "Order", ID: id, Parent: parent, Kids: []*xmltree.Node{
				{Name: "Service", ID: svcID, Parent: id, Kids: []*xmltree.Node{
					{Name: "ServiceName", Parent: svcID, Text: text},
				}},
			}}
		}
		codec := Codec{Kind: CodecBin, Flate: useFlate}

		// Round trip: one instance under the fuzzed key.
		if !strings.ContainsRune(key, '\r') { // the scanner folds CR in attributes
			out := map[string]*core.Instance{key: {Frag: frag, Records: []*xmltree.Node{rec(id, parent, svcID, text)}}}
			var buf bytes.Buffer
			if err := StreamShipmentCodec(&buf, out, sch, codec); err != nil {
				t.Fatal(err)
			}
			gotDec, serr := ReadShipment(bytes.NewReader(buf.Bytes()), sch, lookup)
			// Base64 text past the scanner's token cap is refused there,
			// before this package's chunk limit sees it.
			if errors.Is(serr, ErrChunkTooLarge) || errors.Is(serr, xmltree.ErrTokenTooLarge) {
				var payload bytes.Buffer
				appendBinRecords(&payload, out[key].Records, sch)
				if buf.Len() <= MaxChunkBytes && payload.Len() <= MaxChunkBytes {
					t.Fatalf("a %d-byte shipment of a %d-byte payload was refused as an oversized chunk", buf.Len(), payload.Len())
				}
				return
			}
			tooLong := len(id) > binMaxKeyLen || len(parent) > binMaxKeyLen || len(svcID) > binMaxKeyLen
			if tooLong != errors.Is(serr, ErrBinKeyTooLong) {
				t.Fatalf("keys of %d/%d/%d bytes: decode error %v", len(id), len(parent), len(svcID), serr)
			}
			if serr != nil && !tooLong {
				// Only the key travels as XML (an attribute); a key XML
				// cannot carry fails the framing — anything else must not.
				if _, perr := xmltree.Parse(bytes.NewReader(buf.Bytes())); perr == nil {
					t.Fatalf("bin decode failed on parseable framing: %v", serr)
				}
			}
			if serr != nil {
				return
			}
			x, err := EncodeShipmentCodec(out, sch, Codec{})
			if err != nil {
				t.Fatal(err)
			}
			wantDec, derr := DecodeShipmentAuto(x, sch, lookup)
			if derr != nil {
				t.Fatal(derr)
			}
			if err := shipmentsEqual(wantDec, gotDec); err != nil {
				t.Fatal(err)
			}
		}

		// Torn prefix: two single-record chunks, cut anywhere.
		var cbuf bytes.Buffer
		sw := NewShipmentWriterCodec(&cbuf, sch, codec)
		if err := sw.EmitChunk("0:ord", frag, []*xmltree.Node{rec(id, parent, svcID, text)}, 0); err != nil {
			t.Fatal(err)
		}
		if err := sw.EmitChunk("0:ord", frag, []*xmltree.Node{rec(text, id, parent, svcID)}, 1); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		wireBytes := cbuf.Bytes()
		torn := wireBytes[:int(cut)%(len(wireBytes)+1)]

		got := map[string]*core.Instance{}
		var done []int64
		d := NewShipmentDecoderInto(sch, lookup, got)
		d.ChunkDone = func(s int64) { done = append(done, s) }
		scanErr := xmltree.ScanAttrs(bytes.NewReader(torn), d)
		for i, s := range done {
			if s != int64(i) {
				t.Fatalf("cut %d: committed chunks %v, want prefix of [0 1]", len(torn), done)
			}
		}
		if scanErr == nil && len(torn) == len(wireBytes) && len(done) != 2 {
			t.Fatalf("full stream committed %v chunks, want [0 1]", done)
		}
		var gotRecs int
		if in := got["0:ord"]; in != nil {
			gotRecs = len(in.Records)
		}
		if gotRecs != len(done) {
			t.Fatalf("cut %d: %d records committed across %d finished chunks — a torn chunk leaked",
				len(torn), gotRecs, len(done))
		}
	})
}
