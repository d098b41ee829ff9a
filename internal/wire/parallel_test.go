package wire

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"xdx/internal/core"
	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// parallelFixture builds a many-chunk shipment: chunks large enough that
// rendering costs something, numerous enough that commit order, torn
// streams and stalls have chunk boundaries to land on.
func parallelFixture(t testing.TB) (*schema.Schema, *core.Fragment, [][]*xmltree.Node) {
	t.Helper()
	sch := schema.CustomerInfo()
	f, err := core.NewFragment(sch, "feat", []string{"Feature", "FeatureID"})
	if err != nil {
		t.Fatal(err)
	}
	chunks := make([][]*xmltree.Node, 48)
	for c := range chunks {
		recs := make([]*xmltree.Node, 16)
		for i := range recs {
			id := fmt.Sprintf("1.%d.%d", c, i)
			recs[i] = &xmltree.Node{Name: "Feature", ID: id, Parent: "l1", Kids: []*xmltree.Node{
				{Name: "FeatureID", ID: id + ".1", Parent: id, Text: fmt.Sprintf("feature&<%d>", i%5)},
			}}
		}
		chunks[c] = recs
	}
	return sch, f, chunks
}

func encodeChunks(t testing.TB, sch *schema.Schema, f *core.Fragment, chunks [][]*xmltree.Node, codec Codec) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, codec)
	sw.SetObs(obs.NewRegistry())
	for seq, recs := range chunks {
		if err := sw.EmitChunk(fmt.Sprintf("%d:feat", seq%3), f, recs, int64(seq)); err != nil {
			t.Fatalf("emit %d: %v", seq, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// referenceRender is encodeChunks without the writer: renderChunk run
// chunk by chunk onto one buffer, the bytes the writer must reproduce.
func referenceRender(t testing.TB, sch *schema.Schema, f *core.Fragment, chunks [][]*xmltree.Node, codec Codec) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("<shipment>")
	for seq, recs := range chunks {
		if err := renderChunk(&buf, sch, codec, fmt.Sprintf("%d:feat", seq%3), f, recs, int64(seq)); err != nil {
			t.Fatalf("render %d: %v", seq, err)
		}
	}
	buf.WriteString("</shipment>")
	return buf.Bytes()
}

// treeDecode is the tree codec's reading of a shipment: xmltree.Parse,
// then DecodeShipmentAuto one chunk at a time, appending chunks that share
// an edge key to one instance as the streaming decoder does.
func treeDecode(wire []byte, sch *schema.Schema, lookup func(string) *core.Fragment) (map[string]*core.Instance, error) {
	x, err := xmltree.Parse(bytes.NewReader(wire))
	if err != nil {
		return nil, err
	}
	out := map[string]*core.Instance{}
	for _, ix := range x.Kids {
		chunk, err := DecodeShipmentAuto(&xmltree.Node{Name: "shipment", Kids: []*xmltree.Node{ix}}, sch, lookup)
		if err != nil {
			return nil, err
		}
		for key, in := range chunk {
			if out[key] == nil {
				out[key] = in
			} else {
				out[key].Records = append(out[key].Records, in.Records...)
			}
		}
	}
	return out, nil
}

// TestParallelEncodeByteIdentical is the writer's property on the encode
// side: for every codec, its byte stream is identical to renderChunk's,
// run chunk by chunk.
func TestParallelEncodeByteIdentical(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	for _, name := range Codecs() {
		codec, err := ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		got, want := encodeChunks(t, sch, f, chunks, codec), referenceRender(t, sch, f, chunks, codec)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: writer bytes differ from the serial render (len %d vs %d)", name, len(got), len(want))
		}
	}
}

// TestParallelDecodeMatchesSerial holds the streaming decoder to the tree
// codec's instances AND to its hook discipline: chunks commit in stream
// order, so ChunkDone sees ascending seqs.
func TestParallelDecodeMatchesSerial(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	lookup := func(string) *core.Fragment { return f }
	for _, name := range Codecs() {
		codec, err := ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		wire := encodeChunks(t, sch, f, chunks, codec)
		want, err := treeDecode(wire, sch, lookup)
		if err != nil {
			t.Fatalf("%s: tree decode: %v", name, err)
		}
		d := NewShipmentDecoder(sch, lookup)
		d.Met = obs.NewRegistry()
		var seqs []int64
		d.ChunkDone = func(s int64) { seqs = append(seqs, s) }
		if err := xmltree.ScanAttrs(bytes.NewReader(wire), d); err != nil {
			t.Fatalf("%s: scan: %v", name, err)
		}
		got, err := d.Result()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := shipmentsEqual(want, got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(seqs) != len(chunks) {
			t.Fatalf("%s: %d ChunkDone calls, want %d", name, len(seqs), len(chunks))
		}
		for i, s := range seqs {
			if s != int64(i) {
				t.Fatalf("%s: ChunkDone order %v, want ascending from 0", name, seqs)
			}
		}
	}
}

// TestParallelDecodeSlabStringsIntact holds the decoders' slab-backed
// strings to the records that were shipped: every chunk here carries more
// key and text bytes than one string block holds, so strings handed out
// early in a chunk must survive the blocks that roll over behind them.
func TestParallelDecodeSlabStringsIntact(t *testing.T) {
	sch := schema.CustomerInfo()
	f, err := core.NewFragment(sch, "feat", []string{"Feature", "FeatureID"})
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(string) *core.Fragment { return f }
	chunks := make([][]*xmltree.Node, 12)
	want := map[string]*core.Instance{}
	for c := range chunks {
		recs := make([]*xmltree.Node, 400)
		for i := range recs {
			id := fmt.Sprintf("1.%d.%d", c, i)
			recs[i] = &xmltree.Node{Name: "Feature", ID: id, Parent: fmt.Sprintf("1.%d", c), Kids: []*xmltree.Node{
				{Name: "FeatureID", Parent: id, Text: strings.Repeat(fmt.Sprintf("<%d&%d>", c, i), 1+i%40)},
			}}
		}
		chunks[c] = recs
		key := fmt.Sprintf("%d:feat", c%3)
		if want[key] == nil {
			want[key] = &core.Instance{Frag: f}
		}
		want[key].Records = append(want[key].Records, recs...)
	}
	for _, name := range []string{CodecBin, CodecBinFlate, CodecXML} {
		codec, err := ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		d := NewShipmentDecoder(sch, lookup)
		if err := xmltree.ScanAttrs(bytes.NewReader(encodeChunks(t, sch, f, chunks, codec)), d); err != nil {
			t.Fatalf("%s: scan: %v", name, err)
		}
		got, err := d.Result()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := shipmentsEqual(want, got); err != nil {
			t.Errorf("%s: decoded shipment differs from what was shipped: %v", name, err)
		}
	}
}

// stallReader yields the stream in tiny bursts with pauses — the shape of
// a stalling fault link — so chunks close across many reads.
type stallReader struct {
	data []byte
	pos  int
}

func (s *stallReader) Read(p []byte) (int, error) {
	if s.pos >= len(s.data) {
		return 0, io.EOF
	}
	if s.pos%1024 == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	n := copy(p, s.data[s.pos:min(s.pos+512, len(s.data))])
	s.pos += n
	return n, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestParallelDecodeTornAndStalled replays the fault matrix at the wire
// layer: the shipment stream is cut at every chunk boundary region and
// trickled in with stalls. Whatever the cut, the decoder must (a) fail
// the scan or report an incomplete shipment for torn streams, (b) never
// commit a torn chunk, (c) commit only a contiguous prefix of the
// sequenced chunks — the invariant resumable sessions rest on — and (d)
// commit every chunk whose close tag lies before the cut, so a retry
// re-ships only the tail.
func TestParallelDecodeTornAndStalled(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	lookup := func(string) *core.Fragment { return f }
	for _, name := range []string{CodecXML, CodecBin, CodecBinFlate} {
		codec, _ := ParseCodec(name)
		wire := encodeChunks(t, sch, f, chunks, codec)
		for _, cut := range []int{len(wire) / 7, len(wire) / 3, len(wire) / 2, len(wire) - 20, len(wire)} {
			d := NewShipmentDecoder(sch, lookup)
			var seqs []int64
			d.ChunkDone = func(s int64) { seqs = append(seqs, s) }
			scanErr := xmltree.ScanAttrs(&stallReader{data: wire[:cut]}, d)
			_, resErr := d.Result()
			if cut == len(wire) {
				if scanErr != nil || resErr != nil {
					t.Fatalf("%s: intact stream failed: scan=%v result=%v", name, scanErr, resErr)
				}
			} else if scanErr == nil && resErr == nil {
				t.Fatalf("%s: cut=%d: torn stream decoded as complete", name, cut)
			}
			for i, s := range seqs {
				if s != int64(i) {
					t.Fatalf("%s: cut=%d: committed seqs %v are not a contiguous prefix", name, cut, seqs)
				}
			}
			if whole := bytes.Count(wire[:cut], []byte("</instance>")); len(seqs) != whole {
				t.Fatalf("%s: cut=%d: committed %d chunks, want the %d whole before the cut", name, cut, len(seqs), whole)
			}
		}
	}
}

// FuzzParallelCodecEquivalence fuzzes record content through every codec
// and holds the streaming codec to its references both ways: the writer
// emits the serial render's byte stream, and the decoder returns the tree
// codec's instances.
func FuzzParallelCodecEquivalence(f *testing.F) {
	f.Add("f1", "tone&", "l<>1", uint8(3))
	f.Add("", "", "", uint8(0))
	f.Add(`k"'é`, "\t\n x", "p|", uint8(9))
	sch := schema.CustomerInfo()
	frag, err := core.NewFragment(sch, "feat", []string{"Feature", "FeatureID"})
	if err != nil {
		f.Fatal(err)
	}
	lookup := func(string) *core.Fragment { return frag }
	f.Fuzz(func(t *testing.T, id, text, parent string, n uint8) {
		chunks := make([][]*xmltree.Node, 1+int(n)%12)
		for c := range chunks {
			cid := fmt.Sprintf("%s.%d", id, c)
			chunks[c] = []*xmltree.Node{{Name: "Feature", ID: cid, Parent: parent, Kids: []*xmltree.Node{
				{Name: "FeatureID", ID: cid + ".1", Parent: cid, Text: text},
			}}}
		}
		for _, name := range Codecs() {
			codec, _ := ParseCodec(name)
			wire := encodeChunks(t, sch, frag, chunks, codec)
			if !bytes.Equal(wire, referenceRender(t, sch, frag, chunks, codec)) {
				t.Fatalf("%s: writer bytes diverge from the serial render", name)
			}
			// Fuzzed strings may contain characters XML cannot carry; the
			// tree codec and the streaming decoder must then fail alike.
			wantDec, terr := treeDecode(wire, sch, lookup)
			gotDec, perr := ReadShipment(bytes.NewReader(wire), sch, lookup)
			if (terr == nil) != (perr == nil) {
				t.Fatalf("%s: tree err=%v, streaming err=%v", name, terr, perr)
			}
			if terr != nil {
				continue
			}
			if err := shipmentsEqual(wantDec, gotDec); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

// TestParallelWriterErrorSurfaces: a failed chunk (here: a writer error)
// must surface on an Emit or at Close, and the writer must not hang.
func TestParallelWriterErrorSurfaces(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	sw := NewShipmentWriterCodec(&failAfter{n: 10}, sch, Codec{Kind: CodecXML})
	var firstErr error
	for seq, recs := range chunks {
		if err := sw.EmitChunk("0:feat", f, recs, int64(seq)); err != nil {
			firstErr = err
			break
		}
	}
	if cerr := sw.Close(); firstErr == nil {
		firstErr = cerr
	}
	if firstErr == nil {
		t.Fatal("writer error never surfaced")
	}
}

// failAfter errors every write after the first n bytes.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	f.n -= len(p)
	if f.n <= 0 {
		return 0, fmt.Errorf("sink failed")
	}
	return len(p), nil
}

// TestParallelCodecUnderFaultyLink runs the writer and the decoder against
// a seeded netsim.FaultyLink: the writer renders into a link that stalls
// and cuts mid-stream, and the decoder reads whatever bytes survived. This
// is the wire-layer slice of the fault matrix; whatever the link injects, a
// torn stream must never decode as complete and committed chunks must stay
// a contiguous prefix of the sequence.
func TestParallelCodecUnderFaultyLink(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	lookup := func(string) *core.Fragment { return f }
	for _, name := range []string{CodecXML, CodecBinFlate} {
		codec, err := ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			fl := netsim.NewFaultyLink(netsim.Link{}, netsim.Faults{
				Seed:         seed,
				TruncateProb: 0.5,
				StallProb:    0.4,
				Stall:        time.Millisecond,
				MaxTruncate:  2048,
			})
			var buf bytes.Buffer
			sw := NewShipmentWriterCodec(fl.Writer(&buf), sch, codec)
			var encErr error
			for seq, recs := range chunks {
				if encErr = sw.EmitChunk(fmt.Sprintf("%d:feat", seq%3), f, recs, int64(seq)); encErr != nil {
					break
				}
			}
			if cerr := sw.Close(); encErr == nil {
				encErr = cerr
			}
			torn := fl.Counts().Truncates > 0
			if !torn && encErr != nil {
				t.Fatalf("%s: seed %d: clean link, encode failed: %v", name, seed, encErr)
			}
			d := NewShipmentDecoder(sch, lookup)
			var seqs []int64
			d.ChunkDone = func(s int64) { seqs = append(seqs, s) }
			scanErr := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d)
			_, resErr := d.Result()
			if !torn {
				if scanErr != nil || resErr != nil {
					t.Fatalf("%s: seed %d: clean stream failed: scan=%v result=%v", name, seed, scanErr, resErr)
				}
				if len(seqs) != len(chunks) {
					t.Fatalf("%s: seed %d: clean stream committed %d/%d chunks", name, seed, len(seqs), len(chunks))
				}
			} else if scanErr == nil && resErr == nil && len(seqs) == len(chunks) {
				t.Fatalf("%s: seed %d: torn stream decoded as complete", name, seed)
			}
			for i, s := range seqs {
				if s != int64(i) {
					t.Fatalf("%s: seed %d: committed seqs %v are not a contiguous prefix", name, seed, seqs)
				}
			}
		}
	}
}

// TestParallelEmitAfterCloseRejected keeps the closed-writer contract.
func TestParallelEmitAfterCloseRejected(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, Codec{Kind: CodecBin, Flate: true})
	if err := sw.Emit("0:feat", f, &core.Instance{Records: chunks[0]}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Emit("0:feat", f, &core.Instance{Records: chunks[1]}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("emit after close: %v", err)
	}
}
