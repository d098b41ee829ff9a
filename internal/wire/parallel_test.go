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
// rendering costs something, numerous enough that the pools actually
// overlap work.
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

func encodeChunks(t testing.TB, sch *schema.Schema, f *core.Fragment, chunks [][]*xmltree.Node, codec Codec, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, codec)
	sw.SetWorkers(workers)
	sw.SetObs(obs.NewRegistry())
	for seq, recs := range chunks {
		if err := sw.EmitChunk(fmt.Sprintf("%d:feat", seq%3), f, recs, int64(seq)); err != nil {
			t.Fatalf("workers=%d: emit %d: %v", workers, seq, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("workers=%d: close: %v", workers, err)
	}
	return buf.Bytes()
}

// TestParallelEncodeByteIdentical is the tentpole property on the encode
// side: for every codec, the parallel renderer's byte stream is identical
// to the serial codec's for every worker count.
func TestParallelEncodeByteIdentical(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	for _, name := range Codecs() {
		codec, err := ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeChunks(t, sch, f, chunks, codec, 1)
		for _, workers := range []int{0, 2, 8} {
			got := encodeChunks(t, sch, f, chunks, codec, workers)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: workers=%d bytes differ from serial (len %d vs %d)", name, workers, len(got), len(want))
			}
		}
	}
}

// TestParallelDecodeMatchesSerial holds the parallel decoder to the serial
// decoder's instances AND its hook discipline: chunks commit in stream
// order whatever the worker count, so ChunkDone sees ascending seqs.
func TestParallelDecodeMatchesSerial(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	lookup := func(string) *core.Fragment { return f }
	for _, name := range Codecs() {
		codec, err := ParseCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		wire := encodeChunks(t, sch, f, chunks, codec, 4)
		decode := func(workers int) (map[string]*core.Instance, []int64) {
			d := NewShipmentDecoder(sch, lookup)
			d.Workers = workers
			d.Met = obs.NewRegistry()
			var seqs []int64
			d.ChunkDone = func(s int64) { seqs = append(seqs, s) }
			if err := xmltree.ScanAttrs(bytes.NewReader(wire), d); err != nil {
				t.Fatalf("%s: workers=%d: scan: %v", name, workers, err)
			}
			out, err := d.Result()
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", name, workers, err)
			}
			return out, seqs
		}
		want, wantSeqs := decode(1)
		for _, workers := range []int{0, 2, 8} {
			got, seqs := decode(workers)
			if err := shipmentsEqual(want, got); err != nil {
				t.Errorf("%s: workers=%d: %v", name, workers, err)
			}
			if len(seqs) != len(wantSeqs) {
				t.Fatalf("%s: workers=%d: %d ChunkDone calls, want %d", name, workers, len(seqs), len(wantSeqs))
			}
			for i := range seqs {
				if seqs[i] != wantSeqs[i] {
					t.Fatalf("%s: workers=%d: ChunkDone order %v, want %v", name, workers, seqs, wantSeqs)
				}
			}
		}
	}
}

// TestParallelDecodeSlabStringsIntact holds the decoders' slab-backed
// strings to the records that were shipped: every chunk here carries more
// key and text bytes than one string block holds, so strings handed out
// early in a chunk must survive the blocks that roll over behind them —
// with four chunks decoding at once, under the race detector.
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
		d.Workers = 4
		if err := xmltree.ScanAttrs(bytes.NewReader(encodeChunks(t, sch, f, chunks, codec, 4)), d); err != nil {
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
// a stalling fault link — so commits race parses under the race detector.
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
// trickled in with stalls. Whatever the cut, the parallel decoder must
// (a) fail the scan or report an incomplete shipment for torn streams,
// (b) never commit a torn chunk, and (c) commit only a contiguous prefix
// of the sequenced chunks — the invariant resumable sessions rest on.
func TestParallelDecodeTornAndStalled(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	lookup := func(string) *core.Fragment { return f }
	for _, name := range []string{CodecXML, CodecBinFlate} {
		codec, _ := ParseCodec(name)
		wire := encodeChunks(t, sch, f, chunks, codec, 4)
		for _, cut := range []int{len(wire) / 7, len(wire) / 3, len(wire) / 2, len(wire) - 20, len(wire)} {
			d := NewShipmentDecoder(sch, lookup)
			d.Workers = 8
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
		}
	}
}

// FuzzParallelCodecEquivalence fuzzes record content through every codec
// and asserts the tentpole contract both ways: parallel encode emits the
// serial byte stream, and parallel decode returns the serial instances.
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
			want := encodeChunks(t, sch, frag, chunks, codec, 1)
			got := encodeChunks(t, sch, frag, chunks, codec, 8)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: parallel bytes diverge from serial", name)
			}
			decode := func(workers int) (map[string]*core.Instance, error) {
				d := NewShipmentDecoder(sch, lookup)
				d.Workers = workers
				if err := xmltree.ScanAttrs(bytes.NewReader(want), d); err != nil {
					return nil, err
				}
				return d.Result()
			}
			// Fuzzed strings may contain characters XML cannot carry;
			// serial and parallel must then fail alike.
			wantDec, serr := decode(1)
			gotDec, perr := decode(8)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("%s: serial err=%v, parallel err=%v", name, serr, perr)
			}
			if serr != nil {
				continue
			}
			if err := shipmentsEqual(wantDec, gotDec); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

// TestParallelWriterErrorSurfaces: a chunk that fails to render (here: a
// feed-incompatible record shape is fine — use a writer error instead)
// must surface on a later Emit or at Close, and the writer must not hang.
func TestParallelWriterErrorSurfaces(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	sw := NewShipmentWriterCodec(&failAfter{n: 10}, sch, Codec{Kind: CodecXML})
	sw.SetWorkers(4)
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

// TestParallelCodecUnderFaultyLink runs both parallel pools against a
// seeded netsim.FaultyLink: the encode workers race the splicer into a
// writer that stalls and cuts mid-stream, and the decode workers race the
// committer over whatever bytes survived. Run under -race (scripts/check.sh
// does), this is the wire-layer slice of the fault matrix; whatever the
// link injects, a torn stream must never decode as complete and committed
// chunks must stay a contiguous prefix of the sequence.
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
			sw.SetWorkers(8)
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
			d.Workers = 8
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

// TestParallelEmitAfterCloseRejected keeps the closed-writer contract
// under the parallel path.
func TestParallelEmitAfterCloseRejected(t *testing.T) {
	sch, f, chunks := parallelFixture(t)
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, Codec{Kind: CodecBin, Flate: true})
	sw.SetWorkers(4)
	if err := sw.Emit("0:feat", f, chunks[0]); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Emit("0:feat", f, chunks[1]); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("emit after close: %v", err)
	}
}
