package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"xdx/internal/core"
	"xdx/internal/xmltree"
)

// deltaShipment builds one delta wire stream: a record chunk, an empty
// announce chunk, and a tombstone chunk.
func deltaShipment(t *testing.T) (*bytes.Buffer, func() *ShipmentDecoder) {
	t.Helper()
	sch, f, rec := chunkFixture(t)
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, Codec{})
	sw.SetDelta(true)
	if err := sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}, 0); err != nil {
		t.Fatal(err)
	}
	if err := sw.EmitChunk("1:feat", f, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := sw.EmitTombstones("0:feat", []string{"f7", "f9"}, 2); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, func() *ShipmentDecoder {
		return NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
	}
}

func TestDeltaShipmentRoundTrip(t *testing.T) {
	buf, newDec := deltaShipment(t)
	if !strings.HasPrefix(buf.String(), `<shipment delta="1">`) {
		t.Fatalf("delta attr missing: %s", buf.String())
	}
	d := newDec()
	var seqs []int64
	d.ChunkDone = func(s int64) { seqs = append(seqs, s) }
	if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d); err != nil {
		t.Fatal(err)
	}
	got, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if in := got["0:feat"]; in == nil || len(in.Records) != 1 {
		t.Fatalf("delta records lost: %+v", got)
	}
	if len(seqs) != 3 || seqs[2] != 2 {
		t.Fatalf("ChunkDone seqs = %v, want [0 1 2]", seqs)
	}
	if ids := d.Tombs["0:feat"]; len(ids) != 2 || ids[0] != "f7" || ids[1] != "f9" {
		t.Fatalf("tombstones decoded as %v", d.Tombs)
	}
}

// The pooled writer's delta stream is the serial render: record chunks by
// renderChunk, then the tombstones after every one of them.
func TestDeltaParallelWriterMatchesSerial(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	var want bytes.Buffer
	want.WriteString(`<shipment delta="1">`)
	renderChunk(&want, sch, Codec{}, "0:feat", f, []*xmltree.Node{rec("f1", "i1", "callerID")}, 0)
	renderChunk(&want, sch, Codec{}, "1:feat", f, nil, 1)
	want.WriteString(`<tombstones edge="0:feat" seq="2"><d ID="f7"/><d ID="f9"/></tombstones></shipment>`)
	if got, _ := deltaShipment(t); got.String() != want.String() {
		t.Fatalf("pooled delta stream diverged:\n%s\nvs\n%s", got.String(), want.String())
	}
}

// testTicket is a durability ticket the test resolves by hand.
type testTicket struct {
	done chan struct{}
	err  error
}

func newTestTicket() *testTicket { return &testTicket{done: make(chan struct{})} }

func (t *testTicket) Done() <-chan struct{} { return t.done }

func (t *testTicket) Err() error {
	<-t.done
	return t.err
}

// The one Commit hook sees every chunk — records and tombstones, with
// their payload format — and nothing applies or checkpoints before its
// ticket resolves: here chunk 0's ticket stays open until the tombstone
// chunk commits, so neither may apply earlier, and the tombstones land in
// the Tombs map the caller shares across decoders.
func TestDeltaTombstonesCommitHook(t *testing.T) {
	buf, newDec := deltaShipment(t)
	d := newDec()
	shared := map[string][]string{}
	d.Tombs = shared
	var seqs []int64
	d.ChunkDone = func(s int64) { seqs = append(seqs, s) }
	first := newTestTicket()
	var formats []string
	var hookIDs []string
	d.Commit = func(c *Chunk) (Ticket, error) {
		formats = append(formats, c.Format)
		switch c.Seq {
		case 0:
			if len(c.Recs) != 1 {
				t.Errorf("chunk 0 handed %d records", len(c.Recs))
			}
			return first, nil
		case 2:
			if len(seqs) != 0 {
				t.Errorf("chunks applied before chunk 0's ticket resolved: %v", seqs)
			}
			hookIDs = c.IDs
			close(first.done)
		}
		return nil, nil
	}
	if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Result(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(formats, ",") != "xml,xml,tombstones" || len(hookIDs) != 2 {
		t.Fatalf("Commit saw formats %v, tombstone IDs %v", formats, hookIDs)
	}
	if ids := shared["0:feat"]; len(ids) != 2 || ids[1] != "f9" {
		t.Fatalf("tombstones did not reach the shared map: %v", shared)
	}
	if len(seqs) != 3 || seqs[0] != 0 || seqs[2] != 2 {
		t.Fatalf("seqs = %v", seqs)
	}
}

// A failed ticket fails the shipment, and neither its chunk nor any
// queued behind it applies: a retry re-ships them all.
func TestDecoderFailedTicketAppliesNothing(t *testing.T) {
	buf, newDec := deltaShipment(t)
	d := newDec()
	var seqs []int64
	d.ChunkDone = func(s int64) { seqs = append(seqs, s) }
	failed := newTestTicket()
	failed.err = errors.New("disk full")
	d.Commit = func(c *Chunk) (Ticket, error) {
		if c.Seq == 2 {
			close(failed.done)
		}
		return failed, nil
	}
	if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("scan err = %v, want the ticket's failure", err)
	}
	if len(seqs) != 0 || len(d.Tombs) != 0 {
		t.Fatalf("failed commits applied: seqs %v tombs %v", seqs, d.Tombs)
	}
}

func TestDeltaTombstonesAdmission(t *testing.T) {
	buf, newDec := deltaShipment(t)
	d := newDec()
	// Checkpoint already past every chunk: nothing may commit.
	d.OnChunk = func(seq int64, _ bool) (bool, error) { return seq >= 3, nil }
	d.ChunkDone = func(s int64) { t.Fatalf("ChunkDone(%d) for declined chunk", s) }
	if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d); err != nil {
		t.Fatal(err)
	}
	got, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || len(d.Tombs) != 0 {
		t.Fatalf("declined chunks leaked: %+v %v", got, d.Tombs)
	}
}

// An empty delta shipment still says it is one, and decodes to nothing.
func TestDeltaEmptyShipmentKeepsFlag(t *testing.T) {
	sch, f, _ := chunkFixture(t)
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, Codec{})
	sw.SetDelta(true)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != `<shipment delta="1"/>` {
		t.Fatalf("empty delta shipment = %s, want <shipment delta=\"1\"/>", got)
	}
	d := NewShipmentDecoder(sch, func(string) *core.Fragment { return f })
	if err := xmltree.ScanAttrs(bytes.NewReader(buf.Bytes()), d); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Result(); err != nil || len(got) != 0 {
		t.Fatalf("empty delta shipment decoded to %v, %v", got, err)
	}
}

// Tombstones interleaved with bin-format chunks must still commit in
// stream order.
func TestDeltaTombstoneOrderWithParallelDecode(t *testing.T) {
	sch, f, rec := chunkFixture(t)
	var buf bytes.Buffer
	sw := NewShipmentWriterCodec(&buf, sch, Codec{Kind: CodecBin, Flate: true})
	sw.SetDelta(true)
	for i := 0; i < 6; i++ {
		if err := sw.EmitChunk("0:feat", f, []*xmltree.Node{rec("f"+string(rune('a'+i)), "i", "x")}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.EmitTombstones("0:feat", []string{"dead"}, 6); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
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
	if len(got["0:feat"].Records) != 6 {
		t.Fatalf("records = %d", len(got["0:feat"].Records))
	}
	for i, s := range seqs {
		if int64(i) != s {
			t.Fatalf("out-of-order commits: %v", seqs)
		}
	}
	if len(seqs) != 7 {
		t.Fatalf("seqs = %v", seqs)
	}
	if ids := d.Tombs["0:feat"]; len(ids) != 1 || ids[0] != "dead" {
		t.Fatalf("tombstones %v", d.Tombs)
	}
}
