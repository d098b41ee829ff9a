package wire

// This file implements the zero-materialization streaming wire path for
// fragment shipments. The tree codec (EncodeShipment/DecodeShipment) clones
// every record to strip identifiers, builds a full envelope xmltree, and —
// on the receiving end — parses the whole shipment back into a tree before
// instances are rebuilt. The paper's own argument (§4.1, Table 3) is that
// communication dominates an exchange, so the wire layer must not
// re-materialize the instances a program slice hands it: the encoder here
// serializes instances directly to a writer with pooled buffers and no
// intermediate copies, and the decoder builds core.Instance records
// straight from SAX events, restoring interior PARENT links from nesting on
// the fly, without ever constructing the shipment tree.
//
// Both codecs produce and accept the same wire format, byte for byte (the
// property tests in stream_test.go hold them to it), so streaming and
// buffered peers interoperate freely.

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"bufio"

	"xdx/internal/bufpool"
	"xdx/internal/core"
	"xdx/internal/obs"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// ShipmentWriter streams a shipment onto a writer as a sequence of
// <instance> chunks inside one <shipment> element. Emit is safe for
// concurrent use; chunks sharing an edge key are merged back into one
// instance by the decoders.
//
// Chunks are rendered by a bounded worker pool (parallel.go) and spliced
// onto the writer in emit order; SetWorkers(1) selects the serial in-line
// path. In the parallel mode a chunk's render error may surface on a later
// Emit or at Close rather than on the Emit that submitted it.
type ShipmentWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	sch    *schema.Schema
	codec  Codec
	opened bool
	closed bool

	reqWorkers int           // SetWorkers knob; resolved on first emit
	workers    int           // resolved pool size; 1 = serial
	sem        chan struct{} // render-pool slots (parallel mode)
	fifo       []*encJob     // submitted chunks awaiting in-order splice
	firstErr   error         // first failed chunk; sticky
	met        *obs.Registry
	delta      bool

	chunk   int   // SetChunk: records per self-numbered chunk, 0 = off
	nextSeq int64 // seq of the next self-numbered chunk
	payload int64 // RecordBytes of everything rendered so far
}

// SetChunk makes the writer cut and number its own chunks: every Emit is
// split into chunks of at most n records, sequenced densely from 0 in emit
// order (an Emit without records still yields its one announcing chunk) —
// for a sorted-key emitter exactly the chunks reliable.ChunkShipment cuts.
// Must be called before the first Emit; n <= 0 leaves Emit unsequenced.
func (sw *ShipmentWriter) SetChunk(n int) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.opened {
		sw.chunk = n
	}
}

// PayloadBytes reports the RecordBytes of the chunks rendered so far; after
// Close, of the whole shipment.
func (sw *ShipmentWriter) PayloadBytes() int64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.payload
}

// SetDelta marks the shipment as a delta: the open tag carries delta="1",
// telling the target to patch its previous snapshot instead of replacing
// it. Must be called before the first Emit.
func (sw *ShipmentWriter) SetDelta(on bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.opened {
		sw.delta = on
	}
}

// NewShipmentWriter starts a shipment onto w. When preferFeed is set, flat
// fragments travel as sorted-feed chunks (format="feed"); anything else is
// keyed XML. Close must be called to complete the shipment and release the
// pooled buffer.
func NewShipmentWriter(w io.Writer, sch *schema.Schema, preferFeed bool) *ShipmentWriter {
	c := Codec{Kind: CodecXML}
	if preferFeed {
		c.Kind = CodecFeed
	}
	return NewShipmentWriterCodec(w, sch, c)
}

// NewShipmentWriterCodec starts a shipment onto w in the given codec. Feed
// chunks fall back to keyed XML for non-flat fragments; bin carries any
// fragment. Close must be called to complete the shipment and release the
// pooled buffer.
func NewShipmentWriterCodec(w io.Writer, sch *schema.Schema, codec Codec) *ShipmentWriter {
	return &ShipmentWriter{bw: bufpool.Writer(w), sch: sch, codec: codec}
}

// Emit writes one instance chunk carrying recs for the cross-edge key (cut
// into several, when SetChunk asked for it).
func (sw *ShipmentWriter) Emit(key string, frag *core.Fragment, recs []*xmltree.Node) error {
	return sw.emit(key, frag, recs, -1)
}

// EmitChunk writes one sequenced instance chunk — the resumable unit of a
// shipment session. The seq attribute rides on the chunk so the target's
// idempotency ledger can checkpoint and skip replays (internal/reliable).
func (sw *ShipmentWriter) EmitChunk(key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) error {
	return sw.emit(key, frag, recs, seq)
}

func (sw *ShipmentWriter) emit(key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if seq >= 0 || sw.chunk <= 0 {
		return sw.emitLocked(key, frag, recs, seq)
	}
	for {
		n := min(len(recs), sw.chunk)
		if err := sw.emitLocked(key, frag, recs[:n], sw.nextSeq); err != nil {
			return err
		}
		sw.nextSeq++
		if recs = recs[n:]; len(recs) == 0 {
			return nil
		}
	}
}

// emitLocked renders one chunk, in-line or through the pool. Caller holds
// sw.mu.
func (sw *ShipmentWriter) emitLocked(key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) error {
	if sw.closed {
		return fmt.Errorf("wire: emit on closed shipment writer")
	}
	if sw.firstErr != nil {
		return sw.firstErr
	}
	workers := sw.encodeWorkers()
	sw.openLocked()
	if workers > 1 {
		return sw.emitParallel(key, frag, recs, seq)
	}
	sw.payload += RecordBytes(recs)
	return renderChunk(sw.bw, sw.sch, sw.codec, key, frag, recs, seq)
}

// openLocked writes the shipment open tag once. Caller holds sw.mu.
func (sw *ShipmentWriter) openLocked() {
	if sw.opened {
		return
	}
	sw.opened = true
	if sw.delta {
		sw.bw.WriteString(`<shipment delta="1">`)
	} else {
		sw.bw.WriteString("<shipment>")
	}
}

// EmitTombstones writes one sequenced tombstone chunk: the record IDs the
// delta's source no longer has for this edge. Tombstones are always tagged
// XML regardless of codec — they are tiny — and always sequenced, so the
// session ledger checkpoints them like any chunk. In parallel mode the
// render pool is drained first: the agency emits tombstones after every
// record chunk, so the drain keeps the byte stream identical to the serial
// writer's.
func (sw *ShipmentWriter) EmitTombstones(key string, ids []string, seq int64) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return fmt.Errorf("wire: emit on closed shipment writer")
	}
	if sw.firstErr != nil {
		return sw.firstErr
	}
	sw.encodeWorkers()
	sw.openLocked()
	if err := sw.spliceLocked(0); err != nil {
		return err
	}
	sw.bw.WriteString(`<tombstones edge="`)
	xmltree.Escape(sw.bw, key)
	writeSeqAttr(sw.bw, seq)
	sw.bw.WriteString(`">`)
	for _, id := range ids {
		sw.bw.WriteString(`<d ID="`)
		xmltree.Escape(sw.bw, id)
		sw.bw.WriteString(`"/>`)
	}
	sw.bw.WriteString("</tombstones>")
	return nil
}

// renderChunk writes the complete wire bytes of one instance chunk. It is
// the single chunk serializer — the serial path points it at the shipment
// writer, the parallel workers at private pooled buffers — which is what
// makes the two paths byte-identical by construction.
func renderChunk(bw *bufio.Writer, sch *schema.Schema, codec Codec, key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) error {
	switch {
	case codec.Kind == CodecBin:
		return renderBinChunk(bw, sch, codec, key, frag, recs, seq)
	case codec.Kind == CodecFeed && checkFlat(sch, frag) == nil:
		return renderFeedChunk(bw, sch, key, frag, recs, seq)
	}
	bw.WriteString(`<instance edge="`)
	xmltree.Escape(bw, key)
	bw.WriteString(`" frag="`)
	xmltree.Escape(bw, frag.Name)
	writeSeqAttr(bw, seq)
	if len(recs) == 0 {
		bw.WriteString(`"/>`)
		return nil
	}
	bw.WriteString(`">`)
	for _, rec := range recs {
		streamRecord(bw, rec, true)
	}
	bw.WriteString("</instance>")
	return nil
}

// writeSeqAttr appends the seq attribute (continuing an open attribute
// position: the caller has written up to a value's closing point).
func writeSeqAttr(bw *bufio.Writer, seq int64) {
	if seq < 0 {
		return
	}
	bw.WriteString(`" seq="`)
	bw.WriteString(strconv.FormatInt(seq, 10))
}

// renderFeedChunk writes one feed-format instance chunk. Feed text escapes
// the XML-special characters itself, so the rows embed verbatim.
func renderFeedChunk(bw *bufio.Writer, sch *schema.Schema, key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) error {
	bw.WriteString(`<instance edge="`)
	xmltree.Escape(bw, key)
	bw.WriteString(`" frag="`)
	xmltree.Escape(bw, frag.Name)
	writeSeqAttr(bw, seq)
	bw.WriteString(`" format="feed`)
	if len(recs) == 0 {
		bw.WriteString(`"/>`)
		return nil
	}
	bw.WriteString(`">`)
	if err := writeFeedRecords(bw, &core.Instance{Frag: frag, Records: recs}, sch); err != nil {
		return err
	}
	bw.WriteString("</instance>")
	return nil
}

// renderBinChunk writes one binary-format instance chunk: the records'
// compact binary encoding (optionally DEFLATE-compressed) travels
// base64-wrapped as the element's character data. Each chunk is a
// self-contained compression frame, so resumable sessions keep their
// chunk-granular recovery.
func renderBinChunk(bw *bufio.Writer, sch *schema.Schema, codec Codec, key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) error {
	bw.WriteString(`<instance edge="`)
	xmltree.Escape(bw, key)
	bw.WriteString(`" frag="`)
	xmltree.Escape(bw, frag.Name)
	writeSeqAttr(bw, seq)
	bw.WriteString(`" format="bin`)
	if codec.Flate {
		bw.WriteString(`" enc="flate`)
	}
	if len(recs) == 0 {
		bw.WriteString(`"/>`)
		return nil
	}
	bw.WriteString(`">`)
	if err := writeBinChunk(bw, recs, sch, codec.Flate); err != nil {
		return err
	}
	bw.WriteString("</instance>")
	return nil
}

// Close completes the shipment, flushes, and returns the buffer to the
// pool. A shipment with no emitted instance closes as <shipment/>.
func (sw *ShipmentWriter) Close() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return nil
	}
	sw.closed = true
	err := sw.spliceLocked(0)
	switch {
	case sw.opened:
		sw.bw.WriteString("</shipment>")
	case sw.delta:
		sw.bw.WriteString(`<shipment delta="1"/>`)
	default:
		sw.bw.WriteString("<shipment/>")
	}
	if ferr := sw.bw.Flush(); err == nil {
		err = ferr
	}
	bufpool.PutWriter(sw.bw)
	sw.bw = nil
	return err
}

// streamRecord serializes one shipment record directly, producing exactly
// the bytes the tree codec emits for stripIDs(rec) under EmitAllIDs —
// record roots carry ID and PARENT (Definition 3.1), interior or
// potentially-joinable empty elements keep only ID, leaf values travel
// bare — without ever cloning the record.
func streamRecord(w *bufio.Writer, n *xmltree.Node, isRoot bool) {
	w.WriteByte('<')
	w.WriteString(n.Name)
	interior := len(n.Kids) > 0 || n.Text == ""
	if (isRoot || interior) && n.ID != "" {
		w.WriteString(` ID="`)
		xmltree.Escape(w, n.ID)
		w.WriteByte('"')
	}
	if isRoot && n.Parent != "" {
		w.WriteString(` PARENT="`)
		xmltree.Escape(w, n.Parent)
		w.WriteByte('"')
	}
	for _, a := range n.Attrs {
		w.WriteByte(' ')
		w.WriteString(a.Name)
		w.WriteString(`="`)
		xmltree.Escape(w, a.Value)
		w.WriteByte('"')
	}
	if len(n.Kids) == 0 && n.Text == "" {
		w.WriteString("/>")
		return
	}
	w.WriteByte('>')
	if n.Text != "" {
		xmltree.Escape(w, n.Text)
	}
	for _, k := range n.Kids {
		streamRecord(w, k, false)
	}
	w.WriteString("</")
	w.WriteString(n.Name)
	w.WriteByte('>')
}

// recordSize is the number of bytes streamRecord writes for the record.
func recordSize(n *xmltree.Node, isRoot bool) int64 {
	size := 1 + len(n.Name)
	interior := len(n.Kids) > 0 || n.Text == ""
	if (isRoot || interior) && n.ID != "" {
		size += len(` ID=""`) + xmltree.EscapedLen(n.ID)
	}
	if isRoot && n.Parent != "" {
		size += len(` PARENT=""`) + xmltree.EscapedLen(n.Parent)
	}
	for _, a := range n.Attrs {
		size += len(` =""`) + len(a.Name) + xmltree.EscapedLen(a.Value)
	}
	if len(n.Kids) == 0 && n.Text == "" {
		return int64(size + len("/>"))
	}
	total := int64(size + len("></>") + xmltree.EscapedLen(n.Text) + len(n.Name))
	for _, k := range n.Kids {
		total += recordSize(k, false)
	}
	return total
}

// StreamShipment encodes cross-edge instances directly to w — no record
// clones, no intermediate xmltree — in deterministic (sorted-key) order.
// With preferFeed, flat fragments travel as sorted feeds, mirroring
// EncodeShipmentAuto. It produces byte-for-byte the serialization of the
// tree codec for the same shipment.
func StreamShipment(w io.Writer, out map[string]*core.Instance, sch *schema.Schema, preferFeed bool) error {
	c := Codec{Kind: CodecXML}
	if preferFeed {
		c.Kind = CodecFeed
	}
	return StreamShipmentCodec(w, out, sch, c)
}

// StreamShipmentCodec is StreamShipment under an explicit codec.
func StreamShipmentCodec(w io.Writer, out map[string]*core.Instance, sch *schema.Schema, codec Codec) error {
	sw := NewShipmentWriterCodec(w, sch, codec)
	if err := EmitShipment(sw, out); err != nil {
		sw.Close()
		return err
	}
	return sw.Close()
}

// EmitShipment emits a whole instance map through an open shipment writer
// in deterministic (sorted-key) order, one chunk per instance. The caller
// closes the writer.
func EmitShipment(sw *ShipmentWriter, out map[string]*core.Instance) error {
	for _, key := range sortedKeys(out) {
		in := out[key]
		if err := sw.Emit(key, in.Frag, in.Records); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(out map[string]*core.Instance) []string {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ShipmentDecoder is a SAX handler that rebuilds the inbound instance map
// directly from shipment parse events: record nodes are constructed as
// their tags open, interior PARENT links are restored from nesting on the
// fly (an element inside a record whose PARENT did not travel must be the
// child of the enclosing element instance — nesting is exactly the parent
// relation the encoder erased), and feed-format instances are re-parsed
// from their accumulated rows. The surrounding envelope tree is never
// built. Instance chunks sharing an edge key append to one instance, which
// is what lets the streaming encoder emit batches as producers finish.
type ShipmentDecoder struct {
	sch    *schema.Schema
	lookup func(name string) *core.Fragment

	// OnChunk, when set, is consulted as each <instance> chunk opens with
	// the chunk's seq attribute (-1 when unsequenced). Returning false skips
	// the whole chunk — the resume path of a shipment session declines
	// chunks below the target's checkpoint without parsing their records.
	OnChunk func(seq int64) bool
	// KeepRecords, when set, filters each chunk's records at commit time,
	// in place: it returns the prefix of recs that holds the records to
	// keep, in order. The reliable ledger plugs in here to drop replayed
	// records by (edge, ID), once per chunk rather than once per record.
	KeepRecords func(edge string, recs []*xmltree.Node) []*xmltree.Node
	// ChunkDone, when set, fires after a chunk commits — the moment it is
	// safe to checkpoint its seq.
	ChunkDone func(seq int64)
	// OnCommit, when set, fires inside each chunk commit with the
	// post-dedup records about to enter the instance map — after
	// KeepRecords filtered replays, before ChunkDone advances the
	// checkpoint. A durable endpoint journals the chunk here: the write-
	// ahead invariant is exactly this ordering (logged before
	// checkpointable). An error aborts the commit — nothing reaches the
	// map, the checkpoint stays — failing the delivery attempt so the
	// driver retries or resumes.
	OnCommit func(key string, frag *core.Fragment, seq int64, recs []*xmltree.Node) error
	// CommitAsync, when set, replaces OnCommit AND the decoder's own
	// apply: it receives each chunk's post-dedup records at commit time
	// and takes ownership of appending them to the instance map and
	// firing the checkpoint advance (ChunkDone) once the commit is
	// actually durable. A group-committing durable endpoint plugs in
	// here — it submits the journal frame and returns immediately, so the
	// scanner parses the next chunk while the previous one's fsync is in
	// flight, and only the *ack* (checkpoint + response) waits. OnChunk
	// admission, KeepRecords dedup, and CommitLock still apply exactly as
	// in the synchronous path. An error aborts the commit and fails the
	// delivery attempt.
	CommitAsync func(key string, frag *core.Fragment, seq int64, recs []*xmltree.Node) error
	// CommitLock, when set, is held across each chunk commit. A resumable
	// session decodes concurrent delivery attempts into one shared
	// instance map — a retried delivery can race a straggler whose torn
	// connection is still draining — so the endpoint passes the session
	// mutex here, serializing map writes and record appends against each
	// other and against the executing target. Under the lock the chunk's
	// admission is re-checked via OnChunk: a chunk another attempt
	// committed while this one was parsing it is dropped wholesale, which
	// keeps records exactly-once even when they carry no IDs.
	CommitLock sync.Locker
	// OnTombs, when set, owns each tombstone chunk: it receives the edge
	// key, the chunk seq, and the deleted record IDs at commit time, and is
	// responsible for applying the deletion and firing the checkpoint
	// advance once durable — mirroring CommitAsync for record chunks.
	// Without it, tombstones accumulate in Tombs and ChunkDone fires
	// directly. OnChunk admission and CommitLock apply either way.
	OnTombs func(key string, seq int64, ids []string) error
	// Tombs collects, per edge key, the tombstoned record IDs of a delta
	// shipment when no OnTombs hook is set.
	Tombs map[string][]string
	// Workers dials the raw-chunk parse pool (parallel.go): 0 (the
	// default) is one worker per CPU, 1 or less parses in-line. Set it
	// before scanning. Whatever the count, chunks commit in stream order
	// on the scanner goroutine, so the hooks above behave identically.
	Workers int
	// Met, when set, exposes the parse pool's queue depth and latencies.
	Met *obs.Registry

	out     map[string]*core.Instance
	started bool
	done    bool
	delta   bool
	depth   int
	skip    int

	workers int           // resolved pool size; 1 = serial
	sem     chan struct{} // parse-pool slots (parallel mode)
	jobs    []*parseJob   // submitted chunks awaiting in-order commit
	arena   xmltree.Arena // tagged-XML chunks' nodes and text; lives for the shipment

	// Chunk staging: records of the open <instance> accumulate here and
	// commit to the shared map only at its close tag, so a connection torn
	// mid-chunk never leaves a half-parsed record behind — the unit of
	// atomicity the resumable sessions replay on.
	stageKey  string
	stageFrag *core.Fragment
	stageSeq  int64
	stageRecs []*xmltree.Node
	stageTomb bool

	// raw accumulates the character data of feed- and bin-format chunks;
	// both parse at commit time, so they share the chunk-atomic guarantee.
	// The buffer is pooled: it returns to bufpool after the chunk parses
	// (in-line or in its pool worker), so staging costs no steady-state
	// allocation per chunk.
	raw       *bytes.Buffer
	rawFormat string
	rawEnc    string
	stack     []*xmltree.Node
}

// NewShipmentDecoder prepares a decoder resolving fragments via lookup
// (typically the decoded program's dictionary).
func NewShipmentDecoder(sch *schema.Schema, lookup func(name string) *core.Fragment) *ShipmentDecoder {
	return NewShipmentDecoderInto(sch, lookup, nil)
}

// NewShipmentDecoderInto prepares a decoder that accumulates into an
// existing instance map (nil mints a fresh one). Resumed shipment sessions
// decode each delivery attempt with a fresh decoder over the same map, so
// chunks that survived a torn connection are kept across attempts.
func NewShipmentDecoderInto(sch *schema.Schema, lookup func(name string) *core.Fragment, out map[string]*core.Instance) *ShipmentDecoder {
	if out == nil {
		out = map[string]*core.Instance{}
	}
	return &ShipmentDecoder{sch: sch, lookup: lookup, out: out, stageSeq: -1}
}

// StartElement implements xmltree.AttrHandler.
func (d *ShipmentDecoder) StartElement(name string, attrs []xmltree.Attr) error {
	if d.skip > 0 {
		d.skip++
		return nil
	}
	d.depth++
	switch d.depth {
	case 1:
		if name != "shipment" {
			return fmt.Errorf("wire: expected shipment, got %q", name)
		}
		for _, a := range attrs {
			if a.Name == "delta" && (a.Value == "1" || a.Value == "true") {
				d.delta = true
			}
		}
		d.started = true
		return nil
	case 2:
		if name == "tombstones" {
			var key string
			seq := int64(-1)
			for _, a := range attrs {
				switch a.Name {
				case "edge":
					key = a.Value
				case "seq":
					if v, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
						seq = v
					}
				}
			}
			if d.OnChunk != nil && !d.OnChunk(seq) {
				d.depth--
				d.skip = 1
				return nil
			}
			d.stageKey, d.stageSeq, d.stageTomb = key, seq, true
			return nil
		}
		if name != "instance" {
			// Foreign elements inside a shipment are skipped, as the tree
			// decoder ignores what it does not recognize.
			d.depth--
			d.skip = 1
			return nil
		}
		var key, fragName, format, enc string
		seq := int64(-1)
		for _, a := range attrs {
			switch a.Name {
			case "edge":
				key = a.Value
			case "frag":
				fragName = a.Value
			case "format":
				format = a.Value
			case "enc":
				enc = a.Value
			case "seq":
				if v, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
					seq = v
				}
			}
		}
		if d.OnChunk != nil && !d.OnChunk(seq) {
			// Chunk declined (already checkpointed on a prior attempt):
			// skip its whole subtree without parsing records.
			d.depth--
			d.skip = 1
			return nil
		}
		f := d.lookup(fragName)
		if f == nil {
			return fmt.Errorf("wire: shipment references unknown fragment %q", fragName)
		}
		d.stageKey, d.stageFrag, d.stageSeq = key, f, seq
		if format == "feed" || format == "bin" {
			d.raw = bufpool.Buffer()
			d.rawFormat, d.rawEnc = format, enc
		}
		return nil
	}
	if d.raw != nil {
		// The tree decoder ignores element content of feed instances; do the
		// same.
		d.depth--
		d.skip = 1
		return nil
	}
	n := d.arena.New()
	n.Name = name
	for _, a := range attrs {
		switch a.Name {
		case "ID":
			n.ID = a.Value
		case "PARENT":
			n.Parent = a.Value
		default:
			n.Attrs = append(n.Attrs, a)
		}
	}
	if len(d.stack) > 0 && n.Parent == "" {
		// Interior PARENTs are stripped on the wire; nesting is the parent
		// relation, so restore the link the moment the element opens.
		n.Parent = d.stack[len(d.stack)-1].ID
	}
	if len(d.stack) == 0 {
		d.stageRecs = append(d.stageRecs, n)
	} else {
		d.stack[len(d.stack)-1].AddKid(n)
	}
	d.stack = append(d.stack, n)
	return nil
}

// instanceFor returns the accumulating instance of an edge key, creating
// it on first sight.
func (d *ShipmentDecoder) instanceFor(key string, f *core.Fragment) *core.Instance {
	if in := d.out[key]; in != nil {
		return in
	}
	in := &core.Instance{Frag: f}
	d.out[key] = in
	return in
}

// Text implements xmltree.AttrHandler.
func (d *ShipmentDecoder) Text(data string) error {
	switch {
	case d.skip > 0:
	case d.raw != nil:
		if d.raw.Len()+len(data) > MaxChunkBytes {
			return ErrChunkTooLarge
		}
		d.raw.WriteString(data)
	case len(d.stack) > 0:
		top := d.stack[len(d.stack)-1]
		top.Text += data
	}
	return nil
}

// TextBytes implements xmltree.TextBytesHandler: base64 chunk bodies
// accumulate without an intermediate string per event, and leaf values
// are copied into the decode arena's string slab instead of allocated one
// by one.
func (d *ShipmentDecoder) TextBytes(data []byte) error {
	switch {
	case d.skip > 0:
	case d.raw != nil:
		if d.raw.Len()+len(data) > MaxChunkBytes {
			return ErrChunkTooLarge
		}
		d.raw.Write(data)
	case len(d.stack) > 0:
		top := d.stack[len(d.stack)-1]
		if top.Text == "" {
			top.Text = d.arena.Bytes(data)
		} else {
			// Split character data (entity boundaries, CDATA) is rare;
			// fall back to plain concatenation.
			top.Text += string(data)
		}
	}
	return nil
}

// EndElement implements xmltree.AttrHandler.
func (d *ShipmentDecoder) EndElement(string) error {
	if d.skip > 0 {
		d.skip--
		return nil
	}
	switch {
	case len(d.stack) > 0:
		d.stack = d.stack[:len(d.stack)-1]
	case d.depth == 2:
		if err := d.commitChunk(); err != nil {
			return err
		}
	case d.depth == 1:
		// Every chunk the stream carried must be committed before the
		// shipment reads as complete.
		if err := d.drainJobs(0); err != nil {
			return err
		}
		d.done = true
	}
	d.depth--
	return nil
}

// commitChunk routes the staged chunk toward the shared instance map as
// its </instance> closes. Feed rows and bin payloads parse first — in a
// pool worker when the decoder is parallel, in-line otherwise — so those
// chunks are all-or-nothing: a torn chunk's base64/flate/binary parse
// fails before anything reaches the map. Commits always happen in stream
// order on the scanner goroutine (drainJobs); tagged-XML chunks drain the
// pool before committing so mixed-format shipments keep their order.
func (d *ShipmentDecoder) commitChunk() error {
	if d.stageTomb {
		key, seq, recs := d.stageKey, d.stageSeq, d.stageRecs
		d.resetStage()
		// Tombstones commit in stream order like every chunk: drain the
		// parse pool before applying the deletion.
		if err := d.drainJobs(0); err != nil {
			return err
		}
		ids := make([]string, 0, len(recs))
		for _, r := range recs {
			if r.ID != "" {
				ids = append(ids, r.ID)
			}
		}
		return d.commitTombs(key, seq, ids)
	}
	if d.raw != nil {
		key, frag, seq := d.stageKey, d.stageFrag, d.stageSeq
		format, enc, raw := d.rawFormat, d.rawEnc, d.raw
		d.raw = nil // ownership moves to the parse below
		d.resetStage()
		if w := d.decodeWorkers(); w > 1 {
			job := &parseJob{key: key, frag: frag, seq: seq, format: format, enc: enc, buf: raw, done: make(chan struct{})}
			d.jobs = append(d.jobs, job)
			d.Met.Gauge("wire.decode.queue").Set(int64(len(d.jobs)))
			go d.parseAsync(job)
			return d.drainJobs(decQueueSlack * w)
		}
		recs, err := parseRawChunk(raw.Bytes(), format, enc, frag, d.sch)
		bufpool.PutBuffer(raw)
		if err != nil {
			return err
		}
		return d.commitRecs(key, frag, seq, recs)
	}
	key, frag, seq, recs := d.stageKey, d.stageFrag, d.stageSeq, d.stageRecs
	d.resetStage()
	if err := d.drainJobs(0); err != nil {
		return err
	}
	return d.commitRecs(key, frag, seq, recs)
}

// parseRawChunk turns one raw chunk payload into records.
func parseRawChunk(text []byte, format, enc string, frag *core.Fragment, sch *schema.Schema) ([]*xmltree.Node, error) {
	switch format {
	case "feed":
		in, err := ReadFeed(bytes.NewReader(text), frag, sch)
		if err != nil {
			return nil, err
		}
		return in.Records, nil
	case "bin":
		// A self-closed bin instance announces an empty chunk; there is
		// no payload to parse.
		if len(text) == 0 {
			return nil, nil
		}
		return readBinChunk(text, sch, enc)
	}
	return nil, fmt.Errorf("wire: unknown chunk format %q", format)
}

// commitRecs moves one parsed chunk's records into the shared instance
// map, under CommitLock when set; KeepRecords filters replays, and
// ChunkDone marks the seq checkpointable.
func (d *ShipmentDecoder) commitRecs(key string, frag *core.Fragment, seq int64, recs []*xmltree.Node) error {
	if d.CommitLock != nil {
		d.CommitLock.Lock()
		defer d.CommitLock.Unlock()
	}
	if seq >= 0 && d.OnChunk != nil && !d.OnChunk(seq) {
		// Admission lapsed between the chunk's open tag and its commit: a
		// concurrent delivery attempt committed it first.
		return nil
	}
	kept := recs
	if d.KeepRecords != nil {
		kept = d.KeepRecords(key, recs)
	}
	if d.CommitAsync != nil {
		// The async consumer owns the map append and the ChunkDone
		// checkpoint from here; the decoder's job for this chunk is done
		// the moment the commit is submitted.
		return d.CommitAsync(key, frag, seq, kept)
	}
	if d.OnCommit != nil {
		if err := d.OnCommit(key, frag, seq, kept); err != nil {
			return err
		}
	}
	in := d.instanceFor(key, frag)
	in.Records = append(in.Records, kept...)
	if d.ChunkDone != nil {
		d.ChunkDone(seq)
	}
	return nil
}

// commitTombs applies one tombstone chunk under the same admission,
// locking, and checkpoint discipline as commitRecs.
func (d *ShipmentDecoder) commitTombs(key string, seq int64, ids []string) error {
	if d.CommitLock != nil {
		d.CommitLock.Lock()
		defer d.CommitLock.Unlock()
	}
	if seq >= 0 && d.OnChunk != nil && !d.OnChunk(seq) {
		return nil
	}
	if d.OnTombs != nil {
		return d.OnTombs(key, seq, ids)
	}
	if d.Tombs == nil {
		d.Tombs = make(map[string][]string)
	}
	d.Tombs[key] = append(d.Tombs[key], ids...)
	if d.ChunkDone != nil {
		d.ChunkDone(seq)
	}
	return nil
}

// Delta reports whether the shipment announced itself as a delta
// (patch-previous-snapshot) shipment.
func (d *ShipmentDecoder) Delta() bool { return d.delta }

// resetStage clears the per-chunk staging state after a commit or drop.
func (d *ShipmentDecoder) resetStage() {
	if d.raw != nil {
		bufpool.PutBuffer(d.raw)
	}
	d.raw, d.rawFormat, d.rawEnc = nil, "", ""
	d.stageKey, d.stageFrag, d.stageSeq, d.stageRecs = "", nil, -1, nil
	d.stageTomb = false
}

// Result returns the decoded instance map once the shipment element has
// closed.
func (d *ShipmentDecoder) Result() (map[string]*core.Instance, error) {
	if !d.started || !d.done {
		return nil, fmt.Errorf("wire: incomplete shipment stream")
	}
	return d.out, nil
}

// ReadShipment rebuilds the inbound instance map by scanning r in one SAX
// pass — the streaming counterpart of Parse + DecodeShipmentAuto.
func ReadShipment(r io.Reader, sch *schema.Schema, lookup func(name string) *core.Fragment) (map[string]*core.Instance, error) {
	d := NewShipmentDecoder(sch, lookup)
	if err := xmltree.ScanAttrs(r, d); err != nil {
		return nil, err
	}
	return d.Result()
}

// ShipmentBytes reports the size the communication cost is charged on: the
// shipment's records in the universal tagged-XML codec.
func ShipmentBytes(out map[string]*core.Instance) int64 {
	var n int64
	for _, in := range out {
		n += RecordBytes(in.Records)
	}
	return n
}
