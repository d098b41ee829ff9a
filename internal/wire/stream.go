package wire

// This file implements the zero-materialization streaming wire path for
// fragment shipments. A tree codec (EncodeShipmentCodec and
// DecodeShipmentAuto, kept in treecodec_test.go as the tests' reference)
// clones every record to strip identifiers, builds a full envelope
// xmltree, and — on the receiving end — parses the whole shipment back
// into a tree before instances are rebuilt. The paper's own argument (§4.1, Table 3) is that
// communication dominates an exchange, so the wire layer must not
// re-materialize the instances a program slice hands it: the encoder here
// serializes instances directly to a writer with pooled buffers and no
// intermediate copies, and the decoder builds core.Instance records
// straight from SAX events, restoring interior PARENT links from nesting on
// the fly, without ever constructing the shipment tree.
//
// Both codecs produce and accept the same wire format, byte for byte; the
// property tests in stream_test.go hold them to it.

import (
	"bytes"
	"errors"
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

// MaxChunkBytes caps the wire size of one chunk: what a ShipmentDecoder
// stages of one raw payload, inflates one flate payload to, or stages of
// one tagged-XML chunk's values. A 64-record chunk is a few KiB; the cap
// only stops a peer from growing a buffer without limit.
const MaxChunkBytes = 16 << 20

// ErrChunkTooLarge reports a chunk beyond MaxChunkBytes.
var ErrChunkTooLarge = errors.New("wire: shipment chunk exceeds the chunk size limit")

// ErrChunkOrder reports a shipment whose chunks are not sequenced densely
// in stream order, which a resumable delivery depends on: a
// ShipmentDecoder wants every chunk after a sequenced one to carry the
// next seq, and a target session wants every chunk sequenced from at most
// its checkpoint.
var ErrChunkOrder = errors.New("wire: shipment chunks are not sequenced densely")

// ErrChunkFormat reports a chunk whose format attribute names no codec
// this build decodes.
var ErrChunkFormat = errors.New("wire: unknown shipment chunk format")

// ShipmentWriter streams a shipment onto a writer as a sequence of
// <instance> chunks inside one <shipment> element. Emit is safe for
// concurrent use; chunks sharing an edge key are merged back into one
// instance by the decoders.
//
// Chunks are rendered by the shared codec pool (parallel.go) and spliced
// onto the writer in emit order, so a chunk's render error may surface on
// a later Emit or at Close rather than on the Emit that submitted it.
type ShipmentWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	sch    *schema.Schema
	codec  Codec
	opened bool
	closed bool

	fifo     []*encJob // submitted chunks awaiting in-order splice
	firstErr error     // first failed chunk; sticky
	renderMS *obs.Histogram
	queue    *obs.Gauge
	delta    bool

	chunk   int   // SetChunk: records per self-numbered chunk, 0 = off
	from    int64 // SetChunk: the first self-numbered chunk written
	nextSeq int64 // seq of the next self-numbered chunk
	payload int64 // RecordBytes of everything rendered so far
}

// SetChunk makes the writer cut and number its own chunks: every Emit is
// split into chunks of at most n records, sequenced densely from 0 in emit
// order (an Emit without records still yields its one announcing chunk) —
// for a sorted-key emitter exactly the chunks reliable.ChunkShipment cuts.
// Tombstone chunks take the next seq too: EmitTombstones' seq argument is
// for writers without SetChunk. Chunks numbered below from are counted
// (their seq and their PayloadBytes) but not written, so a resumed
// delivery re-emits exactly the tail of the shipment it started. Must be
// called before the first Emit; n <= 0 leaves Emit unsequenced.
func (sw *ShipmentWriter) SetChunk(n int, from int64) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.opened {
		sw.chunk, sw.from = n, from
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

// NewShipmentWriterCodec starts a shipment onto w in the given codec. Close
// must be called to complete the shipment and release the pooled buffer.
func NewShipmentWriterCodec(w io.Writer, sch *schema.Schema, codec Codec) *ShipmentWriter {
	return &ShipmentWriter{bw: bufpool.Writer(w), sch: sch, codec: codec}
}

// Emit writes one instance chunk carrying recs for the cross-edge key (cut
// into several, when SetChunk asked for it). Records held as trees must
// stay unmodified until Close, as the pool may render after Emit returns;
// records built on demand are built by each chunk's render job, and by
// the sizing of a chunk below SetChunk's from.
func (sw *ShipmentWriter) Emit(key string, frag *core.Fragment, recs core.Records) error {
	return sw.emit(key, frag, recs, -1)
}

// EmitChunk writes one sequenced instance chunk — the resumable unit of a
// shipment session. The seq attribute rides on the chunk so the target's
// idempotency ledger can checkpoint and skip replays (internal/reliable).
func (sw *ShipmentWriter) EmitChunk(key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) error {
	return sw.emit(key, frag, &core.Instance{Records: recs}, seq)
}

func (sw *ShipmentWriter) emit(key string, frag *core.Fragment, recs core.Records, seq int64) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	n := recs.Len()
	if seq >= 0 || sw.chunk <= 0 {
		return sw.emitLocked(key, frag, recs, 0, n, seq)
	}
	for lo := 0; ; {
		hi := min(n, lo+sw.chunk)
		if sw.nextSeq < sw.from {
			size, err := recordBytes(recs, lo, hi)
			if err != nil {
				return err
			}
			sw.payload += size
		} else if err := sw.emitLocked(key, frag, recs, lo, hi, sw.nextSeq); err != nil {
			return err
		}
		sw.nextSeq++
		if lo = hi; lo == n {
			return nil
		}
	}
}

// recordBytes is the RecordBytes of records [lo, hi) of recs.
func recordBytes(recs core.Records, lo, hi int) (int64, error) {
	var a xmltree.Arena
	built, err := recs.Build(nil, lo, hi, &a)
	return RecordBytes(built), err
}

// openLocked readies the writer for one more chunk — refusing it after
// Close or a failed chunk — and writes the shipment open tag once. Caller
// holds sw.mu.
func (sw *ShipmentWriter) openLocked() error {
	if sw.closed {
		return fmt.Errorf("wire: emit on closed shipment writer")
	}
	if sw.firstErr != nil {
		return sw.firstErr
	}
	if sw.opened {
		return nil
	}
	sw.opened = true
	if sw.delta {
		sw.bw.WriteString(`<shipment delta="1">`)
	} else {
		sw.bw.WriteString("<shipment>")
	}
	return nil
}

// EmitTombstones writes one sequenced tombstone chunk: the record IDs the
// delta's source no longer has for this edge. Tombstones are always tagged
// XML regardless of codec — they are tiny — and always sequenced, so the
// session ledger checkpoints them like any chunk. The render pool is
// drained first, so the tombstones follow every chunk emitted before them.
func (sw *ShipmentWriter) EmitTombstones(key string, ids []string, seq int64) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.chunk > 0 {
		seq = sw.nextSeq
		sw.nextSeq++
		if seq < sw.from {
			return nil
		}
	}
	if err := sw.openLocked(); err != nil {
		return err
	}
	if err := sw.spliceLocked(0); err != nil {
		return err
	}
	sw.bw.WriteString(`<tombstones edge="`)
	xmltree.Escape(sw.bw, key)
	writeSeqAttr(sw.bw, seq)
	sw.bw.WriteString(`">`)
	WriteTombstoneIDs(sw.bw, ids)
	sw.bw.WriteString("</tombstones>")
	return nil
}

// renderChunk appends the complete wire bytes of one instance chunk to buf
// and returns the chunk's payload size: the records' tree-codec size, which
// is the body's own length in the xml codec and is counted as the bin
// encoder walks the records. It is the single chunk serializer; the pool
// workers point it at private pooled buffers, which the writer splices in
// emit order. A bin chunk's records travel as their compact binary
// encoding (optionally DEFLATE-compressed), base64-wrapped as the
// element's character data; each chunk is a self-contained compression
// frame, so resumable sessions keep their chunk-granular recovery.
func renderChunk(buf *bytes.Buffer, sch *schema.Schema, codec Codec, key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) (payload int64, err error) {
	bw := bufpool.Writer(buf)
	defer bufpool.PutWriter(bw)
	bw.WriteString(`<instance edge="`)
	xmltree.Escape(bw, key)
	bw.WriteString(`" frag="`)
	xmltree.Escape(bw, frag.Name)
	writeSeqAttr(bw, seq)
	if codec.Kind == CodecBin {
		bw.WriteString(`" format="bin`)
		if codec.Flate {
			bw.WriteString(`" enc="flate`)
		}
	}
	if len(recs) == 0 {
		bw.WriteString(`"/>`)
		return 0, bw.Flush()
	}
	bw.WriteString(`">`)
	if codec.Kind == CodecBin {
		if payload, err = writeBinChunk(bw, recs, sch, codec.Flate); err != nil {
			return 0, err
		}
	} else {
		// bw writes only into buf, so the two together count every byte.
		start := buf.Len() + bw.Buffered()
		WriteRecords(bw, recs)
		payload = int64(buf.Len() + bw.Buffered() - start)
	}
	bw.WriteString("</instance>")
	return payload, bw.Flush()
}

// WriteRecords writes recs as the xml codec's chunk body: the content of a
// tagged-XML <instance> element, which a ShipmentDecoder reads back through
// Replay as well as inside a shipment.
func WriteRecords(bw *bufio.Writer, recs []*xmltree.Node) {
	for _, rec := range recs {
		streamRecord(bw, rec, true)
	}
}

// WriteTombstoneIDs writes ids as the body of a <tombstones> chunk.
func WriteTombstoneIDs(bw *bufio.Writer, ids []string) {
	for _, id := range ids {
		bw.WriteString(`<d ID="`)
		xmltree.Escape(bw, id)
		bw.WriteString(`"/>`)
	}
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
	total := nodeSize(n, isRoot)
	for _, k := range n.Kids {
		total += recordSize(k, false)
	}
	return total
}

// nodeSize is the number of bytes streamRecord writes for n itself: its
// tags, attributes and text, its kids left out.
func nodeSize(n *xmltree.Node, isRoot bool) int64 {
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
	return int64(size + len("></>") + xmltree.EscapedLen(n.Text) + len(n.Name))
}

// StreamShipmentCodec encodes cross-edge instances in codec directly to w
// — no record clones, no intermediate xmltree — in deterministic
// (sorted-key) order, byte for byte the tree codec's serialization of the
// same shipment.
func StreamShipmentCodec(w io.Writer, out map[string]*core.Instance, sch *schema.Schema, codec Codec) error {
	ship := make(map[string]core.Outbound, len(out))
	for key, in := range out {
		ship[key] = core.Outbound{Frag: in.Frag, Recs: in}
	}
	sw := NewShipmentWriterCodec(w, sch, codec)
	err := EmitShipment(sw, ship)
	if cerr := sw.Close(); err == nil {
		err = cerr
	}
	return err
}

// EmitShipment emits a source's outbound records, held as trees or built
// on demand, through an open shipment writer in deterministic (sorted-key)
// order, one Emit per edge. The caller closes the writer.
func EmitShipment(sw *ShipmentWriter, out map[string]core.Outbound) error {
	for _, key := range sortedKeys(out) {
		if err := sw.Emit(key, out[key].Frag, out[key].Recs); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](out map[string]V) []string {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FormatTombstones is the Payload format of a tombstone chunk; record
// chunks carry their codec's name (CodecXML, CodecBin).
const FormatTombstones = "tombstones"

// Payload is a chunk's body as it travels inside its chunk element: the
// format, the bin encoding ("" or "flate"), and the bytes. Bin chunks
// stage their text and commit it as it arrived; tagged-XML and
// tombstone chunks decode as they stream, so at commit their Bytes are nil
// and their body is the rendering of the chunk's records (WriteRecords) or
// IDs (WriteTombstoneIDs). Replay reads any of them back.
type Payload struct {
	Format, Enc string
	Bytes       []byte
}

// Chunk is one chunk at its commit: the cross-edge key, the fragment (nil
// for tombstones), the seq (-1 when unsequenced), the decoded records as
// they arrived — or a tombstone chunk's deleted record IDs — and the
// payload.
type Chunk struct {
	Key  string
	Frag *core.Fragment
	Seq  int64
	Recs []*xmltree.Node
	IDs  []string
	Payload
}

// Ticket is a commit's durability outcome: Done closes once it is known,
// Err waits for it.
type Ticket interface {
	Done() <-chan struct{}
	Err() error
}

// maxQueuedCommits bounds how many committed chunks may wait on their
// tickets: past it the decoder blocks on the oldest, so a slow disk applies
// backpressure to the wire instead of growing the queue.
const maxQueuedCommits = 256

// queuedCommit is a chunk handed to the Commit hook and waiting for its
// ticket before it applies.
type queuedCommit struct {
	t Ticket
	c Chunk
}

// ShipmentDecoder is a SAX handler that rebuilds the inbound instance map
// directly from shipment parse events: record nodes are constructed as
// their tags open, interior PARENT links are restored from nesting on the
// fly (an element inside a record whose PARENT did not travel must be the
// child of the enclosing element instance — nesting is exactly the parent
// relation the encoder erased), and bin instances are parsed from their
// accumulated payload. The surrounding envelope tree is never
// built. Instance chunks sharing an edge key append to one instance, which
// is what lets the streaming encoder emit batches as producers finish.
type ShipmentDecoder struct {
	sch    *schema.Schema
	lookup func(name string) *core.Fragment

	// OnChunk, when set, admits each chunk by its seq attribute (-1 when
	// unsequenced). It is consulted as the chunk opens, before any of its
	// records decode — first is set until a chunk has carried a seq, so on
	// a sequenced shipment for its first chunk only — and again under
	// CommitLock at commit and at apply, with first unset. Returning false
	// skips the whole chunk: the resume path of a shipment session declines
	// chunks below the target's checkpoint without parsing their records.
	// An error refuses the chunk and fails the shipment.
	OnChunk func(seq int64, first bool) (bool, error)
	// ChunkDone, when set, fires after a chunk applies — the moment it is
	// safe to checkpoint its seq.
	ChunkDone func(seq int64)
	// Commit, when set, makes each chunk durable before it applies: it gets
	// the chunk — records or tombstone IDs, and the payload as it arrived —
	// and returns its durability ticket (nil, or already resolved, when
	// the commit is durable on return). The chunk applies — records into
	// the instance map or IDs into Tombs, then ChunkDone — once the
	// ticket resolves, in commit order, so the scanner parses on while a
	// group commit's fsync is in flight and the checkpoint only ever covers
	// durable chunks. The shipment reads complete only when every ticket
	// has resolved. An error, returned or carried by a ticket, fails the
	// delivery; chunks still queued never apply, so a retry re-ships them.
	// Payload.Bytes is valid only during the call.
	Commit func(c *Chunk) (Ticket, error)
	// CommitLock, when set, is held across each chunk commit and apply. A
	// resumable session decodes concurrent delivery attempts into one
	// shared instance map — a retried delivery can race a straggler whose
	// torn connection is still draining — so the endpoint passes the
	// session mutex here, serializing map writes and record appends against
	// each other and against the executing target. Under the lock the
	// chunk's admission is re-checked via OnChunk, at commit and again at
	// apply: a chunk another attempt applied meanwhile is dropped
	// wholesale, which keeps records exactly-once whether or not they carry
	// IDs.
	CommitLock sync.Locker
	// Tombs collects, per edge key, the tombstoned record IDs of a delta
	// shipment. Set it to share one map across decoders (a session's
	// delivery attempts); nil makes one on the first tombstone.
	Tombs map[string][]string
	// Met, when set, exposes the parse pool's queue depth and latencies.
	Met *obs.Registry

	out     map[string]*core.Instance
	started bool
	done    bool
	delta   bool
	depth   int
	skip    int
	nextSeq int64 // seq the next chunk must carry; -1 until one carried a seq

	jobs    []*parseJob   // submitted chunks awaiting in-order commit
	arena   xmltree.Arena // tagged-XML chunks' nodes, text and staging slices; lives for the shipment
	parseMS *obs.Histogram
	queue   *obs.Gauge

	queued []queuedCommit // committed chunks waiting on their tickets, from qhead
	qhead  int
	cc     Chunk // the scanner goroutine's commit chunk, reused

	// Chunk staging: records of the open <instance> accumulate here and
	// commit to the shared map only at its close tag, so a connection torn
	// mid-chunk never leaves a half-parsed record behind — the unit of
	// atomicity the resumable sessions replay on. A tagged-XML chunk's
	// staging slice is carved from the arena with room for as many records
	// as the previous one committed (stageCap), so a steady stream of
	// equal chunks stages without growing a slice per chunk.
	stageKey   string
	stageFrag  *core.Fragment
	stageSeq   int64
	stageRecs  []*xmltree.Node
	stageCap   int
	stageTomb  bool
	stageBytes int // names, attribute values and text staged from tagged XML

	// raw accumulates the character data of a bin chunk, which parses at
	// commit time and so keeps the chunk-atomic guarantee. The buffer is
	// pooled: it returns to bufpool once the chunk committed, so staging
	// costs no steady-state allocation per chunk.
	raw    *bytes.Buffer
	rawEnc string
	stack  []*xmltree.Node
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
	return &ShipmentDecoder{sch: sch, lookup: lookup, out: out, stageSeq: -1, nextSeq: -1}
}

// errStagedTooLarge refuses a tagged-XML chunk whose staged names,
// attribute values and text pass MaxChunkBytes.
var errStagedTooLarge = fmt.Errorf("wire: tagged-XML chunk stages over %d bytes: %w", MaxChunkBytes, ErrChunkTooLarge)

// stage counts n more staged bytes of the open tagged-XML chunk.
func (d *ShipmentDecoder) stage(n int) error {
	d.stageBytes += n
	if d.stageBytes > MaxChunkBytes {
		return errStagedTooLarge
	}
	return nil
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
		tomb := name == "tombstones"
		if !tomb && name != "instance" {
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
				v, err := strconv.ParseInt(a.Value, 10, 64)
				if err != nil || v < 0 {
					return ErrChunkOrder
				}
				seq = v
			}
		}
		// Once a chunk carried a seq, every later one — declined or not —
		// must carry the next: a gap would let the checkpoint skip a chunk
		// that never arrived. Where the first may start is OnChunk's call,
		// as a resumed delivery starts at the checkpoint.
		first := d.nextSeq < 0
		if !first && seq != d.nextSeq {
			return ErrChunkOrder
		}
		if seq >= 0 {
			d.nextSeq = seq + 1
		}
		// Read as tagged XML, a body in any other format would fall outside
		// every record and the chunk would commit empty.
		if format != "" && format != CodecXML && format != CodecBin {
			return fmt.Errorf("%w %q", ErrChunkFormat, format)
		}
		if d.OnChunk != nil {
			ok, err := d.OnChunk(seq, first)
			if err != nil {
				return err
			}
			if !ok {
				// Chunk declined (already checkpointed on a prior attempt):
				// skip its whole subtree without parsing records.
				d.depth--
				d.skip = 1
				return nil
			}
		}
		if tomb {
			d.stageKey, d.stageSeq, d.stageTomb = key, seq, true
			return nil
		}
		f := d.lookup(fragName)
		if f == nil {
			return fmt.Errorf("wire: shipment references unknown fragment %q", fragName)
		}
		d.stageKey, d.stageFrag, d.stageSeq = key, f, seq
		if format == CodecBin {
			d.raw = bufpool.Buffer()
			d.rawEnc = enc
		} else {
			d.stageRecs = d.arena.Kids(d.stageCap)
		}
		return nil
	}
	if d.raw != nil {
		// The tree decoder ignores element content of bin instances; do the
		// same.
		d.depth--
		d.skip = 1
		return nil
	}
	n := d.arena.New()
	n.Name = name
	staged := len(name)
	for _, a := range attrs {
		staged += len(a.Name) + len(a.Value)
		switch a.Name {
		case "ID":
			n.ID = a.Value
		case "PARENT":
			n.Parent = a.Value
		default:
			n.Attrs = append(n.Attrs, a)
		}
	}
	if err := d.stage(staged); err != nil {
		return err
	}
	if len(d.stack) > 0 && n.Parent == "" {
		// Interior PARENTs are stripped on the wire; nesting is the parent
		// relation, so restore the link the moment the element opens.
		n.Parent = d.stack[len(d.stack)-1].ID
	}
	if len(d.stack) == 0 {
		d.stageRecs = append(d.stageRecs, n)
	} else {
		// Kid slices grow by doubling inside the arena, like the joiner's.
		top := d.stack[len(d.stack)-1]
		if len(top.Kids) == cap(top.Kids) {
			top.Kids = append(d.arena.Kids(max(2*len(top.Kids), 1)), top.Kids...)
		}
		top.AddKid(n)
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

// Text implements xmltree.AttrHandler. Scanners deliver text through
// TextBytes; this string path shares it.
func (d *ShipmentDecoder) Text(data string) error { return d.TextBytes([]byte(data)) }

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
		if err := d.stage(len(data)); err != nil {
			return err
		}
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
		// Every chunk the stream carried must be committed and applied
		// before the shipment reads as complete.
		if err := d.drainJobs(0); err != nil {
			return err
		}
		if err := d.settleAll(); err != nil {
			return err
		}
		d.done = true
	}
	d.depth--
	return nil
}

// commitChunk routes the staged chunk toward the shared instance map as
// its element closes. Bin payloads parse first, in a pool worker, so those
// chunks are all-or-nothing: a torn chunk's base64/flate/binary parse
// fails before anything reaches the map. Commits
// always happen in stream order on the scanner goroutine (drainJobs);
// tagged-XML and tombstone chunks drain the pool before committing so
// mixed-format shipments keep their order.
func (d *ShipmentDecoder) commitChunk() error {
	c := &d.cc
	*c = Chunk{Key: d.stageKey, Frag: d.stageFrag, Seq: d.stageSeq}
	switch {
	case d.stageTomb:
		c.Format = FormatTombstones
		c.IDs = make([]string, 0, len(d.stageRecs))
		for _, r := range d.stageRecs {
			if r.ID != "" {
				c.IDs = append(c.IDs, r.ID)
			}
		}
	case d.raw != nil:
		raw := d.raw
		d.raw = nil // ownership moves to the parse job
		c.Format, c.Enc = CodecBin, d.rawEnc
		d.resetStage()
		return d.submitParse(c, raw)
	default:
		c.Format, c.Recs = CodecXML, d.stageRecs
		d.stageCap = len(d.stageRecs)
	}
	d.resetStage()
	if err := d.drainJobs(0); err != nil {
		return err
	}
	return d.commit(c)
}

// parseRawChunk turns one staged bin payload into records.
func parseRawChunk(text []byte, enc string, sch *schema.Schema) ([]*xmltree.Node, error) {
	// A self-closed bin instance announces an empty chunk; there is no
	// payload to parse.
	if len(text) == 0 {
		return nil, nil
	}
	return readBinChunk(text, sch, enc)
}

// admit re-checks a chunk's admission under CommitLock: a concurrent
// delivery attempt may have applied it since it opened.
func (d *ShipmentDecoder) admit(seq int64) (bool, error) {
	if d.OnChunk == nil {
		return true, nil
	}
	return d.OnChunk(seq, false)
}

// commit takes one parsed chunk under CommitLock: applied on the spot, or
// — with a Commit hook — handed to it and queued behind its ticket.
func (d *ShipmentDecoder) commit(c *Chunk) error {
	if d.CommitLock != nil {
		d.CommitLock.Lock()
		defer d.CommitLock.Unlock()
	}
	if ok, err := d.admit(c.Seq); !ok {
		return err
	}
	if d.Commit == nil {
		d.apply(c)
		return nil
	}
	t, err := d.Commit(c)
	if err != nil {
		return err
	}
	d.queued = append(d.queued, queuedCommit{t: t, c: *c})
	d.queued[len(d.queued)-1].c.Bytes = nil
	return d.settle(maxQueuedCommits)
}

// settle applies queued chunks in commit order: every one whose ticket has
// resolved, then — blocking on the oldest — as many more as it takes to
// leave at most max queued. Caller holds CommitLock.
func (d *ShipmentDecoder) settle(max int) error {
	for d.qhead < len(d.queued) {
		q := &d.queued[d.qhead]
		if q.t != nil {
			if len(d.queued)-d.qhead <= max {
				select {
				case <-q.t.Done():
				default:
					return nil
				}
			}
			if err := q.t.Err(); err != nil {
				return err
			}
		}
		c := q.c
		*q = queuedCommit{}
		d.qhead++
		ok, err := d.admit(c.Seq)
		if err != nil {
			return err
		}
		if ok {
			d.apply(&c)
		}
	}
	d.queued, d.qhead = d.queued[:0], 0
	return nil
}

// settleAll waits for and applies every queued chunk.
func (d *ShipmentDecoder) settleAll() error {
	if d.qhead == len(d.queued) {
		return nil
	}
	if d.CommitLock != nil {
		d.CommitLock.Lock()
		defer d.CommitLock.Unlock()
	}
	return d.settle(0)
}

// apply moves one chunk into the decoder's state: its records join their
// instance, or its tombstoned IDs join Tombs; ChunkDone marks the seq
// checkpointable.
func (d *ShipmentDecoder) apply(c *Chunk) {
	if c.Format == FormatTombstones {
		if d.Tombs == nil {
			d.Tombs = make(map[string][]string)
		}
		d.Tombs[c.Key] = append(d.Tombs[c.Key], c.IDs...)
	} else {
		in := d.instanceFor(c.Key, c.Frag)
		in.Records = append(in.Records, c.Recs...)
	}
	if d.ChunkDone != nil {
		d.ChunkDone(c.Seq)
	}
}

// Replay commits one chunk from its payload at rest — a journaled chunk
// restored after a restart — down the path a received chunk takes: the
// same codecs, the same staging limits, admission and hooks.
// frag names the chunk's fragment in the decoder's lookup (tombstone
// chunks have none).
func (d *ShipmentDecoder) Replay(key, frag string, seq int64, p Payload) error {
	tomb := p.Format == FormatTombstones
	var f *core.Fragment
	if !tomb {
		if f = d.lookup(frag); f == nil {
			return fmt.Errorf("wire: replayed chunk references unknown fragment %q", frag)
		}
	}
	switch {
	case p.Format == CodecBin:
		recs, err := parseRawChunk(p.Bytes, p.Enc, d.sch)
		if err != nil {
			return err
		}
		d.cc = Chunk{Key: key, Frag: f, Seq: seq, Recs: recs, Payload: p}
		return d.commit(&d.cc)
	case !tomb && p.Format != CodecXML:
		return fmt.Errorf("%w %q", ErrChunkFormat, p.Format)
	}
	// A tagged-XML or tombstone body scans as the content of an open chunk.
	d.depth, d.stack = 2, d.stack[:0]
	d.stageKey, d.stageFrag, d.stageSeq, d.stageTomb = key, f, seq, tomb
	d.stageRecs = d.arena.Kids(d.stageCap)
	err := xmltree.ScanAttrs(bytes.NewReader(p.Bytes), d)
	if err == nil && d.depth != 2 {
		err = fmt.Errorf("wire: replayed chunk body is not well-formed")
	}
	if err == nil {
		err = d.commitChunk()
	}
	d.depth = 0
	d.resetStage()
	return err
}

// resetStage clears the per-chunk staging state after a commit or drop.
func (d *ShipmentDecoder) resetStage() {
	if d.raw != nil {
		bufpool.PutBuffer(d.raw)
	}
	d.raw, d.rawEnc = nil, ""
	d.stageKey, d.stageFrag, d.stageSeq, d.stageRecs = "", nil, -1, nil
	d.stageTomb, d.stageBytes = false, 0
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
// pass — the streaming counterpart of the tree codec's Parse + decode.
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
