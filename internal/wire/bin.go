package wire

// This file implements the compact binary shipment codec (codec="bin").
// Both ends of an exchange share the registered fragmentation, and with it
// the schema — so the element dictionary is computed on each side from the
// schema's pre-order element list and never travels. A binary chunk is the
// text content of an ordinary <instance> element (base64, so it embeds in
// XML character data untouched), which keeps bin shipments riding the
// exact same framing — and the same chunk-atomic, resumable decoding — as
// the XML and feed formats.
//
// Chunk payload layout (before optional DEFLATE, before base64):
//
//	version byte (0x01)
//	uvarint record count
//	records, each a pre-order node encoding:
//	    uvarint element tag: dictionary index+1, or 0 followed by a
//	        length-prefixed literal name for elements outside the schema
//	    flags byte (ID present / PARENT present / text / attrs)
//	    ID, PARENT: delta against the previous key in the chunk —
//	        uvarint shared-prefix length, uvarint suffix length, suffix
//	        bytes (Dewey keys of consecutive records share almost their
//	        whole prefix, the common monotone case)
//	    text, attrs: uvarint length-prefixed bytes
//	    uvarint kid count, then the kids
//
// Which fields travel mirrors stripIDs exactly — record roots carry ID and
// PARENT, interior or potentially-joinable empty elements carry only ID,
// leaf values travel bare — so a decoded bin shipment is indistinguishable
// from a decoded XML shipment, byte for byte under the tree codec.
//
// Every chunk payload is self-contained: the delta state and the optional
// DEFLATE stream both restart at chunk boundaries, so a resumed session
// can skip or replay any subset of chunks and a torn chunk dies in staging
// (the base64/flate/binary parse happens at commit time and fails before
// anything reaches the shared instance map).

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"xdx/internal/bufpool"
	"xdx/internal/core"
	"xdx/internal/netsim"
	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// Codec names as they appear in negotiation, flags, and reports.
const (
	CodecXML      = "xml"
	CodecFeed     = "feed"
	CodecBin      = "bin"
	CodecBinFlate = "bin+flate"
)

// Codec selects a shipment encoding. The zero value is the tagged-XML
// format every peer understands.
type Codec struct {
	// Kind is CodecXML, CodecFeed, or CodecBin. Empty means XML.
	Kind string
	// Flate compresses each bin chunk with DEFLATE (bin only).
	Flate bool
}

// ParseCodec resolves a codec name. The empty string is XML.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", CodecXML:
		return Codec{Kind: CodecXML}, nil
	case CodecFeed:
		return Codec{Kind: CodecFeed}, nil
	case CodecBin:
		return Codec{Kind: CodecBin}, nil
	case CodecBinFlate:
		return Codec{Kind: CodecBin, Flate: true}, nil
	}
	return Codec{}, fmt.Errorf("wire: unknown codec %q", s)
}

// String returns the codec's negotiation name.
func (c Codec) String() string {
	switch {
	case c.Kind == CodecBin && c.Flate:
		return CodecBinFlate
	case c.Kind == "":
		return CodecXML
	}
	return c.Kind
}

// Codecs lists every codec this build understands, leanest first — the
// order an endpoint prefers when a client advertises several.
func Codecs() []string {
	return []string{CodecBinFlate, CodecBin, CodecFeed, CodecXML}
}

const binVersion = 0x01

const (
	binFlagID     = 0x01
	binFlagParent = 0x02
	binFlagText   = 0x04
	binFlagAttrs  = 0x08
)

// binMaxDepth bounds record nesting on decode; real shipments are a few
// levels deep, and the cap keeps a hostile payload from exhausting the
// stack.
const binMaxDepth = 4096

// binMaxKeyLen bounds a reconstructed ID or PARENT. Delta coding lets a
// 3-byte field name a key one byte longer than the previous one, so
// without a cap n such fields expand to n²/2 bytes; with it the decoded
// size stays linear in the payload. Real keys (Dewey paths, LDAP DNs) are
// tens of bytes. The encoder does not check: a longer key fails at the
// receiver (the XML and feed formats carry any key).
const binMaxKeyLen = 4096

var errBinTruncated = fmt.Errorf("wire: bin: truncated chunk payload")

// ErrBinKeyTooLong rejects a chunk whose delta-coded keys reconstruct past
// binMaxKeyLen.
var ErrBinKeyTooLong = errors.New("wire: bin: reconstructed key too long")

// binDict is the schema-derived element dictionary: index+1 per element in
// the schema's pre-order list, identical on both ends by construction.
type binDict struct {
	idx   map[string]uint64
	names []string
}

var dictCache sync.Map // *schema.Schema -> *binDict

func dictFor(sch *schema.Schema) *binDict {
	if d, ok := dictCache.Load(sch); ok {
		return d.(*binDict)
	}
	names := sch.Names()
	d := &binDict{idx: make(map[string]uint64, len(names)), names: names}
	for i, n := range names {
		d.idx[n] = uint64(i + 1)
	}
	cached, _ := dictCache.LoadOrStore(sch, d)
	return cached.(*binDict)
}

// binEncoder appends the binary node encoding of one chunk to a scratch
// buffer; the delta state lives for exactly one chunk, but the encoder
// itself is pooled across chunks (and across the parallel render workers).
type binEncoder struct {
	buf                *bytes.Buffer
	dict               *binDict
	prevID, prevParent string
	tmp                [binary.MaxVarintLen64]byte
}

var binEncoders = sync.Pool{New: func() any { return new(binEncoder) }}

func (e *binEncoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *binEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf.WriteString(s)
}

// delta emits s as (shared prefix with the previous key, suffix).
func (e *binEncoder) delta(s string, prev *string) {
	p, max := 0, len(s)
	if len(*prev) < max {
		max = len(*prev)
	}
	for p < max && s[p] == (*prev)[p] {
		p++
	}
	e.uvarint(uint64(p))
	e.str(s[p:])
	*prev = s
}

func (e *binEncoder) node(n *xmltree.Node, isRoot bool) {
	if ix, ok := e.dict.idx[n.Name]; ok {
		e.uvarint(ix)
	} else {
		e.uvarint(0)
		e.str(n.Name)
	}
	interior := len(n.Kids) > 0 || n.Text == ""
	hasID := (isRoot || interior) && n.ID != ""
	hasParent := isRoot && n.Parent != ""
	var flags byte
	if hasID {
		flags |= binFlagID
	}
	if hasParent {
		flags |= binFlagParent
	}
	if n.Text != "" {
		flags |= binFlagText
	}
	if len(n.Attrs) > 0 {
		flags |= binFlagAttrs
	}
	e.buf.WriteByte(flags)
	if hasID {
		e.delta(n.ID, &e.prevID)
	}
	if hasParent {
		e.delta(n.Parent, &e.prevParent)
	}
	if n.Text != "" {
		e.str(n.Text)
	}
	if len(n.Attrs) > 0 {
		e.uvarint(uint64(len(n.Attrs)))
		for _, a := range n.Attrs {
			e.str(a.Name)
			e.str(a.Value)
		}
	}
	e.uvarint(uint64(len(n.Kids)))
	for _, k := range n.Kids {
		e.node(k, false)
	}
}

// appendBinRecords serializes recs into buf as one self-contained chunk
// payload.
func appendBinRecords(buf *bytes.Buffer, recs []*xmltree.Node, sch *schema.Schema) {
	e := binEncoders.Get().(*binEncoder)
	e.buf, e.dict, e.prevID, e.prevParent = buf, dictFor(sch), "", ""
	buf.WriteByte(binVersion)
	e.uvarint(uint64(len(recs)))
	for _, r := range recs {
		e.node(r, true)
	}
	e.buf, e.dict = nil, nil
	binEncoders.Put(e)
}

// writeBinChunk writes the wire text of one bin chunk — the binary
// payload, DEFLATE-compressed when asked, wrapped in base64 — onto w.
func writeBinChunk(w io.Writer, recs []*xmltree.Node, sch *schema.Schema, compress bool) error {
	scratch := bufpool.Buffer()
	defer bufpool.PutBuffer(scratch)
	appendBinRecords(scratch, recs, sch)
	payload := scratch.Bytes()
	if compress {
		z := bufpool.Buffer()
		defer bufpool.PutBuffer(z)
		fw := bufpool.FlateWriter(z)
		_, err := fw.Write(payload)
		if cerr := fw.Close(); err == nil {
			err = cerr
		}
		bufpool.PutFlateWriter(fw)
		if err != nil {
			return err
		}
		payload = z.Bytes()
	}
	// Encode into the scratch buffer's spare room: one pooled buffer, no
	// encoder per chunk. (A Grow that moves the buffer leaves payload on
	// the old array, still intact.)
	scratch.Grow(base64.StdEncoding.EncodedLen(len(payload)))
	text := base64.StdEncoding.AppendEncode(scratch.AvailableBuffer(), payload)
	_, err := w.Write(text)
	return err
}

// readBinChunk decodes a bin chunk's accumulated wire text back into
// records. Any failure — torn base64, a truncated flate stream, a short
// payload — rejects the chunk whole; nothing partial escapes. A flate
// payload inflates to at most MaxChunkBytes: past that the chunk is refused
// as ErrChunkTooLarge, so a small chunk cannot inflate without bound.
func readBinChunk(text []byte, sch *schema.Schema, enc string) ([]*xmltree.Node, error) {
	text = bytes.TrimSpace(text)
	b64buf := bufpool.Buffer()
	defer bufpool.PutBuffer(b64buf)
	need := base64.StdEncoding.DecodedLen(len(text))
	b64buf.Grow(need)
	raw := b64buf.Bytes()[:need]
	n, err := base64.StdEncoding.Decode(raw, text)
	if err != nil {
		return nil, fmt.Errorf("wire: bin: %v", err)
	}
	raw = raw[:n]
	switch enc {
	case "":
		return decodeBinRecords(raw, sch)
	case "flate":
		fr := bufpool.FlateReader(bytes.NewReader(raw))
		buf := bufpool.Buffer()
		defer bufpool.PutBuffer(buf)
		_, err := buf.ReadFrom(io.LimitReader(fr, MaxChunkBytes+1))
		if cerr := fr.Close(); err == nil {
			err = cerr
		}
		bufpool.PutFlateReader(fr)
		if err != nil {
			return nil, fmt.Errorf("wire: bin: flate: %v", err)
		}
		if buf.Len() > MaxChunkBytes {
			return nil, fmt.Errorf("wire: bin: flate: inflated payload: %w", ErrChunkTooLarge)
		}
		return decodeBinRecords(buf.Bytes(), sch)
	}
	return nil, fmt.Errorf("wire: bin: unknown chunk encoding %q", enc)
}

// binDecoder parses one chunk payload. Every node and every string of the
// chunk comes out of its arena: the chunk is the decode unit, so whatever
// keeps one of its records alive keeps the chunk's slabs alive, and nothing
// else does.
type binDecoder struct {
	data               []byte
	pos                int
	dict               *binDict
	prevID, prevParent string
	arena              xmltree.Arena
}

func (d *binDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, errBinTruncated
	}
	d.pos += n
	return v, nil
}

func (d *binDecoder) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.data)-d.pos) {
		return nil, errBinTruncated
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// str reads one length-prefixed string into the arena's string slab.
func (d *binDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	return d.arena.Bytes(b), nil
}

// delta reads one prefix-coded key: the kept prefix of the previous key
// and the shipped suffix are spliced straight into the arena's string slab
// — keys are the densest field in a chunk, and consecutive ones share
// almost all their bytes.
func (d *binDecoder) delta(prev *string) (string, error) {
	p, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if p > uint64(len(*prev)) {
		return "", fmt.Errorf("wire: bin: delta prefix %d exceeds previous key", p)
	}
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	suffix, err := d.take(n)
	if err != nil {
		return "", err
	}
	if int(p)+len(suffix) > binMaxKeyLen {
		return "", fmt.Errorf("%w: %d bytes, limit %d", ErrBinKeyTooLong, int(p)+len(suffix), binMaxKeyLen)
	}
	if len(suffix) == 0 {
		// A prefix of a slab string is already a string.
		*prev = (*prev)[:p]
	} else {
		*prev = d.arena.Concat((*prev)[:p], suffix)
	}
	return *prev, nil
}

func (d *binDecoder) node(parentID string, isRoot bool, depth int) (*xmltree.Node, error) {
	if depth > binMaxDepth {
		return nil, fmt.Errorf("wire: bin: record nesting exceeds %d", binMaxDepth)
	}
	ix, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	var name string
	if ix == 0 {
		if name, err = d.str(); err != nil {
			return nil, err
		}
	} else {
		if ix > uint64(len(d.dict.names)) {
			return nil, fmt.Errorf("wire: bin: element index %d outside schema dictionary", ix)
		}
		name = d.dict.names[ix-1]
	}
	if d.pos >= len(d.data) {
		return nil, errBinTruncated
	}
	flags := d.data[d.pos]
	d.pos++
	if flags&^(binFlagID|binFlagParent|binFlagText|binFlagAttrs) != 0 {
		return nil, fmt.Errorf("wire: bin: unknown record flags %#x", flags)
	}
	// Nesting is the parent relation the encoder erased (same restoration
	// as the XML decoders); a root's own PARENT, when shipped, overrides.
	n := d.arena.New()
	n.Name, n.Parent = name, parentID
	if flags&binFlagID != 0 {
		if n.ID, err = d.delta(&d.prevID); err != nil {
			return nil, err
		}
	}
	if flags&binFlagParent != 0 {
		if n.Parent, err = d.delta(&d.prevParent); err != nil {
			return nil, err
		}
	}
	if flags&binFlagText != 0 {
		if n.Text, err = d.str(); err != nil {
			return nil, err
		}
	}
	if flags&binFlagAttrs != 0 {
		cnt, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if cnt > uint64(len(d.data)-d.pos) {
			return nil, errBinTruncated
		}
		n.Attrs = make([]xmltree.Attr, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			aname, err := d.str()
			if err != nil {
				return nil, err
			}
			aval, err := d.str()
			if err != nil {
				return nil, err
			}
			n.Attrs = append(n.Attrs, xmltree.Attr{Name: aname, Value: aval})
		}
	}
	kids, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if kids > uint64(len(d.data)-d.pos) {
		return nil, errBinTruncated
	}
	if kids > 0 {
		n.Kids = d.arena.Kids(int(kids))
	}
	for i := uint64(0); i < kids; i++ {
		k, err := d.node(n.ID, false, depth+1)
		if err != nil {
			return nil, err
		}
		n.AddKid(k)
	}
	return n, nil
}

// decodeBinRecords parses one chunk payload back into record trees, carved
// from an arena of the chunk's own.
func decodeBinRecords(payload []byte, sch *schema.Schema) ([]*xmltree.Node, error) {
	if len(payload) == 0 {
		return nil, errBinTruncated
	}
	if payload[0] != binVersion {
		return nil, fmt.Errorf("wire: bin: unknown payload version %#x", payload[0])
	}
	d := binDecoder{data: payload, pos: 1, dict: dictFor(sch)}
	cnt, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if cnt > uint64(len(payload)) {
		return nil, errBinTruncated
	}
	// The header sizes the slabs: at least one node per record, and about
	// as many string bytes as payload bytes (keys expand, framing shrinks).
	d.arena.Reserve(int(cnt), len(payload))
	recs := make([]*xmltree.Node, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		rec, err := d.node("", true, 0)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	if d.pos != len(payload) {
		return nil, fmt.Errorf("wire: bin: %d trailing bytes in chunk payload", len(payload)-d.pos)
	}
	return recs, nil
}

// InstanceWireBytes measures the on-the-wire payload of recs under codec —
// the bytes inside the <instance> element, framing excluded. Stats
// calibration uses it to turn tree sizes into true wire sizes. A feed
// request on a non-flat fragment measures the XML fallback, which is what
// such a fragment would actually travel as.
func InstanceWireBytes(recs []*xmltree.Node, frag *core.Fragment, sch *schema.Schema, codec Codec) (int64, error) {
	m := netsim.NewMeter(nil)
	switch codec.Kind {
	case CodecBin:
		if err := writeBinChunk(m, recs, sch, codec.Flate); err != nil {
			return 0, err
		}
	case CodecFeed:
		if checkFlat(sch, frag) == nil {
			err := WriteFeed(m, &core.Instance{Frag: frag, Records: recs}, sch)
			if err != nil {
				return 0, err
			}
			break
		}
		fallthrough
	default:
		return RecordBytes(recs), nil
	}
	return m.Bytes(), nil
}

// RecordBytes reports the tree-codec serialized size of recs — the
// denominator compression ratios are measured against, and the size
// Report.PayloadBytes carries — by walking the records, not rendering them.
func RecordBytes(recs []*xmltree.Node) int64 {
	var n int64
	for _, rec := range recs {
		n += recordSize(rec, true)
	}
	return n
}
