package wire

// The agency's side of a shipment. A chunk element is self-contained — it
// names its edge, fragment, format and seq, and the bin codec's key prefix
// coding restarts in every chunk — so the bytes the source wrote are valid
// at the target as they stand. The agency therefore keeps a shipment as
// those bytes and forwards them, a delta's as much as a full snapshot's:
// the source reconciled before it wrote, so the agency never decodes one.

import (
	"bytes"
	"errors"
	"io"
	"sync"

	"xdx/internal/bufpool"
)

// MaxChunkBytes caps the wire size of one chunk element: what a Relay
// accepts for one element and what a ShipmentDecoder stages of one raw
// payload. A 64-record chunk is a few KiB; the cap only stops a peer from
// growing a buffer without limit.
const MaxChunkBytes = 16 << 20

// ErrChunkTooLarge reports a chunk element beyond MaxChunkBytes.
var ErrChunkTooLarge = errors.New("wire: shipment chunk exceeds the chunk size limit")

// ErrChunkOrder reports a shipment whose chunks are not sequenced densely
// in stream order, which a resumable delivery depends on: a Relay wants
// seqs from 0, a ShipmentDecoder wants every chunk after a sequenced one
// to carry the next seq, and a target session wants every chunk sequenced
// from at most its checkpoint.
var ErrChunkOrder = errors.New("wire: shipment chunks are not sequenced densely")

// ErrChunkFormat reports a chunk whose format attribute names no codec
// this build decodes.
var ErrChunkFormat = errors.New("wire: unknown shipment chunk format")

// relaySegment is the fill at which a Relay starts its next buffer. Chunks
// are never split across buffers, and buffers this size go back to bufpool
// instead of being regrown for every large shipment.
const relaySegment = 512 << 10

// Relay holds a shipment as the chunk elements its writer rendered, in
// pooled buffers, indexed by seq. It is filled through the scanner's raw
// hook (BeginChunk, Write, EndChunk) and drained by WriteFrom; Release
// returns the buffers.
type Relay struct {
	segs   []*bytes.Buffer
	chunks []chunkRef // entry i is the chunk with seq i
	start  int        // offset of the chunk being filled in the last buffer
}

// chunkRef locates the first byte of a chunk; it runs to the next chunk's
// first byte or to the end of its buffer.
type chunkRef struct{ seg, off int }

var relays = sync.Pool{New: func() any { return new(Relay) }}

// NewRelay returns an empty relay.
func NewRelay() *Relay { return relays.Get().(*Relay) }

// Reset drops the held chunks, keeping the relay usable: a retried source
// call starts its capture over.
func (r *Relay) Reset() {
	for i, b := range r.segs {
		bufpool.PutBuffer(b)
		r.segs[i] = nil
	}
	r.segs, r.chunks = r.segs[:0], r.chunks[:0]
}

// Release returns the relay and its buffers to their pools; the relay must
// not be used afterwards.
func (r *Relay) Release() {
	r.Reset()
	relays.Put(r)
}

// Len is the number of chunks held.
func (r *Relay) Len() int { return len(r.chunks) }

// BeginChunk opens the next chunk element and returns the writer for its
// bytes.
func (r *Relay) BeginChunk() io.Writer {
	if n := len(r.segs); n == 0 || r.segs[n-1].Len() >= relaySegment {
		r.segs = append(r.segs, bufpool.Buffer())
	}
	r.start = r.segs[len(r.segs)-1].Len()
	return r
}

// Write appends to the open chunk.
func (r *Relay) Write(p []byte) (int, error) {
	b := r.segs[len(r.segs)-1]
	if b.Len()-r.start+len(p) > MaxChunkBytes {
		return 0, ErrChunkTooLarge
	}
	return b.Write(p)
}

// EndChunk closes the open chunk, which must carry the next seq.
func (r *Relay) EndChunk() error {
	seg := len(r.segs) - 1
	if chunkSeq(r.segs[seg].Bytes()[r.start:]) != int64(len(r.chunks)) {
		return ErrChunkOrder
	}
	r.chunks = append(r.chunks, chunkRef{seg, r.start})
	return nil
}

// chunkSeq reads the seq attribute off a chunk element's open tag, -1 when
// there is none, walking the tag's attributes without decoding any value.
func chunkSeq(elem []byte) int64 {
	i := bytes.IndexAny(elem, " \t\r\n/>")
	for i >= 0 && i < len(elem) {
		rest := bytes.TrimLeft(elem[i:], " \t\r\n")
		if len(rest) == 0 || rest[0] == '>' || rest[0] == '/' {
			break
		}
		eq := bytes.IndexByte(rest, '=')
		if eq < 0 {
			break
		}
		name, val := bytes.TrimSpace(rest[:eq]), bytes.TrimLeft(rest[eq+1:], " \t\r\n")
		if len(val) == 0 {
			break
		}
		end := bytes.IndexByte(val[1:], val[0])
		if end < 0 {
			break
		}
		if string(name) == "seq" {
			var seq int64
			for _, c := range val[1 : 1+end] {
				if c < '0' || c > '9' || seq > 1<<53 {
					return -1
				}
				seq = seq*10 + int64(c-'0')
			}
			if end == 0 {
				return -1
			}
			return seq
		}
		i = len(elem) - len(val) + end + 2
	}
	return -1
}

// WriteShipment writes the shipment element around every chunk with seq >=
// next, as captured — the bytes a ShipmentWriter emitting those chunks
// would have produced.
func (r *Relay) WriteShipment(w io.Writer, next int64, delta bool) error {
	open, empty := "<shipment>", "<shipment/>"
	if delta {
		open, empty = `<shipment delta="1">`, `<shipment delta="1"/>`
	}
	if next >= int64(len(r.chunks)) {
		_, err := io.WriteString(w, empty)
		return err
	}
	if _, err := io.WriteString(w, open); err != nil {
		return err
	}
	at := r.chunks[max(next, 0)]
	if _, err := w.Write(r.segs[at.seg].Bytes()[at.off:]); err != nil {
		return err
	}
	for _, b := range r.segs[at.seg+1:] {
		if _, err := w.Write(b.Bytes()); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</shipment>")
	return err
}
