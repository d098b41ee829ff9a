// Package bufpool is the shared pooled-buffer layer of the wire path.
// Every shipment — XML or binary — funnels through a buffered writer, every
// binary chunk through a scratch buffer and a DEFLATE stream, and every
// streamed SOAP call through a request buffer; all of
// those are steady-state hot-path allocations, so the pools live here,
// once, instead of being re-grown per package.
package bufpool

import (
	"bufio"
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// bufSize is the buffered-writer capacity. 32 KiB comfortably holds a
// shipment chunk's framing plus several records between flushes.
const bufSize = 32 << 10

// maxRetainedBuffer caps the scratch buffers the pool keeps. A pathological
// chunk can grow a buffer to many megabytes; returning that to the pool
// would pin the high-water mark forever.
const maxRetainedBuffer = 1 << 20

var writers = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, bufSize) },
}

// Writer returns a pooled buffered writer reset onto w.
func Writer(w io.Writer) *bufio.Writer {
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// PutWriter returns a buffered writer to the pool. The caller must have
// flushed (or abandoned) it; the writer is detached from its sink so the
// pool never retains a reference into a finished request.
func PutWriter(bw *bufio.Writer) {
	bw.Reset(io.Discard)
	writers.Put(bw)
}

var buffers = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// Buffer returns an empty pooled scratch buffer.
func Buffer() *bytes.Buffer {
	b := buffers.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBuffer returns a scratch buffer to the pool, dropping oversized ones.
func PutBuffer(b *bytes.Buffer) {
	if b.Cap() > maxRetainedBuffer {
		return
	}
	buffers.Put(b)
}

// Binary chunks compress independently (the framing restarts at chunk
// boundaries so torn-chunk recovery keeps working), which means one flate
// stream per chunk — pooled, because flate.Writer alone is ~600 KiB of
// window state.
var flateWriters = sync.Pool{
	New: func() any {
		// BestSpeed: the codec already removed the redundancy tags carry;
		// flate mops up text repetition, where higher levels buy little at
		// several times the CPU on this hot path.
		fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return fw
	},
}

// FlateWriter returns a pooled DEFLATE writer reset onto w.
func FlateWriter(w io.Writer) *flate.Writer {
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(w)
	return fw
}

// PutFlateWriter returns a DEFLATE writer to the pool after the caller
// closed it.
func PutFlateWriter(fw *flate.Writer) {
	fw.Reset(io.Discard)
	flateWriters.Put(fw)
}

var flateReaders = sync.Pool{
	New: func() any { return flate.NewReader(bytes.NewReader(nil)) },
}

// emptySource is the parking source for pooled flate readers;
// it is never read from (Reset replaces it before any Read), only referenced.
var emptySource = bytes.NewReader(nil)

// FlateReader returns a pooled DEFLATE reader reset onto r.
func FlateReader(r io.Reader) io.ReadCloser {
	fr := flateReaders.Get().(io.ReadCloser)
	fr.(flate.Resetter).Reset(r, nil)
	return fr
}

// PutFlateReader returns a DEFLATE reader to the pool, detached from its
// source first — like PutWriter, the pool must never retain a reference
// into a finished request's payload buffer.
func PutFlateReader(fr io.ReadCloser) {
	fr.(flate.Resetter).Reset(emptySource, nil)
	flateReaders.Put(fr)
}
