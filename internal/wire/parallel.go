package wire

// Chunk-parallel shipment pipelines. A shipment is a sequence of
// self-contained <instance> chunks — each one an independent compression
// frame with its own delta state (bin.go) — so chunks can be rendered and
// parsed concurrently as long as they enter and leave the stream in order.
// That is exactly what this file does, on both sides of the wire:
//
// Encode: Emit hands each chunk to a bounded worker pool that renders it
// (serialization, binary encoding, DEFLATE, base64) into a pooled buffer
// off the caller's goroutine; rendered chunks are spliced onto the output
// writer strictly in emit order. There is no dedicated flusher goroutine —
// Emit and Close splice ready chunks themselves under the writer lock — so
// an abandoned writer leaks nothing. The emitted byte stream is identical
// to the serial codec's for every worker count (the equivalence tests in
// parallel_test.go hold it to that).
//
// Decode: raw-payload chunks (feed and bin formats) are parsed by a
// bounded worker pool while the scanner races ahead; parsed chunks COMMIT
// strictly in stream order on the scanner's goroutine, so every decoder
// semantic is preserved exactly — OnChunk admission and its under-lock
// recheck, KeepRecords filtering, ChunkDone checkpointing, CommitLock
// serialization against concurrent delivery attempts, and chunk-atomic
// staging (a torn chunk dies in its worker's parse; committed chunks are
// a prefix of the stream). Tagged-XML chunks build their trees on the
// scanner goroutine as before; they drain the worker queue before
// committing so ordering holds across mixed-format shipments.
//
// Worker counts: 0 means one worker per CPU (the default — the pipelines
// are on unless a caller dials them down), negative or 1 means serial.

import (
	"runtime"
	"time"

	"bytes"

	"xdx/internal/bufpool"
	"xdx/internal/core"
	"xdx/internal/obs"
	"xdx/internal/xmltree"
)

// effectiveWorkers resolves a ParallelChunks-style knob: 0 picks one
// worker per CPU, anything below 1 is the serial path.
func effectiveWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// encJob is one chunk travelling through the encode pool: the worker
// fills buf/err and closes done; the splicer (whoever holds sw.mu) writes
// completed head jobs to the output in FIFO order.
type encJob struct {
	buf     *bytes.Buffer
	payload int64 // RecordBytes of the chunk
	err     error
	done    chan struct{}
}

// encQueueSlack bounds how far rendering may run ahead of splicing, in
// multiples of the worker count: above it, Emit blocks on the head job,
// applying backpressure instead of buffering the whole shipment.
const encQueueSlack = 4

// SetWorkers dials the writer's chunk-render pool: 0 (the default) is one
// worker per CPU, 1 or less is the serial in-line path. It must be called
// before the first Emit.
func (sw *ShipmentWriter) SetWorkers(n int) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.opened {
		sw.reqWorkers = n
		sw.workers = 0
		sw.sem = nil
	}
}

// SetObs points the writer at a metric registry (nil is fine): queue
// depth, worker count, and per-chunk render latency become visible.
func (sw *ShipmentWriter) SetObs(met *obs.Registry) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.met = met
}

// encodeWorkers resolves the pool lazily, under sw.mu.
func (sw *ShipmentWriter) encodeWorkers() int {
	if sw.workers == 0 {
		sw.workers = effectiveWorkers(sw.reqWorkers)
		if sw.workers > 1 {
			sw.sem = make(chan struct{}, sw.workers)
		}
		sw.met.Gauge("wire.encode.workers").Set(int64(sw.workers))
	}
	return sw.workers
}

// emitParallel submits one chunk to the render pool and splices whatever
// is ready. Caller holds sw.mu.
func (sw *ShipmentWriter) emitParallel(key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) error {
	// The caller may reuse its batch slice after Emit returns (the serial
	// path has consumed it by then); the worker needs a private header.
	recs = append(make([]*xmltree.Node, 0, len(recs)), recs...)
	job := &encJob{done: make(chan struct{})}
	sw.fifo = append(sw.fifo, job)
	sw.met.Gauge("wire.encode.queue").Set(int64(len(sw.fifo)))
	go sw.renderAsync(job, key, frag, recs, seq)
	return sw.spliceLocked(encQueueSlack * sw.workers)
}

// renderAsync is the worker body: render the chunk into a pooled buffer,
// publish, release the slot.
func (sw *ShipmentWriter) renderAsync(job *encJob, key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) {
	sw.sem <- struct{}{}
	defer func() { <-sw.sem }()
	start := time.Now()
	buf := bufpool.Buffer()
	bw := bufpool.Writer(buf)
	err := renderChunk(bw, sw.sch, sw.codec, key, frag, recs, seq)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	bufpool.PutWriter(bw)
	job.buf, job.payload, job.err = buf, RecordBytes(recs), err
	sw.met.Histogram("wire.encode.render_ms").ObserveSince(start)
	close(job.done)
}

// spliceLocked writes completed head jobs to the output in FIFO order,
// blocking while more than max jobs are queued (max 0 drains fully).
// Caller holds sw.mu. After the first failed chunk the stream is corrupt,
// so later chunks are consumed but not written; the first error sticks.
func (sw *ShipmentWriter) spliceLocked(max int) error {
	for len(sw.fifo) > 0 {
		job := sw.fifo[0]
		if len(sw.fifo) > max {
			<-job.done
		} else {
			select {
			case <-job.done:
			default:
				sw.met.Gauge("wire.encode.queue").Set(int64(len(sw.fifo)))
				return sw.firstErr
			}
		}
		sw.fifo = sw.fifo[1:]
		if job.err != nil && sw.firstErr == nil {
			sw.firstErr = job.err
		}
		if sw.firstErr == nil {
			sw.bw.Write(job.buf.Bytes())
			sw.payload += job.payload
		}
		bufpool.PutBuffer(job.buf)
	}
	sw.met.Gauge("wire.encode.queue").Set(0)
	return sw.firstErr
}

// parseJob is one raw-payload chunk travelling through the decode pool:
// the worker fills recs/err and closes done; the scanner goroutine
// commits head jobs in stream order.
type parseJob struct {
	key         string
	frag        *core.Fragment
	seq         int64
	format, enc string
	buf         *bytes.Buffer // staged raw text; pooled, owned by the job until parsed
	recs        []*xmltree.Node
	err         error
	done        chan struct{}
}

// decQueueSlack mirrors encQueueSlack for the decode pool.
const decQueueSlack = 4

// decodeWorkers resolves the decoder's pool lazily from the Workers knob.
func (d *ShipmentDecoder) decodeWorkers() int {
	if d.workers == 0 {
		d.workers = effectiveWorkers(d.Workers)
		if d.workers > 1 {
			d.sem = make(chan struct{}, d.workers)
		}
		d.Met.Gauge("wire.decode.workers").Set(int64(d.workers))
	}
	return d.workers
}

// parseAsync is the decode worker body: parse the raw payload into
// records (each bin chunk decodes into an arena of its own), publish,
// release.
func (d *ShipmentDecoder) parseAsync(job *parseJob) {
	d.sem <- struct{}{}
	defer func() { <-d.sem }()
	start := time.Now()
	job.recs, job.err = parseRawChunk(job.buf.Bytes(), job.format, job.enc, job.frag, d.sch)
	bufpool.PutBuffer(job.buf)
	job.buf = nil
	d.Met.Histogram("wire.decode.parse_ms").ObserveSince(start)
	close(job.done)
}

// drainJobs commits completed head jobs in stream order, blocking while
// more than max jobs are queued (max 0 drains fully). Runs on the scanner
// goroutine only — commits never happen anywhere else.
func (d *ShipmentDecoder) drainJobs(max int) error {
	for len(d.jobs) > 0 {
		job := d.jobs[0]
		if len(d.jobs) > max {
			<-job.done
		} else {
			select {
			case <-job.done:
			default:
				d.Met.Gauge("wire.decode.queue").Set(int64(len(d.jobs)))
				return nil
			}
		}
		d.jobs = d.jobs[1:]
		if job.err != nil {
			return job.err
		}
		if err := d.commitRecs(job.key, job.frag, job.seq, job.recs); err != nil {
			return err
		}
	}
	d.Met.Gauge("wire.decode.queue").Set(0)
	return nil
}
