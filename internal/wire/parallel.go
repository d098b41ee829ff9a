package wire

// Chunk-parallel shipment pipelines. A shipment is a sequence of
// self-contained <instance> chunks — each one an independent compression
// frame with its own delta state (bin.go) — so chunks can be rendered and
// parsed concurrently as long as they enter and leave the stream in order.
// Both sides of the wire share one process-wide pool of long-lived
// workers:
//
// Encode: Emit hands each chunk to the pool, which renders it into a
// pooled buffer; Emit and Close splice finished chunks onto the output in
// emit order under the writer lock, so there is no flusher goroutine and
// an abandoned writer leaks nothing. The bytes equal the serial codec's
// for every worker count (parallel_test.go).
//
// Decode: the pool parses raw-payload chunks (feed and bin) while the
// scanner races ahead; parsed chunks commit strictly in stream order on
// the scanner's goroutine, so every decoder hook — OnChunk and its
// under-lock recheck, Commit and its tickets, KeepRecords, ChunkDone,
// CommitLock — and chunk-atomic staging behave exactly as when parsing
// in-line. Tagged-XML chunks build their trees on the scanner goroutine
// and drain the parse queue before committing.
//
// A chunk in flight is a slot — an encJob or parseJob from a sync.Pool,
// with a one-token channel it keeps for life — so a chunk costs no
// goroutine, job or channel of its own, and a one-chunk shipment pays one
// pooled slot rather than a pool. The pool grows to the largest worker
// count any caller asked for (0 = one per CPU, 1 or less = serial) and
// never shrinks; idle workers park on the job channel.

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// codecJob is one chunk's render or parse, run by a pool worker.
type codecJob interface{ run() }

var (
	poolJobs    = make(chan codecJob, 64)
	poolMu      sync.Mutex
	poolWorkers atomic.Int32
)

// submit hands job to the shared pool, first growing it to at least want
// workers. A job never blocks on another, so a full pool only delays.
func submit(job codecJob, want int) {
	if int(poolWorkers.Load()) < want {
		poolMu.Lock()
		for int(poolWorkers.Load()) < want {
			poolWorkers.Add(1)
			go func() {
				for j := range poolJobs {
					j.run()
				}
			}()
		}
		poolMu.Unlock()
	}
	poolJobs <- job
}

// encJob is one chunk travelling through the render pool: the worker
// fills buf/payload/err and posts done; the splicer (whoever holds sw.mu)
// writes completed head jobs to the output in FIFO order.
type encJob struct {
	sw      *ShipmentWriter
	key     string
	frag    *core.Fragment
	recs    []*xmltree.Node
	seq     int64
	buf     *bytes.Buffer
	payload int64 // RecordBytes of the chunk
	err     error
	done    chan struct{}
}

var encJobs = sync.Pool{New: func() any { return &encJob{done: make(chan struct{}, 1)} }}

func (j *encJob) run() {
	start := time.Now()
	j.buf = bufpool.Buffer()
	bw := bufpool.Writer(j.buf)
	j.err = renderChunk(bw, j.sw.sch, j.sw.codec, j.key, j.frag, j.recs, j.seq)
	if ferr := bw.Flush(); j.err == nil {
		j.err = ferr
	}
	bufpool.PutWriter(bw)
	j.payload = RecordBytes(j.recs)
	j.sw.renderMS.ObserveSince(start)
	j.done <- struct{}{}
}

// encQueueSlack bounds how far rendering may run ahead of splicing, in
// multiples of the worker count: above it, Emit blocks on the head job,
// applying backpressure instead of buffering the whole shipment.
const encQueueSlack = 4

// SetWorkers dials the writer's chunk-render parallelism: 0 (the default)
// is one worker per CPU, 1 or less is the serial in-line path. It must be
// called before the first Emit.
func (sw *ShipmentWriter) SetWorkers(n int) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.opened {
		sw.reqWorkers = n
		sw.workers = 0
	}
}

// SetObs points the writer at a metric registry (nil is fine): queue
// depth, worker count, and per-chunk render latency become visible.
func (sw *ShipmentWriter) SetObs(met *obs.Registry) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.met = met
}

// encodeWorkers resolves the parallelism lazily, under sw.mu.
func (sw *ShipmentWriter) encodeWorkers() int {
	if sw.workers == 0 {
		sw.workers = effectiveWorkers(sw.reqWorkers)
		sw.renderMS = sw.met.Histogram("wire.encode.render_ms")
		sw.queue = sw.met.Gauge("wire.encode.queue")
		sw.met.Gauge("wire.encode.workers").Set(int64(sw.workers))
	}
	return sw.workers
}

// emitParallel submits one chunk to the render pool and splices whatever
// is ready. Caller holds sw.mu.
func (sw *ShipmentWriter) emitParallel(key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) error {
	job := encJobs.Get().(*encJob)
	job.sw, job.key, job.frag, job.recs, job.seq = sw, key, frag, recs, seq
	sw.fifo = append(sw.fifo, job)
	sw.queue.Set(int64(len(sw.fifo)))
	submit(job, sw.workers)
	return sw.spliceLocked(encQueueSlack * sw.workers)
}

// spliceLocked writes completed head jobs to the output in FIFO order,
// blocking while more than max jobs are queued (max 0 drains fully).
// Caller holds sw.mu. After the first failed chunk the stream is corrupt,
// so later chunks are consumed but not written; the first error sticks.
func (sw *ShipmentWriter) spliceLocked(max int) error {
	for {
		job, ok := popDone(&sw.fifo, max)
		if !ok {
			break
		}
		if job.err != nil && sw.firstErr == nil {
			sw.firstErr = job.err
		}
		if sw.firstErr == nil {
			sw.bw.Write(job.buf.Bytes())
			sw.payload += job.payload
		}
		bufpool.PutBuffer(job.buf)
		*job = encJob{done: job.done}
		encJobs.Put(job)
	}
	sw.queue.Set(int64(len(sw.fifo)))
	return sw.firstErr
}

// popDone pops the head job of q once it has finished, waiting for it
// while more than max jobs are queued; ok is false when q is empty or its
// head is still running.
func popDone[J interface{ doneCh() chan struct{} }](q *[]J, max int) (job J, ok bool) {
	if len(*q) == 0 {
		return job, false
	}
	job = (*q)[0]
	if len(*q) > max {
		<-job.doneCh()
	} else {
		select {
		case <-job.doneCh():
		default:
			return job, false
		}
	}
	n := copy(*q, (*q)[1:])
	var zero J
	(*q)[n] = zero
	*q = (*q)[:n]
	return job, true
}

func (j *encJob) doneCh() chan struct{}   { return j.done }
func (j *parseJob) doneCh() chan struct{} { return j.done }

// parseJob is one raw-payload chunk travelling through the parse pool:
// the worker fills c.Recs/err and posts done; the scanner goroutine
// commits head jobs in stream order, handing the staged text to the
// Commit hook as the chunk's payload before it returns to bufpool.
type parseJob struct {
	d    *ShipmentDecoder
	c    Chunk
	buf  *bytes.Buffer // staged raw text; pooled, owned by the job until committed
	err  error
	done chan struct{}
}

var parseJobs = sync.Pool{New: func() any { return &parseJob{done: make(chan struct{}, 1)} }}

// run parses the raw payload into records (each bin chunk decodes into an
// arena of its own).
func (j *parseJob) run() {
	start := time.Now()
	j.c.Recs, j.err = parseRawChunk(j.buf.Bytes(), j.c.Format, j.c.Enc, j.c.Frag, j.d.sch)
	j.d.parseMS.ObserveSince(start)
	j.done <- struct{}{}
}

// decQueueSlack mirrors encQueueSlack for the parse queue.
const decQueueSlack = 4

// decodeWorkers resolves the decoder's parallelism lazily from the Workers
// knob.
func (d *ShipmentDecoder) decodeWorkers() int {
	if d.workers == 0 {
		d.workers = effectiveWorkers(d.Workers)
		d.parseMS = d.Met.Histogram("wire.decode.parse_ms")
		d.queue = d.Met.Gauge("wire.decode.queue")
		d.Met.Gauge("wire.decode.workers").Set(int64(d.workers))
	}
	return d.workers
}

// submitParse queues one staged raw chunk for the parse pool.
func (d *ShipmentDecoder) submitParse(c *Chunk, raw *bytes.Buffer) {
	job := parseJobs.Get().(*parseJob)
	job.d, job.c, job.buf = d, *c, raw
	d.jobs = append(d.jobs, job)
	d.queue.Set(int64(len(d.jobs)))
	submit(job, d.workers)
}

// drainJobs commits completed head jobs in stream order, blocking while
// more than max jobs are queued (max 0 drains fully). Runs on the scanner
// goroutine only — commits never happen anywhere else.
func (d *ShipmentDecoder) drainJobs(max int) error {
	defer func() { d.queue.Set(int64(len(d.jobs))) }()
	for {
		job, ok := popDone(&d.jobs, max)
		if !ok {
			return nil
		}
		err := job.err
		if err == nil {
			job.c.Bytes = job.buf.Bytes()
			err = d.commit(&job.c)
		}
		bufpool.PutBuffer(job.buf)
		*job = parseJob{done: job.done}
		parseJobs.Put(job)
		if err != nil {
			return err
		}
	}
}
