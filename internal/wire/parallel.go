package wire

// Chunk-parallel shipment pipelines. A shipment is a sequence of
// self-contained <instance> chunks — each one an independent compression
// frame with its own delta state (bin.go) — so chunks can be rendered and
// parsed concurrently as long as they enter and leave the stream in order.
// Both sides of the wire share one process-wide pool of long-lived
// workers, and it is the only way a chunk is rendered or received:
//
// Encode: Emit hands each chunk to the pool, which renders it into a
// pooled buffer; Emit and Close splice finished chunks onto the output in
// emit order under the writer lock, so there is no flusher goroutine and
// an abandoned writer leaks nothing. The bytes equal renderChunk's, run
// chunk by chunk onto one writer (parallel_test.go).
//
// Decode: the pool parses raw-payload (bin) chunks while the
// scanner races ahead; parsed chunks commit strictly in stream order on
// the scanner's goroutine, so every decoder hook — OnChunk and its
// under-lock rechecks, Commit and its tickets, ChunkDone, CommitLock —
// and chunk-atomic staging see chunks one at a time, in
// order. Tagged-XML chunks build their trees on the scanner goroutine and
// drain the parse queue before committing.
//
// A chunk in flight is a slot — an encJob or parseJob from a sync.Pool,
// with a one-token channel it keeps for life — so a chunk costs no
// goroutine, job or channel of its own, and a one-chunk shipment pays one
// pooled slot rather than a pool. The pool grows to one worker per CPU
// (runtime.GOMAXPROCS) and never shrinks; idle workers park on the job
// channel.

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

// codecJob is one chunk's render or parse, run by a pool worker.
type codecJob interface{ run() }

var (
	poolJobs    = make(chan codecJob, 64)
	poolMu      sync.Mutex
	poolWorkers atomic.Int32
)

// queueSlack bounds how far rendering may run ahead of splicing, and
// parsing ahead of committing, in multiples of the CPU count: past it, the
// writer or decoder blocks on its head job, applying backpressure instead
// of buffering the whole shipment.
const queueSlack = 4

// queueMax is how many chunks one writer or decoder may have in flight.
func queueMax() int { return queueSlack * runtime.GOMAXPROCS(0) }

// submit hands job to the shared pool, first growing it to one worker per
// CPU. A job never blocks on another, so a full pool only delays.
func submit(job codecJob) {
	if want := runtime.GOMAXPROCS(0); int(poolWorkers.Load()) < want {
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
	j.payload, j.err = renderChunk(j.buf, j.sw.sch, j.sw.codec, j.key, j.frag, j.recs, j.seq)
	j.sw.renderMS.ObserveSince(start)
	j.done <- struct{}{}
}

// SetObs points the writer at a metric registry (nil is fine): queue depth
// and per-chunk render latency become visible. It must be called before
// the first Emit.
func (sw *ShipmentWriter) SetObs(met *obs.Registry) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.opened {
		sw.renderMS = met.Histogram("wire.encode.render_ms")
		sw.queue = met.Gauge("wire.encode.queue")
	}
}

// emitLocked submits one chunk to the render pool and splices whatever is
// ready. Caller holds sw.mu.
func (sw *ShipmentWriter) emitLocked(key string, frag *core.Fragment, recs []*xmltree.Node, seq int64) error {
	if err := sw.openLocked(); err != nil {
		return err
	}
	job := encJobs.Get().(*encJob)
	job.sw, job.key, job.frag, job.recs, job.seq = sw, key, frag, recs, seq
	sw.fifo = append(sw.fifo, job)
	sw.queue.Set(int64(len(sw.fifo)))
	submit(job)
	return sw.spliceLocked(queueMax())
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
	j.c.Recs, j.err = parseRawChunk(j.buf.Bytes(), j.c.Enc, j.d.sch)
	j.d.parseMS.ObserveSince(start)
	j.done <- struct{}{}
}

// submitParse queues one staged raw chunk for the parse pool and commits
// whatever is ready.
func (d *ShipmentDecoder) submitParse(c *Chunk, raw *bytes.Buffer) error {
	if d.queue == nil && d.Met != nil {
		d.parseMS = d.Met.Histogram("wire.decode.parse_ms")
		d.queue = d.Met.Gauge("wire.decode.queue")
	}
	job := parseJobs.Get().(*parseJob)
	job.d, job.c, job.buf = d, *c, raw
	d.jobs = append(d.jobs, job)
	d.queue.Set(int64(len(d.jobs)))
	submit(job)
	return d.drainJobs(queueMax())
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
