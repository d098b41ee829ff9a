package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xdx/internal/schema"
	"xdx/internal/xmltree"
)

// This file implements the pipelined streaming executor: every operation of
// a data-transfer program runs as its own stage, connected to its consumers
// by bounded channels, so a Combine starts probing its join index while the
// upstream Scan or Split is still producing, and independent chains overlap
// freely. §5.2 of the paper notes this opportunity ("execute operations on
// different fragments in parallel, overlapping communication with
// computation") without pursuing it.
//
// Data flows as record batches (Scan, Split) or whole-instance handoffs
// (Combine, whose output is only complete once every child has attached).
// A handoff carries the instance's incremental join index with it, so a
// chain of k Combines indexes each node exactly once instead of re-walking
// the growing merged instance at every step. Multi-consumer outputs are
// distributed as copy-on-write views instead of deep copies.

const (
	// pipeBatch is the number of records per streamed batch.
	pipeBatch = 64
	// pipeDepth is the buffering of each inter-stage channel, in batches.
	pipeDepth = 4
)

// pipeMsg is one unit of inter-stage flow: either a record batch (recs with
// optional copy-on-write flags) or a whole-instance handoff (inst, which
// carries the join index of a finished Combine).
type pipeMsg struct {
	recs   []*xmltree.Node
	shared []bool
	inst   *Instance
}

// records flattens either form into (records, shared flags).
func (m pipeMsg) records() ([]*xmltree.Node, []bool) {
	if m.inst != nil {
		return m.inst.Records, m.inst.shared
	}
	return m.recs, m.shared
}

// pipeOut is the fan-out of one (op, fragment) output: the channels of its
// local consumers, the cross-edge destination (an outbound accumulator, or
// the run's emit hook addressed by key/frag), and the total consumer count
// deciding copy-on-write.
type pipeOut struct {
	local []chan pipeMsg
	outb  *Instance
	cross bool
	key   string
	frag  *Fragment
	total int
}

// pipeRun is one pipelined execution: the program, the environment hooks,
// the channel plumbing, and the first-error/cancellation state.
type pipeRun struct {
	g   *Graph
	sch *schema.Schema
	// runs reports whether an op executes in this process (always true for
	// ExecutePipelined; location-filtered for ExecuteSlicePipelined).
	runs func(op *Op) bool
	// scan supplies the source instance for a Scan op.
	scan func(op *Op) (*Instance, error)
	// write consumes the instance delivered to a Write op.
	write func(op *Op, inst *Instance) error
	// feeds maps inbound cross-edges to their received instances.
	feeds map[*Edge]*Instance
	// outbound maps cross-edge keys to pre-created accumulator instances.
	outbound map[string]*Instance
	// emitOut, when set, streams outbound cross-edge records out of the
	// process as they are produced; outbound accumulators are not used.
	emitOut func(key string, frag *Fragment, recs []*xmltree.Node) error

	chans  map[*Edge]chan pipeMsg
	outs   []map[*Fragment]*pipeOut
	traces []OpTrace

	done chan struct{}
	once sync.Once
	err  error
}

// fail records the first error and cancels every stage.
func (r *pipeRun) fail(err error) {
	r.once.Do(func() {
		r.err = err
		close(r.done)
	})
}

// aborted reports whether the run has been cancelled.
func (r *pipeRun) aborted() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// send delivers m to ch unless the run is cancelled.
func (r *pipeRun) send(ch chan pipeMsg, m pipeMsg) bool {
	select {
	case ch <- m:
		return true
	case <-r.done:
		return false
	}
}

// recv receives from ch; ok is false when ch is closed or the run is
// cancelled (callers distinguish via aborted).
func (r *pipeRun) recv(ch chan pipeMsg) (pipeMsg, bool) {
	select {
	case m, ok := <-ch:
		return m, ok
	case <-r.done:
		return pipeMsg{}, false
	}
}

// emit distributes one produced message to every consumer of an output.
// With a single consumer the message passes through untouched — in
// particular a Combine handoff keeps its join index, the chained-combine
// fast path. With several consumers each local one receives a copy-on-write
// view, and the records go into the outbound accumulator as-is (outbound
// data is only serialized, never mutated; local consumers clone before
// mutating shared records).
func (r *pipeRun) emit(po *pipeOut, m pipeMsg) bool {
	if po == nil {
		return true // output has no consumers
	}
	if po.total == 1 {
		if po.cross {
			return r.ship(po, m)
		}
		return r.send(po.local[0], m)
	}
	if po.cross && !r.ship(po, m) {
		return false
	}
	if m.inst != nil {
		for _, ch := range po.local {
			if !r.send(ch, pipeMsg{inst: m.inst.Share()}) {
				return false
			}
		}
		return true
	}
	shared := make([]bool, len(m.recs))
	for i := range shared {
		shared[i] = true
	}
	for _, ch := range po.local {
		if !r.send(ch, pipeMsg{recs: m.recs, shared: shared}) {
			return false
		}
	}
	return true
}

// ship delivers one produced message to a cross-edge destination: the emit
// hook when the run streams outbound data, the pre-created accumulator
// otherwise.
func (r *pipeRun) ship(po *pipeOut, m pipeMsg) bool {
	recs, _ := m.records()
	if r.emitOut != nil {
		if err := r.emitOut(po.key, po.frag, recs); err != nil {
			r.fail(err)
			return false
		}
		return true
	}
	po.outb.Records = append(po.outb.Records, recs...)
	return true
}

// run wires the channels, launches one goroutine per local op (plus feeders
// for inbound cross-edges), waits for the pipeline to drain, and returns
// per-op traces in topological order.
func (r *pipeRun) run() ([]OpTrace, error) {
	r.done = make(chan struct{})
	r.chans = make(map[*Edge]chan pipeMsg)
	for _, e := range r.g.Edges {
		if r.runs(e.To) {
			r.chans[e] = make(chan pipeMsg, pipeDepth)
		}
	}
	r.outs = make([]map[*Fragment]*pipeOut, len(r.g.Ops))
	for _, op := range r.g.Ops {
		if !r.runs(op) {
			continue
		}
		for _, e := range r.g.Out(op) {
			m := r.outs[op.ID]
			if m == nil {
				m = make(map[*Fragment]*pipeOut)
				r.outs[op.ID] = m
			}
			po := m[e.Frag]
			if po == nil {
				po = &pipeOut{}
				m[e.Frag] = po
			}
			po.total++
			if r.runs(e.To) {
				po.local = append(po.local, r.chans[e])
			} else {
				po.cross = true
				po.key, po.frag = EdgeKey(e), e.Frag
				po.outb = r.outbound[EdgeKey(e)]
			}
		}
	}
	r.traces = make([]OpTrace, len(r.g.Ops))

	var wg sync.WaitGroup
	for e, inst := range r.feeds {
		wg.Add(1)
		go func(ch chan pipeMsg, inst *Instance) {
			defer wg.Done()
			defer close(ch)
			r.send(ch, pipeMsg{inst: inst})
		}(r.chans[e], inst)
	}
	for _, op := range r.g.Ops {
		if !r.runs(op) {
			continue
		}
		wg.Add(1)
		go func(op *Op) {
			defer wg.Done()
			r.runOp(op)
		}(op)
	}
	wg.Wait()
	if r.err != nil {
		return nil, r.err
	}
	var traces []OpTrace
	for _, op := range r.g.Topo() {
		if r.runs(op) {
			traces = append(traces, r.traces[op.ID])
		}
	}
	return traces, nil
}

// runOp executes one stage and records its trace; output channels close
// when the stage returns, ending downstream input streams.
func (r *pipeRun) runOp(op *Op) {
	defer func() {
		for _, po := range r.outs[op.ID] {
			for _, ch := range po.local {
				close(ch)
			}
		}
	}()
	start := time.Now()
	var rows int
	var ok bool
	switch op.Kind {
	case OpScan:
		rows, ok = r.runScan(op)
	case OpCombine:
		rows, ok = r.runCombine(op)
	case OpSplit:
		rows, ok = r.runSplit(op)
	case OpWrite:
		rows, ok = r.runWrite(op)
	}
	if ok {
		r.traces[op.ID] = OpTrace{Op: op, Duration: time.Since(start), OutRows: rows}
	}
}

// runScan streams the source instance downstream in batches.
func (r *pipeRun) runScan(op *Op) (int, bool) {
	src, err := r.scan(op)
	if err != nil {
		r.fail(err)
		return 0, false
	}
	recs := src.Records
	po := r.outs[op.ID][op.Out]
	for i := 0; i < len(recs); i += pipeBatch {
		if !r.emit(po, pipeMsg{recs: recs[i:min(i+pipeBatch, len(recs))]}) {
			return 0, false
		}
	}
	return len(recs), true
}

// pendingChild is a child record buffered until its parent record arrives.
type pendingChild struct {
	rec    *xmltree.Node
	shared bool
}

// runCombine drains both inputs concurrently, attaching child records the
// moment their parent element instance is present and buffering the rest.
// Buffered children retry in FIFO order whenever parent-side data arrives,
// which preserves the per-parent attach order of the batch Combine: two
// children of the same parent either both hit or both miss at any instant,
// so arrival order within the child stream is never reordered under a
// parent. A child still unattached when both inputs close is an orphan,
// exactly as in the batch operator.
func (r *pipeRun) runCombine(op *Op) (int, bool) {
	ins := r.g.In(op)
	pe, ce := ins[0], ins[1]
	// Decide direction structurally, as the batch executors do: the parent
	// side is the one whose fragment contains every possible parent of the
	// other side's root.
	if !combinableFrags(r.sch, pe.Frag, ce.Frag) {
		pe, ce = ce, pe
	}
	j, err := newJoiner(r.sch, &Instance{Frag: pe.Frag}, ce.Frag)
	if err != nil {
		r.fail(fmt.Errorf("core: pipeline: %s: %w", op, err))
		return 0, false
	}
	var pending []pendingChild
	retry := func() {
		keep := pending[:0]
		for _, pc := range pending {
			if !j.attach(pc.rec, pc.shared) {
				keep = append(keep, pc)
			}
		}
		pending = keep
	}
	pch, cch := r.chans[pe], r.chans[ce]
	for pch != nil || cch != nil {
		select {
		case <-r.done:
			return 0, false
		case m, ok := <-pch:
			if !ok {
				pch = nil
				continue
			}
			if m.inst != nil {
				j.adopt(m.inst)
			} else {
				j.appendParent(m.recs, m.shared)
			}
			retry()
		case m, ok := <-cch:
			if !ok {
				cch = nil
				continue
			}
			recs, shared := m.records()
			for i, rec := range recs {
				sh := shared != nil && shared[i]
				if !j.attach(rec, sh) {
					pending = append(pending, pendingChild{rec: rec, shared: sh})
				}
			}
		}
	}
	if r.aborted() {
		return 0, false
	}
	if len(pending) > 0 {
		pc := pending[0]
		r.fail(fmt.Errorf("core: pipeline: %s: combine %q into %q: orphan record %s (parent %s not found)",
			op, ce.Frag.Name, pe.Frag.Name, pc.rec.ID, pc.rec.Parent))
		return 0, false
	}
	p := j.parent
	// The combine's planned output fragment is authoritative; the handoff
	// keeps the incrementally built join index for downstream Combines.
	merged := &Instance{Frag: op.Out, Records: p.Records, shared: p.shared, idx: p.idx, interior: p.interior}
	if !r.emit(r.outs[op.ID][op.Out], pipeMsg{inst: merged}) {
		return 0, false
	}
	return len(merged.Records), true
}

// runSplit projects each arriving batch into the op's parts and streams the
// projections onward immediately.
func (r *pipeRun) runSplit(op *Op) (int, bool) {
	sp, err := newSplitter(op.Out, op.Parts)
	if err != nil {
		r.fail(fmt.Errorf("core: pipeline: %s: %w", op, err))
		return 0, false
	}
	ch := r.chans[r.g.In(op)[0]]
	rows := 0
	for {
		m, ok := r.recv(ch)
		if !ok {
			break
		}
		recs, _ := m.records()
		out := make(map[*Fragment][]*xmltree.Node, len(op.Parts))
		for _, rec := range recs {
			if err := sp.extract(rec, out); err != nil {
				r.fail(fmt.Errorf("core: pipeline: %s: %w", op, err))
				return 0, false
			}
		}
		for _, p := range op.Parts {
			if len(out[p]) == 0 {
				continue
			}
			rows += len(out[p])
			if !r.emit(r.outs[op.ID][p], pipeMsg{recs: out[p]}) {
				return 0, false
			}
		}
	}
	if r.aborted() {
		return 0, false
	}
	return rows, true
}

// runWrite accumulates the input stream and delivers the final instance.
func (r *pipeRun) runWrite(op *Op) (int, bool) {
	ch := r.chans[r.g.In(op)[0]]
	var recs []*xmltree.Node
	for {
		m, ok := r.recv(ch)
		if !ok {
			break
		}
		rs, _ := m.records()
		recs = append(recs, rs...)
	}
	if r.aborted() {
		return 0, false
	}
	if err := r.write(op, &Instance{Frag: op.Out, Records: recs}); err != nil {
		r.fail(err)
		return 0, false
	}
	return len(recs), true
}

// ExecutePipelined runs a data-transfer program with every operation as a
// streaming stage. Semantics match Execute — same written instances (up to
// the shared mutation of source records that Execute also performs), same
// error conditions — only scheduling differs: downstream ops consume record
// batches while upstream ops still produce.
func ExecutePipelined(g *Graph, sch *schema.Schema, sources map[string]*Instance) (*ExecResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	res := &ExecResult{Written: make(map[string]*Instance)}
	var mu sync.Mutex
	r := &pipeRun{
		g:    g,
		sch:  sch,
		runs: func(*Op) bool { return true },
		scan: func(op *Op) (*Instance, error) {
			src := sources[op.Out.Name]
			if src == nil {
				return nil, fmt.Errorf("core: pipeline: no source instance for %q", op.Out.Name)
			}
			return &Instance{Frag: op.Out, Records: src.Records}, nil
		},
		write: func(op *Op, inst *Instance) error {
			mu.Lock()
			res.Written[op.Out.Name] = inst
			mu.Unlock()
			return nil
		},
	}
	traces, err := r.run()
	if err != nil {
		return nil, err
	}
	res.Traces = traces
	return res, nil
}

// ExecuteSlicePipelined is the streaming counterpart of ExecuteSlice: it
// runs the operations of g assigned to loc as pipeline stages and returns
// the outbound cross-edge instances. Inbound instances feed their consumer
// stages as whole-instance handoffs; outbound instances accumulate records
// as their producers stream, so serialization of a shipment can begin as
// soon as the producer finishes rather than after the whole slice ran.
func ExecuteSlicePipelined(g *Graph, sch *schema.Schema, a Assignment, loc Location, io SliceIO) (map[string]*Instance, []OpTrace, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if len(a) != len(g.Ops) || !a.Complete() {
		return nil, nil, fmt.Errorf("core: slice: incomplete assignment")
	}
	if !a.Monotone(g) {
		return nil, nil, fmt.Errorf("core: slice: assignment ships data target to source")
	}
	inboundCount := make(map[string]int)
	for _, e := range g.Edges {
		if a[e.To.ID] == loc && a[e.From.ID] != loc {
			inboundCount[EdgeKey(e)]++
		}
	}
	outbound := make(map[string]*Instance)
	crossFrags := make(map[string]*Fragment)
	feeds := make(map[*Edge]*Instance)
	for _, e := range g.Edges {
		switch {
		case a[e.To.ID] == loc && a[e.From.ID] != loc:
			in := io.Inbound[EdgeKey(e)]
			if in == nil {
				return nil, nil, fmt.Errorf("core: slice: op %s misses inbound %s", e.To, EdgeKey(e))
			}
			// Several local edges may share one shipment; isolate the
			// consumers with copy-on-write views.
			if inboundCount[EdgeKey(e)] > 1 {
				in = in.Share()
			}
			feeds[e] = in
		case a[e.From.ID] == loc && a[e.To.ID] != loc:
			crossFrags[EdgeKey(e)] = e.Frag
			if io.Emit == nil && outbound[EdgeKey(e)] == nil {
				outbound[EdgeKey(e)] = &Instance{Frag: e.Frag}
			}
		}
	}
	// Scan and Write stages run concurrently, but SliceIO implementations
	// (stores, test maps) are written for the sequential executor; serialize
	// the calls into them.
	var scanMu, writeMu sync.Mutex
	r := &pipeRun{
		g:   g,
		sch: sch,
		runs: func(op *Op) bool {
			return a[op.ID] == loc
		},
		scan: func(op *Op) (*Instance, error) {
			if io.Scan == nil {
				return nil, fmt.Errorf("core: slice: Scan %s with no scan function", op)
			}
			scanMu.Lock()
			inst, err := io.Scan(op.Out)
			scanMu.Unlock()
			if err != nil {
				return nil, err
			}
			return &Instance{Frag: op.Out, Records: inst.Records}, nil
		},
		write: func(op *Op, inst *Instance) error {
			if io.Write == nil {
				return fmt.Errorf("core: slice: Write %s with no write function", op)
			}
			writeMu.Lock()
			defer writeMu.Unlock()
			return io.Write(inst)
		},
		feeds:    feeds,
		outbound: outbound,
	}
	// Stages produce concurrently; serialize the Emit hook and remember
	// which keys flowed so silent producers still announce their (empty)
	// instances afterwards.
	var emitMu sync.Mutex
	emitted := make(map[string]bool)
	if io.Emit != nil {
		r.emitOut = func(key string, frag *Fragment, recs []*xmltree.Node) error {
			emitMu.Lock()
			defer emitMu.Unlock()
			emitted[key] = true
			return io.Emit(key, frag, recs)
		}
	}
	traces, err := r.run()
	if err != nil {
		return nil, nil, err
	}
	if io.Emit != nil {
		keys := make([]string, 0, len(crossFrags))
		for key := range crossFrags {
			if !emitted[key] {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			if err := io.Emit(key, crossFrags[key], nil); err != nil {
				return nil, nil, err
			}
		}
	}
	return outbound, traces, nil
}
