package main

// The traced run: the same workload with an obs.Registry attached to every
// role, followed by the staged per-layer replay. It reports the per-layer
// metrics; an untraced reference drive in the same process gives the
// tracing overhead.

import (
	"fmt"
	"runtime"
	"time"

	"xdx/internal/core"
)

const (
	// maxReplays bounds the staged replay; it also stops once it has used
	// its share of the run length (but never before minReplays).
	maxReplays = 12
	minReplays = 3
	// controlRounds is how many times the control-plane calls are staged.
	controlRounds = 20
	// spanProbes is how many in-process exchanges a SOAP-driven workload
	// adds after its drive to obtain the agency's span tree.
	spanProbes = 16
)

// obsSnap is a point-in-time copy of every role's registry.
type obsSnap []map[string]any

func (o *roleObs) snap() obsSnap {
	var s obsSnap
	for _, r := range o.all() {
		s = append(s, r.Snapshot())
	}
	return s
}

// counterSince sums a counter's growth over all roles.
func counterSince(before, after obsSnap, name string) float64 {
	var sum float64
	for i := range after {
		a, _ := after[i][name].(int64)
		b, _ := before[i][name].(int64)
		sum += float64(a - b)
	}
	return sum
}

// histSince sums a histogram's growth (sum of observations, count) over
// all roles.
func histSince(before, after obsSnap, name string) (sum, count float64) {
	field := func(m map[string]any, k string) float64 {
		h, _ := m[name].(map[string]any)
		switch v := h[k].(type) {
		case float64:
			return v
		case int64:
			return float64(v)
		}
		return 0
	}
	for i := range after {
		sum += field(after[i], "sum") - field(before[i], "sum")
		count += field(after[i], "count") - field(before[i], "count")
	}
	return sum, count
}

func runTraced(cfg config, env *environment) *result {
	res := &result{Metrics: map[string]value{}}
	w := cfg.workload
	share := cfg.dur / 4

	// Untraced reference: the overhead ratio's denominator.
	ref, err := deploy(w, cfg.sz, cfg.seed, cfg.outDir, nil)
	if err != nil {
		return res.fatal(err)
	}
	ref.drive(cfg.warmup, 0, false)
	runtime.GC()
	refStats := ref.drive(share, cfg.minOps, false)
	ref.close()
	if refStats.failed > 0 {
		return res.fatal(fmt.Errorf("untraced reference drive: %w", refStats.firstErr))
	}

	ro := newRoleObs()
	d, err := deploy(w, cfg.sz, cfg.seed, cfg.outDir, ro)
	if err != nil {
		return res.fatal(err)
	}
	defer d.close()
	d.drive(cfg.warmup, 0, false)
	runtime.GC()
	before := ro.snap()
	hits0, miss0, _, _ := d.agency.PlanCacheStats()
	_, _, _, shed0 := d.sched.Stats()
	st := d.drive(share, cfg.minOps, true)
	after := ro.snap()
	hits1, miss1, _, _ := d.agency.PlanCacheStats()
	_, _, _, shed1 := d.sched.Stats()
	ops := float64(st.attempted)

	// The agency's own spans: the SOAP response drops them, so a SOAP-driven
	// workload adds a few in-process exchanges with the service's options.
	traced := st.results
	if w.Telecom {
		traced = nil
		t := d.tenants[0]
		for i := 0; i < spanProbes; i++ {
			if err := d.prepare(t); err != nil {
				return res.fatal(err)
			}
			r := d.exchangeDirect(t)
			if r.err != nil {
				return res.fatal(fmt.Errorf("span probe: %w", r.err))
			}
			traced = append(traced, r)
		}
	}

	oracle, err := d.checkOracle()
	if err != nil {
		st.fail(err)
	}
	res.count(st)
	live := 0
	for _, t := range d.tenants {
		live += t.srcEP.Sessions().Len() + t.tgtEP.Sessions().Len()
	}

	rec := newRecorder()
	s, err := newStager(d, rec)
	if err != nil {
		return res.fatal(err)
	}
	if err := s.replay(0, false); err != nil {
		return res.fatal(err)
	}
	start := time.Now()
	for i := 1; i <= maxReplays && (i <= minReplays || time.Since(start) < 2*share); i++ {
		if err := s.replay(i, true); err != nil {
			return res.fatal(err)
		}
	}
	if err := s.control(controlRounds); err != nil {
		return res.fatal(err)
	}
	if err := rec.write(cfg.outDir, w.Name, env); err != nil {
		return res.fatal(err)
	}
	res.Correct = res.err == nil

	// client, runtime
	res.set("client.samples", float64(len(st.latMS)))
	res.set("client.exchange_ms_p90", percentile(st.latMS, 0.90))
	if len(st.latMS) >= 1000 { // at least ten samples beyond the percentile
		res.set("client.exchange_ms_p99", percentile(st.latMS, 0.99))
	} else {
		res.setNA("client.exchange_ms_p99")
	}
	res.set("client.exchange_ms_max", percentile(st.latMS, 1))
	res.set("runtime.peak_rss_mb", peakRSSMB())
	res.set("runtime.gc_cycles_per_op", float64(st.use.gcCycles)/ops)
	res.set("runtime.gc_pause_ms_per_op", ms(st.use.gcPause)/ops)

	// Everything the staged replay sampled: median over replays.
	for name, vals := range s.samples {
		res.set(name, median(vals))
	}
	kinds := map[core.OpKind]bool{}
	for _, op := range s.plan.Program.Ops {
		kinds[op.Kind] = true
	}
	if !kinds[core.OpCombine] {
		res.setNA("core.combine_ms")
	}
	if !kinds[core.OpSplit] {
		res.setNA("core.split_ms")
	}

	// The program's existing instruments, per real traced exchange.
	render, _ := histSince(before, after, "wire.encode.render_ms")
	parse, _ := histSince(before, after, "wire.decode.parse_ms")
	res.set("wire.render_ms_sum", render/ops)
	res.set("wire.parse_ms_sum", parse/ops)
	res.set("soap.calls_per_op", counterSince(before, after, "soap.server.requests")/ops)
	res.set("soap.req_bytes_per_op", counterSince(before, after, "soap.server.req_bytes")/ops)
	res.set("soap.resp_bytes_per_op", counterSince(before, after, "soap.server.resp_bytes")/ops)

	res.set("reliable.retries", counterSince(before, after, "exchange.retries"))
	res.set("reliable.resumes", counterSince(before, after, "exchange.resumes"))
	res.set("reliable.fallbacks", counterSince(before, after, "exchange.delta.fallbacks"))
	if w.Delta {
		res.set("reliable.delta_records", counterSince(before, after, "exchange.delta.records")/ops)
		res.set("reliable.tombstones", counterSince(before, after, "exchange.delta.tombstones")/ops)
	} else {
		res.setNA("reliable.hash_ms", "reliable.diff_ms", "reliable.delta_records", "reliable.tombstones")
	}

	if w.Journal {
		appendBytes := counterSince(before, after, "wal.append.bytes") / ops
		frames, groups := histSince(before, after, "wal.batch.frames")
		res.set("durable.appends_per_op", counterSince(before, after, "wal.appends")/ops)
		res.set("durable.append_bytes_per_op", appendBytes)
		res.set("durable.fsyncs_per_op", counterSince(before, after, "wal.fsyncs")/ops)
		res.set("durable.frames_per_group", ratio(frames, groups))
		res.set("durable.batch_stalls_per_op", counterSince(before, after, "wal.batch.stalls")/ops)
		res.set("durable.snapshots_per_op", counterSince(before, after, "wal.snapshots")/ops)
		res.set("durable.write_amp", ratio(appendBytes, res.Metrics["wire.payload_bytes"].Value))
	} else {
		res.setNA("durable.journal_ms", "durable.appends_per_op", "durable.append_bytes_per_op",
			"durable.fsyncs_per_op", "durable.frames_per_group", "durable.batch_stalls_per_op",
			"durable.snapshots_per_op", "durable.write_amp")
	}

	// endpoint and registry: the real traced exchanges' own clocks.
	var src, tgt, wr, idx, spSrc, spDel, spCom []float64
	for _, r := range st.results {
		src, tgt = append(src, ms(r.source)), append(tgt, ms(r.target))
		wr, idx = append(wr, ms(r.write)), append(idx, ms(r.index))
	}
	for _, r := range traced {
		by := map[string]time.Duration{}
		for _, k := range r.trace.Kids() {
			by[k.Name] += k.Duration()
		}
		spSrc, spDel, spCom = append(spSrc, ms(by["source"])), append(spDel, ms(by["deliver"])), append(spCom, ms(by["commit"]))
	}
	res.set("endpoint.source_ms", median(src))
	res.set("endpoint.target_ms", median(tgt))
	res.set("endpoint.write_ms", median(wr))
	res.set("endpoint.index_ms", median(idx))
	res.set("endpoint.sessions_live_end", float64(live))
	res.set("registry.span_source_ms", median(spSrc))
	res.set("registry.span_deliver_ms", median(spDel))
	res.set("registry.span_commit_ms", median(spCom))
	res.set("registry.plan_cache_hit_ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+miss1-miss0)))
	wait, waits := histSince(before, after, "sched.wait.millis")
	res.set("registry.sched_wait_ms_mean", ratio(wait, waits))
	res.set("registry.sched_shed", float64(shed1-shed0))

	// The oracle's arm, timed once.
	res.set("publish.publish_ms", ms(oracle.publish))
	res.set("shred.shred_ms", ms(oracle.shred))
	res.set("baseline.publish_map_ms", ms(oracle.total()))

	// budget: how much of one traced exchange the staged rows explain.
	p50 := median(st.latMS)
	sum := res.Metrics["budget.staged_sum_ms"].Value
	res.set("budget.coverage_ratio", ratio(sum, p50))
	res.set("budget.unattributed_ms", p50-sum)
	res.set("trace.overhead_ratio", ratio(p50, median(refStats.latMS)))
	return res
}
