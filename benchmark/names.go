package main

// The benchmark's vocabulary: workloads and metric names with their units
// and regression bounds. BENCHMARK.json at the repository root carries the
// same tables for the driver; the smoke test fails when the two disagree.

// workload describes one named input set. Every field is fixed by the
// benchmark — only the seed varies between runs.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json "why").
	Why string
	// Telecom selects the multi-tenant CustomerInfo control-plane drive
	// (SOAP Exchange against the agency service); otherwise one XMark
	// auction document is exchanged through Agency.ExecuteOpts.
	Telecom bool
	// Source and Target name the layouts: MF/LF for auction documents,
	// ignored (Paper S -> T) for telecom.
	Source, Target string
	Codec          string
	// Journal puts a -fsync batch WAL under the target's sessions.
	Journal bool
	// Delta drives repeat exchanges in delta mode under seeded 1% churn.
	Delta bool
}

// workloads in report order. DocBytes, tenant and customer counts live in
// sizing so the smoke test can shrink them without touching the table.
var workloads = []workload{
	{
		Name: "bulk_mf2lf", Source: "MF", Target: "LF", Codec: "bin", Journal: true,
		Why: "Figure 9 headline: 2.5 MB XMark MF->LF, bin codec, journaled target; Combine-heavy and every budget layer does real work",
	},
	{
		Name: "bulk_lf2mf", Source: "LF", Target: "MF", Codec: "xml",
		Why: "same document LF->MF over tagged XML without a journal: Split not Combine, xml not bin, many narrow tables, durable bypassed",
	},
	{
		Name: "delta_1pct", Source: "MF", Target: "LF", Codec: "bin", Journal: true, Delta: true,
		Why: "bulk_mf2lf plus Delta under 1% seeded churn: wire, journal and SOAP body shrink ~100x while scan, ops, hash and diff stay",
	},
	{
		Name: "control_small", Telecom: true, Codec: "xml",
		Why: "4 tenants x 8 customers through the agency's SOAP Exchange with nproc clients and periodic re-Register: per-message cost dominates",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which are not gated).
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd is what a user of the exchange sees; reported by untraced runs.
// Bounds come from the two-set repeatability table in README.md.
var endToEnd = []metricDef{
	{"exchange_ms_p50", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"wire_bytes_per_doc_byte", "ratio", "lower", 0.02},
	{"allocs_per_op", "count", "lower", 0.03},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by traced runs: the layer is the module name before
// the first dot. A layer the workload bypasses reports 0 (printed "n/a" in
// the human-readable table).
var perLayer = []metricDef{
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.exchange_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "client.exchange_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "client.exchange_ms_max", Unit: "ms", Better: "lower"},

	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},

	{Name: "relstore.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "relstore.scan_rows", Unit: "count", Better: "lower"},
	{Name: "relstore.load_ms", Unit: "ms", Better: "lower"},
	{Name: "relstore.load_rows", Unit: "count", Better: "lower"},
	{Name: "relstore.index_ms", Unit: "ms", Better: "lower"},

	{Name: "core.source_slice_ms", Unit: "ms", Better: "lower"},
	{Name: "core.target_slice_ms", Unit: "ms", Better: "lower"},
	{Name: "core.combine_ms", Unit: "ms", Better: "lower"},
	{Name: "core.split_ms", Unit: "ms", Better: "lower"},
	{Name: "core.scan_op_ms", Unit: "ms", Better: "lower"},
	{Name: "core.write_op_ms", Unit: "ms", Better: "lower"},
	{Name: "core.out_rows", Unit: "count", Better: "lower"},
	{Name: "core.mapping_ms", Unit: "ms", Better: "lower"},
	{Name: "core.greedy_ms", Unit: "ms", Better: "lower"},

	{Name: "wire.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.shipment_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wire.payload_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wire.chunks", Unit: "count", Better: "lower"},
	{Name: "wire.render_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "wire.parse_ms_sum", Unit: "ms", Better: "lower"},

	{Name: "soap.stream_roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "soap.empty_call_ms", Unit: "ms", Better: "lower"},
	{Name: "soap.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "soap.req_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "soap.resp_bytes_per_op", Unit: "bytes", Better: "lower"},

	{Name: "reliable.hash_ms", Unit: "ms", Better: "lower"},
	{Name: "reliable.diff_ms", Unit: "ms", Better: "lower"},
	{Name: "reliable.delta_records", Unit: "count", Better: "lower"},
	{Name: "reliable.tombstones", Unit: "count", Better: "lower"},
	{Name: "reliable.retries", Unit: "count", Better: "lower"},
	{Name: "reliable.resumes", Unit: "count", Better: "lower"},
	{Name: "reliable.fallbacks", Unit: "count", Better: "lower"},

	{Name: "durable.journal_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.appends_per_op", Unit: "count", Better: "lower"},
	{Name: "durable.append_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "durable.fsyncs_per_op", Unit: "count", Better: "lower"},
	{Name: "durable.frames_per_group", Unit: "count", Better: "higher"},
	{Name: "durable.batch_stalls_per_op", Unit: "count", Better: "lower"},
	{Name: "durable.snapshots_per_op", Unit: "count", Better: "lower"},
	{Name: "durable.write_amp", Unit: "ratio", Better: "lower"},

	{Name: "endpoint.source_ms", Unit: "ms", Better: "lower"},
	{Name: "endpoint.target_ms", Unit: "ms", Better: "lower"},
	{Name: "endpoint.write_ms", Unit: "ms", Better: "lower"},
	{Name: "endpoint.index_ms", Unit: "ms", Better: "lower"},
	{Name: "endpoint.sessions_live_end", Unit: "count", Better: "lower"},

	{Name: "registry.span_source_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.span_deliver_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.span_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.plan_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.plan_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.register_ms", Unit: "ms", Better: "lower"},
	{Name: "registry.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "registry.sched_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "registry.sched_shed", Unit: "count", Better: "lower"},

	{Name: "wsdlx.parse_ms", Unit: "ms", Better: "lower"},

	{Name: "publish.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "shred.shred_ms", Unit: "ms", Better: "lower"},
	{Name: "baseline.publish_map_ms", Unit: "ms", Better: "lower"},

	{Name: "budget.staged_sum_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.coverage_ratio", Unit: "ratio", Better: "higher"},
	{Name: "budget.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// sizing holds the input dimensions. The defaults are the benchmark; the
// smoke test shrinks DocBytes so all four workloads fit its time budget.
type sizing struct {
	// DocBytes is the XMark document size (the paper's smallest is 2.5 MB).
	DocBytes int64
	// Tenants and Customers size the telecom control-plane workload.
	Tenants, Customers int
	// ChurnFrac is the share of items each delta round deletes, updates
	// and inserts (a third each).
	ChurnFrac float64
	// ReRegisterEvery makes every n-th op of a telecom client first
	// re-Register its tenant's target, invalidating the cached plan.
	ReRegisterEvery int
}

var defaultSizing = sizing{
	DocBytes:        2_500_000,
	Tenants:         4,
	Customers:       8,
	ChurnFrac:       0.01,
	ReRegisterEvery: 32,
}
