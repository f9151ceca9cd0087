package main

// Pinned parameters. Later issues refer to the workloads by name, so a value
// here changes at most once and the README's "Deviations" section records
// the old value, the new value and the reason.
const (
	contractRunSeconds = 15 // run_seconds in BENCHMARK.json: what the driver passes as --seconds

	workers         = 2       // worker goroutines (lib) or TCP connections (wire); never more
	windows         = 10      // the timed region is cut into this many equal windows
	bankSampleEvery = 8       // lib-bank times every 8th transaction (a clock read costs a tenth of one)
	fig4SampleEvery = 1       // lib-fig4 times every transaction (a clock read costs a few thousandths of one)
	traceEvery      = 64      // the traced pass records spans on every 64th transaction / burst
	traceCapSpans   = 1 << 20 // spans kept in memory per worker; more are counted as dropped
	traceFileSpans  = 1 << 16 // spans per worker written to the trace file (the first ones)
	setupRepeats    = 3       // untraced runs set up this many times and report the median

	// lib-fig4: the paper's Figure-4 centre cell.
	fig4Keys      = 1024
	fig4OpsPerTxn = 16
	fig4Backend   = "tl2"
	fig4WarmTxns  = 10000 // per worker, part of setup_s

	// lib-bank: flat refs, transfers beside audits.
	bankAccounts   = 1024
	bankInitial    = 1000
	bankZipfS      = 1.1
	bankAuditOneIn = 100 // 1 % audits
	bankBackend    = "tl2"
	bankWarmTxns   = 100000

	// wire-point: one op per frame, depth 1.
	pointKeys      = 4096
	pointValueSize = 16
	pointBackend   = "ccstm"
	pointWarm      = 10000 // bursts per connection

	// wire-pipeline: 16-op frames, depth 32, snapshots beside writers.
	pipeKeys      = 1 << 18
	pipeCounters  = 1024
	pipeValueSize = 64
	pipeZipfS     = 1.1
	pipeDepth     = 32
	pipeBackend   = "mvcc"
	pipeWarm      = 300 // bursts per connection

	// Open-loop ladder: offered rates in batches/s, 25/50/75 % of the
	// wire-point closed-loop rate measured at the commit that added the
	// benchmark (see README). Limit: p99 <= 2 ms with failed share <= 0.001.
	openRate25       = 27500
	openRate50       = 55000
	openRate75       = 82500
	openLimitP99US   = 2000
	openLimitFailed  = 0.001
	noisySpinDelta   = 0.10 // before/after spin difference that stamps a run noisy_host
	minWindowSamples = 10000
)

// metricDef describes one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics are reported, not gated.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is printed, in this order, by every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"txn_mid_us", "us", lower, 0.25},
	{"txn_p99_us", "us", lower, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.05},
	{"heap_live_mb", "MB", lower, 0.10},
}

// perLayer is printed, in this order, by every traced run. A metric whose
// layer the workload bypasses (or whose ladder belongs to another workload)
// reads 0.
var perLayer = []metricDef{
	{"failed_share", "share", lower, 0},
	{"txn_p50_us", "us", lower, 0},
	{"txn_samples", "count", higher, 0},
	{"min_window_samples", "count", higher, 0},

	{"server.batch_rtt_us", "us", lower, 0},
	{"server.client_encode_us", "us", lower, 0},
	{"server.client_flush_us", "us", lower, 0},
	{"server.reply_wait_us", "us", lower, 0},
	{"server.client_decode_us", "us", lower, 0},
	{"server.txn_equiv_us", "us", lower, 0},
	{"server.wire_self_us", "us", lower, 0},
	{"server.wire_share", "share", lower, 0},
	{"server.frames_per_read_burst", "count", higher, 0},
	{"server.reply_bytes_per_flush", "count", higher, 0},
	{"server.ro_routed_share", "share", higher, 0},
	{"server.shed_share", "share", lower, 0},
	{"server.deadline_share", "share", lower, 0},
	{"server.error_share", "share", lower, 0},
	{"server.open_p50_us.r25", "us", lower, 0},
	{"server.open_p50_us.r50", "us", lower, 0},
	{"server.open_p50_us.r75", "us", lower, 0},
	{"server.open_p99_us.r25", "us", lower, 0},
	{"server.open_p99_us.r50", "us", lower, 0},
	{"server.open_p99_us.r75", "us", lower, 0},
	{"server.open_late_p99_us", "us", lower, 0},
	{"server.open_max_rate_ok", "1/s", higher, 0},

	{"stm.txn_us", "us", lower, 0},
	{"stm.body_us", "us", lower, 0},
	{"stm.commit_self_us", "us", lower, 0},
	{"stm.attempts_per_txn", "count", lower, 0},
	{"stm.ref_get_ns", "ns", lower, 0},
	{"stm.ref_set_ns", "ns", lower, 0},
	{"stm.ro_txn_us", "us", lower, 0},
	{"stm.commit_ratio", "share", higher, 0},
	{"stm.abort_conflict_share", "share", lower, 0},
	{"stm.abort_validation_share", "share", lower, 0},
	{"stm.validation_p50_ns", "ns", lower, 0},
	{"stm.lock_hold_p50_ns", "ns", lower, 0},
	{"stm.cross_shard_share", "share", lower, 0},
	{"stm.group_commit_share", "share", higher, 0},
	{"stm.shards_skipped_share", "share", higher, 0},
	{"stm.snapshot_txn_share", "share", higher, 0},
	{"stm.mvcc_history_read_share", "share", lower, 0},
	{"stm.mvcc_versions_live", "count", lower, 0},
	{"stm.empty_txn_ns", "ns", lower, 0},
	{"stm.rmw1_ns", "ns", lower, 0},
	{"stm.rmw_ops_per_s.tl2", "1/s", higher, 0},
	{"stm.rmw_ops_per_s.ccstm", "1/s", higher, 0},
	{"stm.rmw_ops_per_s.norec", "1/s", higher, 0},
	{"stm.rmw_ops_per_s.mvcc", "1/s", higher, 0},

	{"core.op_ns.get", "ns", lower, 0},
	{"core.op_ns.put", "ns", lower, 0},
	{"core.op_ns.remove", "ns", lower, 0},
	{"core.adt_self_ns", "ns", lower, 0},
	{"core.ops_per_s.eager-opt", "1/s", higher, 0},
	{"core.ops_per_s.lazy-snapshot", "1/s", higher, 0},
	{"core.ops_per_s.lazy-memo", "1/s", higher, 0},
	{"core.ops_per_s.lazy-memo-combining", "1/s", higher, 0},
	{"core.ops_per_s.pessimistic-o1", "1/s", higher, 0},
	{"baseline.ops_per_s.predication", "1/s", higher, 0},
	{"baseline.ops_per_s.pure-stm", "1/s", higher, 0},
	{"core.queue_op_ns", "ns", lower, 0},
	{"core.pqueue_op_ns", "ns", lower, 0},
	{"lock.acquire_release_ns", "ns", lower, 0},
	{"baseline.pred_op_ns", "ns", lower, 0},

	{"conc.ctrie_get_ns", "ns", lower, 0},
	{"conc.ctrie_put_ns", "ns", lower, 0},
	{"conc.ctrie_remove_ns", "ns", lower, 0},
	{"conc.ctrie_snapshot_ns", "ns", lower, 0},
	{"conc.ctrie_allocs_per_op", "count", lower, 0},
	{"conc.hashmap_get_ns.small", "ns", lower, 0},
	{"conc.hashmap_put_ns.small", "ns", lower, 0},
	{"conc.hashmap_get_ns.large", "ns", lower, 0},
	{"conc.hashmap_put_ns.large", "ns", lower, 0},
	{"conc.skiplist_get_ns", "ns", lower, 0},
	{"conc.skiplist_put_ns", "ns", lower, 0},

	{"proc.gc_cpu_share", "share", lower, 0},
	{"proc.gc_cycles", "count", lower, 0},
	{"proc.gc_pause_total_ms", "ms", lower, 0},

	{"trace.overhead_ratio", "ratio", higher, 0},
	{"trace.spans", "count", higher, 0},
	{"trace.dropped_spans", "count", lower, 0},
	{"trace.clock_ns", "ns", lower, 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a definition
// list, so a run can neither invent a name nor omit one.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		if v != v || v > 1e300 || v < -1e300 { // NaN/Inf do not encode as JSON
			v = 0
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}
