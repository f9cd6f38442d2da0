package main

// metricDef names one metric. The names are fixed: later changes are
// judged by them, and BENCHMARK.json repeats them (a test holds the two
// lists equal).
type metricDef struct {
	name  string
	unit  string
	lower bool // lower is better
	// best marks a metric a run reports from its best repetition; the
	// others are medians over the repetitions.
	best bool
	// pooledP99 marks a 99th percentile a run takes over the samples of
	// all its repetitions together. One repetition's p99 rests on thirty
	// samples (on one, for inproc-batch's hundred rounds): the least of
	// several such is an extreme and their median follows which round a
	// collection landed in, while the pooled sample leaves hundreds of
	// round trips (about ten rounds) beyond the quantile.
	pooledP99 bool
	// exact marks a count that repeats between two runs of one commit at
	// one seed, to within exactTolerance; --compare names any that does not.
	exact bool
}

var endToEndMetrics = []metricDef{
	{name: "ops_per_s", unit: "1/s", best: true},
	{name: "rtt_p99_us", unit: "us", lower: true, pooledP99: true},
	{name: "cpu_us_per_op", unit: "us", lower: true, best: true},
	{name: "heap_bytes_per_op", unit: "B", lower: true, best: true},
	{name: "setup_s", unit: "s", lower: true, best: true},
}

var perLayerMetrics = []metricDef{
	// The median round trip of the traced run's untraced repetitions. It
	// is the client's number, but it has no bound: the shared box's slow
	// state moves it by 40-55 %, more than the largest bound allowed, so
	// it could gate nothing. The budget below accounts for it.
	{name: "rtt_p50_us", unit: "us", lower: true, best: true},
	// From the untraced repetitions of the traced run: the store's own
	// counters and the Go runtime's.
	{name: "store.sim_ms_per_op", unit: "ms", lower: true, exact: true},
	{name: "store.ops_per_slot", unit: "count", exact: true},
	{name: "store.polls_per_op", unit: "count", lower: true, exact: true},
	{name: "store.retries_per_kop", unit: "count", lower: true, exact: true},
	{name: "store.dups_per_kop", unit: "count", lower: true, exact: true},
	{name: "store.invalid_per_kop", unit: "count", lower: true, exact: true},
	{name: "store.marks", unit: "count", lower: true, exact: true},
	{name: "store.sim_rtt_p50_us", unit: "us", lower: true},
	{name: "store.sim_rtt_p99_us", unit: "us", lower: true},
	{name: "core.verdict_fail_shards", unit: "count", lower: true, exact: true},
	{name: "client.cas_ok_share", unit: "share"},
	{name: "go.mallocs_per_op", unit: "count", lower: true, exact: true},
	{name: "go.alloc_bytes_per_op", unit: "B", lower: true, exact: true},
	{name: "go.gc_cycles", unit: "count", lower: true},
	{name: "go.gc_pause_ms", unit: "ms", lower: true},
	{name: "go.gc_cpu_us_per_op", unit: "us", lower: true},
	{name: "go.heap_inuse_mb_end", unit: "MB", lower: true},
	// From the replay: the serve loop's calls, one goroutine, no sockets.
	{name: "store.submit_ns", unit: "ns", lower: true},
	{name: "store.drive_p50_us", unit: "us", lower: true},
	{name: "store.drive_p99_us", unit: "us", lower: true},
	{name: "store.result_ns", unit: "ns", lower: true},
	{name: "bench.op_self_ns", unit: "ns", lower: true},
	{name: "bench.op_mean_us", unit: "us", lower: true},
	// From the floor probes: each layer alone, the one below stubbed.
	{name: "wire.frame_ns", unit: "ns", lower: true},
	{name: "wire.frame_allocs", unit: "count", lower: true, exact: true},
	{name: "net.echo_rtt_p50_us", unit: "us", lower: true},
	{name: "async.event_ns", unit: "ns", lower: true},
	{name: "async.events_per_sim_ms", unit: "count", lower: true, exact: true},
	{name: "async.mallocs_per_event", unit: "count", lower: true, exact: true},
	{name: "smr.cmd_us_b1", unit: "us", lower: true},
	{name: "smr.cmd_us_b64", unit: "us", lower: true},
	{name: "smr.msgs_per_cmd_b1", unit: "count", lower: true, exact: true},
	{name: "smr.msgs_per_cmd_b64", unit: "count", lower: true, exact: true},
	{name: "smr.mallocs_per_cmd_b1", unit: "count", lower: true, exact: true},
	{name: "smr.mallocs_per_cmd_b64", unit: "count", lower: true, exact: true},
	{name: "core.poll_ns", unit: "ns", lower: true},
	{name: "core.poll_allocs", unit: "count", lower: true, exact: true},
	{name: "core.poll_ns_growth", unit: "ratio", lower: true},
	// From the program-traced repetition: the store's own sim-time spans.
	{name: "store.queue_sim_p50_us", unit: "us", lower: true},
	{name: "store.slot_sim_p50_us", unit: "us", lower: true},
	{name: "store.apply_sim_p50_us", unit: "us", lower: true},
	{name: "obs.trace_overhead_share", unit: "share", lower: true},
	// Derived: what the budget leaves unexplained.
	{name: "server.overhead_us", unit: "us", lower: true},
	{name: "server.overhead_mean_us", unit: "us", lower: true},
}
