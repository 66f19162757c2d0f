package main

// The metric catalogue. BENCHMARK.json lists the same names; the smoke
// test holds the two in step.

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, in report order.
// Each is defined, and never zero, on every workload. Match lag runs
// from the completing edge's due time — the start of the call that
// submitted it in a closed loop, its schedule slot in the open loop —
// to the match reaching the benchmark, once per match event (a query
// matching on an edge; see matchEvent). Lag is gated at p95 alone: over
// ten seeds the p99 of lsbench-engine and the p50 of netflow-router
// (which falls between the fast slot's and the backlogged slot's
// matches) spread wider than any bound allows.
var endToEnd = []metricDef{
	{"edges_per_s", "edges/s"},
	{"match_lag_p95_ms", "ms"},
	{"setup_s", "s"},
	{"state_mib", "MiB"},
}

// perLayer are the metrics a traced run reports, in report order. A
// metric of a layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// End-to-end figures that cannot be gated on every workload: the
	// whole run's p50 and p99 lag (see endToEnd), lag
	// per phase (the paced workload's lo and hi phases; a closed loop's
	// first and second half of the stream), how late the open-loop
	// generator ran, the re-Open of the durable data directory, and
	// failed_frac, zero by design.
	{"match_lag_p50_ms", "ms"},
	{"match_lag_p99_ms", "ms"},
	{"match_lag_p50_ms.lo", "ms"},
	{"match_lag_p99_ms.lo", "ms"},
	{"match_lag_p50_ms.hi", "ms"},
	{"match_lag_p99_ms.hi", "ms"},
	{"gen_late_p99_ms.hi", "ms"},
	{"recover_s", "s"},
	{"failed_frac", "ratio"},
	// engine: internal/core over graph, iso, sjtree, decompose, selectivity.
	{"core.batch_busy_s", "s"},
	{"core.batch_call_p99_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"core.serial_edges_per_s", "edges/s"},
	{"iso.leaf_searches", "count"},
	{"iso.leaf_matches", "count"},
	{"iso.useful_ratio", "ratio"},
	{"iso.steps", "count"},
	{"iso.retro_searches", "count"},
	{"sjtree.inserted", "count"},
	{"sjtree.joins_attempted", "count"},
	{"sjtree.join_hit_ratio", "ratio"},
	{"sjtree.deduped", "count"},
	{"sjtree.peak_stored", "count"},
	{"sjtree.evicted", "count"},
	{"sjtree.shed", "count"},
	{"graph.evicted", "count"},
	// shard: internal/shard data path (gate, queue, slot, collect) and
	// control path (register/backfill, migrate, checkpoint rounds).
	{"shard.ingest_busy_s", "s"},
	{"shard.ingest_call_p99_ms", "ms"},
	{"shard.drain_tail_ms", "ms"},
	{"shard.slot_busy_s", "s"},
	{"shard.slot_busy_skew", "ratio"},
	{"shard.gate_pass_ratio", "ratio"},
	{"shard.replication_x", "ratio"},
	{"shard.queue_wait_p50_ms", "ms"},
	{"shard.queue_wait_p99_ms", "ms"},
	{"shard.checkpoint_round_p50_ms", "ms"},
	{"shard.checkpoint_round_p99_ms", "ms"},
	{"shard.checkpoint_rounds", "count"},
	{"shard.migrate_call_p50_ms", "ms"},
	{"shard.migrate_call_max_ms", "ms"},
	{"shard.migration_backfill_edges", "count"},
	{"shard.migrations_failed", "count"},
	{"shard.register_ms", "ms"},
	{"shard.open_ms", "ms"},
	// dshard: internal/dshard, the wire and the remote slot host.
	{"dshard.ack_rtt_p50_ms", "ms"},
	{"dshard.ack_rtt_p99_ms", "ms"},
	{"dshard.sent_mib", "MiB"},
	{"dshard.raw_mib", "MiB"},
	{"dshard.sent_raw_ratio", "ratio"},
	{"dshard.edges_per_frame", "ratio"},
	{"dshard.conn_read_busy_s", "s"},
	{"dshard.conn_write_busy_s", "s"},
	{"dshard.reconnects", "count"},
	{"dshard.replayed_edges", "count"},
	// durable: internal/edlog and internal/persist, driven by shard.Open.
	{"edlog.fsync_p50_ms", "ms"},
	{"edlog.fsync_p99_ms", "ms"},
	{"edlog.disk_mib", "MiB"},
	{"edlog.segments", "count"},
	// The trace: self time per layer, the producer's uncovered share,
	// and the traced run's cost over the untraced run's.
	{"trace.self_s.bench", "s"},
	{"trace.self_s.engine", "s"},
	{"trace.self_s.shard", "s"},
	{"trace.self_s.dshard", "s"},
	{"trace.self_s.durable", "s"},
	{"trace.uncovered_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// unitOf returns a metric's unit ("" for an unknown name).
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
