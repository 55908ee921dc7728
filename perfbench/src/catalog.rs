//! Every metric the benchmark reports, with its unit and direction, in
//! the order `BENCHMARK.json` lists them; a test keeps the two in step.
//! What each metric measures, and which end-to-end metric and workload a
//! per-layer metric should move, is recorded in `workloads.json`.

/// One reported metric.
#[derive(Debug)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 9] = [
    m("stmt_p50_ms", "ms", "lower"),
    m("stmts_per_s", "1/s", "higher"),
    m("write_p50_ms", "ms", "lower"),
    m("fresh_read_p50_ms", "ms", "lower"),
    m("checkpoint_p50_ms", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("write_amp", "ratio", "lower"),
    m("scrape_p50_ms", "ms", "lower"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 30] = [
    m("parser.parse_us", "us", "lower"),
    m("algebra.compile_us", "us", "lower"),
    m("algebra.select_self_us", "us", "lower"),
    m("algebra.compose_us", "us", "lower"),
    m("algebra.compose_graphs", "count", "lower"),
    m("engine.snapshot_us", "us", "lower"),
    m("engine.index_cache_hit_ratio", "ratio", "higher"),
    m("engine.metrics_render_us", "us", "lower"),
    m("engine.unattributed_us", "us", "lower"),
    m("match.index_build_ms", "ms", "lower"),
    m("match.retrieve_us", "us", "lower"),
    m("match.refine_us", "us", "lower"),
    m("match.order_us", "us", "lower"),
    m("match.search_us", "us", "lower"),
    m("match.retrieve_candidates", "count", "lower"),
    m("match.retrieve_kept_ratio", "ratio", "lower"),
    m("match.refine_bipartite_checks", "count", "lower"),
    m("match.refine_removed_ratio", "ratio", "higher"),
    m("match.search_steps", "count", "lower"),
    m("match.search_backtracks", "count", "lower"),
    m("match.plan_cache_hit_ratio", "ratio", "higher"),
    m("storage.wal_append_us", "us", "lower"),
    m("storage.wal_fsync_us", "us", "lower"),
    m("storage.wal_bytes_per_write", "bytes", "lower"),
    m("storage.checkpoint_ms", "ms", "lower"),
    m("storage.checkpoint_bytes", "bytes", "lower"),
    m("storage.open_ms", "ms", "lower"),
    m("storage.wal_replay_frames", "count", "lower"),
    m("bench.traced_stmt_us", "us", "lower"),
    m("bench.trace_overhead_pct", "%", "lower"),
];

/// Looks up a metric's definition by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
