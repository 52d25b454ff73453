//! The names this benchmark owns: workloads, metrics with unit,
//! direction and bound, and the `BENCHMARK.json` rendered from them.
//!
//! `BENCHMARK.json` at the repository root is this module's
//! [`benchmark_json`] output, committed; the self-test holds the two
//! equal, so a metric cannot be emitted without being declared or
//! declared without being emitted.

use crate::json::quote;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`, and
/// the default `--seconds` at `full` size).
pub const RUN_SECONDS: u64 = 24;

/// The benchmark's directory, the only entry of `paths`.
pub const PATH: &str = "crates/bench/src/bin/e2e";

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The four workloads: `(name, why)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "feed-replay",
        "AIS+radar+VMS bytes replayed closed-loop through the in-memory single-writer pipeline: ingest compute (ais, track, events, synopses, forecast) does all the work, serve and durable store none",
    ),
    (
        "feed-durable",
        "a disordered satellite-wave feed through 2 writer lanes with WAL, seals and adaptive knobs, then crash and reopen: the durable multi-writer use of core, store and stream that feed-replay bypasses",
    ),
    (
        "serve-live",
        "ingest paced open-loop beside a closed-loop query mix with a 16-vessel watchlist and 32 pushed subscriptions: reads beside writes, so the answer cache, session pump and ring are used",
    ),
    (
        "serve-archive",
        "all-distinct old-range requests, more than the cache holds, against a finished archive with no writer: cache and writer contention are bypassed, so read path, cold decode and codec do the work",
    ),
];

/// Request kinds, in wire-tag order; per-kind metrics are suffixed
/// with these.
pub const KINDS: [&str; 9] = [
    "watermark",
    "latest",
    "position_at",
    "trajectory",
    "window",
    "knn",
    "fleet",
    "where_at",
    "eta",
];

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef { name: name.to_owned(), unit, better, bound }
}

/// The end-to-end metrics: what a user of the system sees. Every
/// workload reports every one of them, none is ever 0.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("ingest_fixes_per_s", "1/s", Higher, Some(0.10)),
        def("query_rtt_p50_us", "us", Lower, Some(0.10)),
        def("query_rtt_p99_us", "us", Lower, Some(0.25)),
        def("setup_s", "s", Lower, Some(0.25)),
    ]
}

/// The per-layer metrics, emitted by the traced run. A metric a
/// workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut m = vec![
        def("ais.sentences", "count", Higher, None),
        def("ais.decode_busy_s", "s", Lower, None),
        def("ais.decode_ns_per_sentence", "ns", Lower, None),
        def("ais.decode_failed", "count", Lower, None),
        def("ais.multi_fragment_share", "share", Lower, None),
        def("core.push_busy_s", "s", Lower, None),
        def("core.push_p99_us", "us", Lower, None),
        def("core.push_max_ms", "ms", Lower, None),
        def("core.finish_ms", "ms", Lower, None),
        def("core.ingest_stage_busy_s", "s", Lower, None),
        def("core.unattributed_s", "s", Lower, None),
        def("core.unattributed_share", "share", Lower, None),
        def("stream.reorder_busy_s", "s", Lower, None),
        def("stream.reorder_calls", "count", Lower, None),
        def("stream.dropped_late", "count", Lower, None),
        def("stream.late_drop_share", "share", Lower, None),
        def("stream.staleness_p99_min", "min", Lower, None),
        def("stream.knob_commits", "count", Higher, None),
        def("stream.delay_final_min", "min", Lower, None),
        def("track.fusion_busy_s", "s", Lower, None),
        def("track.fusion_calls", "count", Lower, None),
        def("track.tracks_confirmed", "count", Higher, None),
        def("events.detect_busy_s", "s", Lower, None),
        def("events.detect_calls", "count", Lower, None),
        def("events.emitted", "count", Higher, None),
        def("events.ring_appended", "count", Higher, None),
        def("events.ring_dropped", "count", Lower, None),
        def("synopses.busy_s", "s", Lower, None),
        def("synopses.compression_ratio", "share", Higher, None),
        def("forecast.analytics_busy_s", "s", Lower, None),
        def("store.storage_busy_s", "s", Lower, None),
        def("store.seal_sweeps", "count", Lower, None),
        def("store.hot_fixes", "count", Lower, None),
        def("store.cold_fixes", "count", Higher, None),
        def("store.cold_segments", "count", Lower, None),
        def("store.cold_bytes_per_fix", "B", Lower, None),
        def("store.disk_bytes", "B", Lower, None),
        def("store.disk_bytes_per_fix", "B", Lower, None),
        def("store.recover_open_ms", "ms", Lower, None),
        def("store.recover_ms", "ms", Lower, None),
        def("store.snapshot_us", "us", Lower, None),
        def("serve.encode_request_ns", "ns", Lower, None),
        def("serve.decode_response_ns_per_kb", "ns", Lower, None),
        def("serve.frame_ns_per_kb", "ns", Lower, None),
        def("serve.handle_miss_p50_us", "us", Lower, None),
        def("serve.handle_hit_p50_us", "us", Lower, None),
        def("serve.transport_p50_us", "us", Lower, None),
        def("serve.cache_hit_share", "share", Higher, None),
        def("serve.cache_evictions", "count", Lower, None),
        def("serve.queries_per_s", "1/s", Higher, None),
        def("serve.wire_bytes_per_query", "B", Lower, None),
        def("serve.response_bytes_p50", "B", Lower, None),
        def("serve.response_bytes_p99", "B", Lower, None),
        def("serve.pushes", "count", Higher, None),
        def("serve.events_per_push", "count", Higher, None),
        def("serve.push_latency_p50_ms", "ms", Lower, None),
        def("serve.push_latency_p99_ms", "ms", Lower, None),
        def("serve.session_dropped", "count", Lower, None),
        def("serve.session_filtered", "count", Lower, None),
        def("serve.session_missed", "count", Lower, None),
        def("serve.sessions_evicted", "count", Lower, None),
        def("gen.sched_lag_p99_ms", "ms", Lower, None),
        def("gen.sched_lag_max_ms", "ms", Lower, None),
        def("gen.trace_overhead_share", "share", Lower, None),
        def("gen.failed_share", "share", Lower, None),
        def("gen.peak_rss_mb", "MB", Lower, None),
    ];
    for kind in KINDS {
        m.push(def(&format!("core.query_us.{kind}"), "us", Lower, None));
        m.push(def(&format!("serve.rtt_p50_us.{kind}"), "us", Lower, None));
        m.push(def(&format!("serve.rtt_p99_us.{kind}"), "us", Lower, None));
    }
    m
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    // The one build of these sources: `mda-bench`'s auto-discovered
    // binary, with the workspace's lock file, lints and release profile.
    let command =
        ["cargo", "run", "--release", "--quiet", "-p", "mda-bench", "--bin", "e2e", "--", "run"];
    let quoted: Vec<String> = command.iter().map(|c| quote(c)).collect();
    let _ = writeln!(out, "  \"command\": [{}],", quoted.join(", "));
    let _ = writeln!(out, "  \"paths\": [{}],", quote(PATH));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": {}, \"why\": {}}}{comma}", quote(name), quote(why));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, m) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            quote(&m.name),
            quote(m.unit),
            quote(m.better.word()),
            m.bound.unwrap_or(0.0)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            quote(&m.name),
            quote(m.unit),
            quote(m.better.word())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Order statistics.

/// Median of a sample — of an even-sized one the mean of the middle
/// pair, as Python's `statistics.median` (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` (0 for an empty sample).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// First and third quartile, exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance rule is stated in. Needs two values; a single value is
/// its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks; the rank is clamped
        // into the sample but the offset is not, so short samples
        // extrapolate exactly as Python does.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        sorted[lo - 1] + (pos - lo as f64) * (sorted[lo] - sorted[lo - 1])
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([3, 1], n=4) == [0.5, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> =
            end_to_end().into_iter().chain(per_layer()).map(|m| m.name).collect();
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(ok(&m.name, "_.-", 64), "bad name {}", m.name);
            assert!(ok(m.unit, "_/%.-", 16), "bad unit {}", m.unit);
        }
        assert!(end_to_end().iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        for (name, why) in WORKLOADS {
            assert!(ok(name, "_.-", 64) && why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is declared twice");
    }
}
