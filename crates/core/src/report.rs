//! Pipeline metrics: the numbers behind the E2 experiment table.

use mda_stream::control::{ControlGauges, Knobs};
use std::time::Instant;

/// Adaptive-control status as of the last knob commit: the smoothed
/// observables and the knob values they produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlStatus {
    /// Smoothed observable levels (lateness, skew, rates, backlog).
    pub gauges: ControlGauges,
    /// Current knob values (always inside the configured clamp bounds).
    pub knobs: Knobs,
}

/// Cumulative busy time and invocation count of one pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageMetric {
    /// Number of timed sections.
    pub calls: u64,
    /// Total busy time in nanoseconds.
    pub busy_nanos: u128,
}

impl StageMetric {
    /// Mean latency per call in microseconds.
    pub fn mean_micros(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.busy_nanos as f64 / self.calls as f64 / 1_000.0
    }

    /// Calls per second of busy time.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.busy_nanos == 0 {
            return 0.0;
        }
        self.calls as f64 / (self.busy_nanos as f64 / 1e9)
    }

    /// Fold another metric into this one (multi-writer lane
    /// aggregation: per-lane stage timings sum into one report row).
    pub fn absorb(&mut self, other: &StageMetric) {
        self.calls += other.calls;
        self.busy_nanos += other.busy_nanos;
    }
}

/// RAII timer adding its elapsed time to a [`StageMetric`].
pub struct StageTimer<'a> {
    metric: &'a mut StageMetric,
    start: Instant,
}

impl<'a> StageTimer<'a> {
    /// Start timing a section.
    pub fn new(metric: &'a mut StageMetric) -> Self {
        metric.calls += 1;
        // lint:allow(wall-clock): metrics-only stage timing; never
        // feeds event-time logic or any pipeline observable.
        Self { metric, start: Instant::now() }
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        self.metric.busy_nanos += self.start.elapsed().as_nanos();
    }
}

/// Counters and per-stage timings of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// AIS messages pushed.
    pub ais_messages: u64,
    /// Static & voyage messages among them.
    pub static_messages: u64,
    /// Static messages failing validation.
    pub static_flagged: u64,
    /// Messages without a usable position.
    pub invalid_messages: u64,
    /// Radar plots pushed.
    pub radar_plots: u64,
    /// VMS reports pushed.
    pub vms_reports: u64,
    /// Observations dropped behind the watermark.
    pub dropped_late: u64,
    /// Events emitted by the engine.
    pub events_emitted: u64,
    /// Events by detector label, sorted by label.
    pub detector_counts: Vec<(&'static str, u64)>,
    /// Vessels evicted from live detector state by the TTL sweeps.
    pub evicted_vessels: u64,
    /// Vessels currently resident in the engine's live index (gauge).
    pub live_vessels: u64,
    /// Seal sweeps run (watermark-driven hot→cold rotations).
    pub seal_sweeps: u64,
    /// Fixes currently in the archive's hot tier.
    pub hot_fixes: u64,
    /// Fixes currently in sealed cold segments.
    pub cold_fixes: u64,
    /// Approximate bytes held by the hot tier.
    pub hot_bytes: u64,
    /// Approximate bytes held by the cold tier (encoded segments).
    pub cold_bytes: u64,
    /// Sealed segments in the cold tier.
    pub cold_segments: u64,
    /// Real on-disk bytes backing the store (0 when not durable).
    pub disk_bytes: u64,
    /// Ingest/validation stage.
    pub ingest: StageMetric,
    /// Reordering stage.
    pub reorder: StageMetric,
    /// Fusion stage.
    pub fusion: StageMetric,
    /// Event-recognition stage.
    pub events: StageMetric,
    /// Synopsis stage.
    pub synopses: StageMetric,
    /// Model/raster update stage.
    pub analytics: StageMetric,
    /// Storage + enrichment stage.
    pub storage: StageMetric,
    /// Adaptive-controller status (`None` when the pipeline runs with
    /// static knobs). Refreshed at every knob commit.
    pub control: Option<ControlStatus>,
}

impl PipelineReport {
    /// Rows for the E2 table: `(stage, calls, mean µs, calls/s)`.
    pub fn stage_rows(&self) -> Vec<(&'static str, u64, f64, f64)> {
        [
            ("ingest", &self.ingest),
            ("reorder", &self.reorder),
            ("fusion", &self.fusion),
            ("events", &self.events),
            ("synopses", &self.synopses),
            ("analytics", &self.analytics),
            ("storage+graph", &self.storage),
        ]
        .into_iter()
        .map(|(name, m)| (name, m.calls, m.mean_micros(), m.throughput_per_sec()))
        .collect()
    }

    /// Count one emitted event under its detector label, keeping the
    /// table sorted by label.
    pub fn count_detector(&mut self, label: &'static str) {
        match self.detector_counts.binary_search_by_key(&label, |(l, _)| *l) {
            Ok(i) => self.detector_counts[i].1 += 1,
            Err(i) => self.detector_counts.insert(i, (label, 1)),
        }
    }

    /// Rows for the per-detector table: `(label, events)`, sorted by
    /// label.
    pub fn detector_rows(&self) -> &[(&'static str, u64)] {
        &self.detector_counts
    }

    /// Fraction of static messages flagged by validation.
    pub fn static_error_rate(&self) -> f64 {
        if self.static_messages == 0 {
            return 0.0;
        }
        self.static_flagged as f64 / self.static_messages as f64
    }

    /// Refresh the per-tier counters from the archive's accounting.
    pub fn record_tiers(&mut self, stats: &mda_store::TierStats) {
        self.hot_fixes = stats.hot_fixes as u64;
        self.cold_fixes = stats.cold_fixes as u64;
        self.hot_bytes = stats.hot_bytes as u64;
        self.cold_bytes = stats.cold_bytes as u64;
        self.cold_segments = stats.cold_segments as u64;
        self.disk_bytes = stats.disk_bytes as u64;
    }

    /// Record the adaptive controller's smoothed observables and knob
    /// values after a commit.
    pub fn record_control(&mut self, gauges: ControlGauges, knobs: Knobs) {
        self.control = Some(ControlStatus { gauges, knobs });
    }

    /// Rows for the adaptive-control table: `(signal, value)`. Empty
    /// when the pipeline runs static knobs.
    pub fn control_rows(&self) -> Vec<(&'static str, f64)> {
        let Some(c) = &self.control else { return Vec::new() };
        vec![
            ("lateness_fast_ms", c.gauges.lateness_fast_ms),
            ("lateness_slow_ms", c.gauges.lateness_slow_ms),
            ("skew_fast", c.gauges.skew_fast),
            ("skew_slow", c.gauges.skew_slow),
            ("rate_fast", c.gauges.rate_fast),
            ("rate_slow", c.gauges.rate_slow),
            ("events_fast", c.gauges.events_fast),
            ("events_slow", c.gauges.events_slow),
            ("hot_backlog", c.gauges.hot_backlog as f64),
            ("commits", c.gauges.commits as f64),
            ("knob_delay_ms", c.knobs.delay as f64),
            ("knob_seal_every_ms", c.knobs.seal_every as f64),
            ("knob_ring_capacity", c.knobs.ring_capacity as f64),
        ]
    }

    /// Rows for the tier table: `(tier, fixes, approx bytes, bytes/fix)`.
    /// The bytes-per-fix derivation lives in [`mda_store::TierStats`],
    /// so the report and the store can never disagree on it.
    pub fn tier_rows(&self) -> Vec<(&'static str, u64, u64, f64)> {
        let stats = mda_store::TierStats {
            hot_fixes: self.hot_fixes as usize,
            cold_fixes: self.cold_fixes as usize,
            hot_bytes: self.hot_bytes as usize,
            cold_bytes: self.cold_bytes as usize,
            cold_segments: self.cold_segments as usize,
            disk_bytes: self.disk_bytes as usize,
        };
        vec![
            ("hot", self.hot_fixes, self.hot_bytes, stats.hot_bytes_per_fix()),
            ("cold", self.cold_fixes, self.cold_bytes, stats.cold_bytes_per_fix()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_accumulates() {
        let mut m = StageMetric::default();
        for _ in 0..10 {
            let _t = StageTimer::new(&mut m);
            std::hint::black_box(1 + 1);
        }
        assert_eq!(m.calls, 10);
        assert!(m.busy_nanos > 0);
        assert!(m.mean_micros() >= 0.0);
        assert!(m.throughput_per_sec() > 0.0);
    }

    #[test]
    fn report_rows_cover_all_stages() {
        let r = PipelineReport::default();
        let rows = r.stage_rows();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].0, "ingest");
        assert_eq!(r.static_error_rate(), 0.0);
    }

    #[test]
    fn detector_rows_sorted_by_label() {
        let mut r = PipelineReport::default();
        for label in ["spoofing", "gap-start", "spoofing", "gap-start", "gap-start"] {
            r.count_detector(label);
        }
        assert_eq!(r.detector_rows(), &[("gap-start", 3), ("spoofing", 2)]);
    }

    #[test]
    fn static_error_rate_computed() {
        let r = PipelineReport { static_messages: 200, static_flagged: 10, ..Default::default() };
        assert!((r.static_error_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn control_rows_surface_gauges_and_knobs() {
        let mut r = PipelineReport::default();
        assert!(r.control_rows().is_empty(), "static pipelines report no control rows");
        let gauges = ControlGauges { hot_backlog: 42, commits: 7, ..Default::default() };
        let knobs = Knobs { delay: 1_200_000, seal_every: 1_800_000, ring_capacity: 4096 };
        r.record_control(gauges, knobs);
        let rows = r.control_rows();
        assert_eq!(rows.len(), 13);
        let get = |name| rows.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("hot_backlog"), 42.0);
        assert_eq!(get("commits"), 7.0);
        assert_eq!(get("knob_delay_ms"), 1_200_000.0);
        assert_eq!(get("knob_ring_capacity"), 4096.0);
    }

    #[test]
    fn tier_rows_reflect_recorded_stats() {
        let mut r = PipelineReport::default();
        r.record_tiers(&mda_store::TierStats {
            hot_fixes: 100,
            cold_fixes: 400,
            hot_bytes: 4_800,
            cold_bytes: 800,
            cold_segments: 3,
            disk_bytes: 0,
        });
        let rows = r.tier_rows();
        assert_eq!(rows[0], ("hot", 100, 4_800, 48.0));
        assert_eq!(rows[1], ("cold", 400, 800, 2.0));
        assert_eq!(r.cold_segments, 3);
        // Empty tiers divide safely.
        assert_eq!(PipelineReport::default().tier_rows()[1].3, 0.0);
    }
}
