//! [`MaritimePipeline`]: the single-lane pipeline with the operator
//! console attached.
//!
//! The pipeline loop lives in [`crate::multi`]. `MaritimePipeline` is
//! that loop fixed at one writer lane and one epoch per arrival — the
//! lone lane runs inline on the caller's thread, so a push costs no
//! thread hand-off and returns its finalised events immediately — plus
//! a console of operator extras that ride along the lane.

use crate::config::PipelineConfig;
use crate::multi::{MultiWriterPipeline, WriterLane};
use crate::report::PipelineReport;
use mda_events::engine::EngineLane;
use mda_forecast::normalcy::NormalcyModel;
use mda_forecast::routenet::RouteNetPredictor;
use mda_geo::{Fix, Position, Timestamp, VesselId};
use mda_semantics::enrich::Enricher;
use mda_semantics::store::TripleStore;
use mda_semantics::term::{Interner, TermId};
use mda_sim::weather::WeatherField;
use mda_store::knn::KnnEngine;
use mda_track::fusion::Fuser;
use mda_viz::raster::DensityRaster;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

/// The operator console's extras: pictures and models that no serving
/// answer depends on, fed by the lane with every canonical fix batch
/// and the fixes its synopsis kept.
pub(crate) struct Console {
    raster: DensityRaster,
    knn: KnnEngine,
    normalcy: NormalcyModel,
    interner: Interner,
    graph: TripleStore,
    enricher: Enricher,
    vessel_terms: HashMap<VesselId, TermId>,
    weather: Option<WeatherField>,
}

impl Console {
    fn new(config: &PipelineConfig) -> Self {
        let mut interner = Interner::new();
        let zones = config.events.zones.iter().map(|z| (z.name.clone(), z.area.clone())).collect();
        let enricher = Enricher::new(&mut interner, zones);
        let (rows, cols) = config.raster_shape;
        // The kNN horizon covers the watermark lag plus a coasting
        // margin, so snapshot queries anywhere in the freshness band
        // still see the fleet. Under adaptive control the lag can grow
        // to the delay clamp ceiling, so the horizon covers that.
        let max_lag = config.adaptive.map_or(config.watermark_delay, |c| c.delay_bounds.1);
        Self {
            raster: DensityRaster::new(config.bounds, rows, cols),
            knn: KnnEngine::new(0.05, max_lag + 15 * mda_geo::time::MINUTE),
            normalcy: NormalcyModel::new(config.bounds, config.model_cell_deg),
            interner,
            graph: TripleStore::new(),
            enricher,
            vessel_terms: HashMap::new(),
            weather: None,
        }
    }

    /// Learn one canonical fix batch (raster, live kNN, normalcy).
    pub(crate) fn learn(&mut self, fixes: &[Fix]) {
        for fix in fixes {
            self.raster.add(fix.pos);
            self.knn.update(*fix);
            self.normalcy.learn(fix);
        }
    }

    /// Enrich the fixes the synopsis kept into the knowledge graph.
    pub(crate) fn enrich(&mut self, kept: &[Fix]) {
        for fix in kept {
            let wind = self.weather.as_ref().map_or(5.0, |w| w.sample(fix.pos, fix.t).wind_mps);
            let interner = &mut self.interner;
            let term = *self
                .vessel_terms
                .entry(fix.id)
                .or_insert_with(|| interner.intern(&format!(":vessel/{}", fix.id)));
            self.enricher.enrich(&mut self.graph, term, fix, wind);
        }
    }

    /// Drop the term-cache entries of TTL-evicted vessels.
    /// (Re-interning a returning vessel yields the same term id.)
    pub(crate) fn evict(&mut self, gone: &[VesselId]) {
        for id in gone {
            self.vessel_terms.remove(id);
        }
    }
}

/// The integrated maritime pipeline (Figure 2) as one `&mut` loop: a
/// [`MultiWriterPipeline`] at one writer lane, one epoch per arrival,
/// with the operator console attached.
///
/// Everything the loop offers — `push_ais` / `push_fix` / `push_radar`
/// / `push_vms`, `finish`, `run_scenario`, `query_service`, `store`,
/// `durable`, `backfill_archive`, … — is reached through `Deref`; this
/// type adds the console's pictures and the lone lane's state.
///
/// ```
/// use mda_core::{MaritimePipeline, PipelineConfig};
/// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
///
/// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
/// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
/// let service = pipeline.query_service();
/// let reader = std::thread::spawn({
///     let service = service.clone();
///     move || service.fleet().watermark
/// });
/// reader.join().unwrap();
/// for i in 0..60i64 {
///     let pos = Position::new(43.0, 5.0 + 0.002 * i as f64);
///     pipeline.push_fix(Fix::new(1, Timestamp::from_mins(i), pos, 10.0, 90.0));
/// }
/// pipeline.finish();
/// assert_eq!(pipeline.store().vessel_count(), 1);
/// assert!(service.latest(1).value.is_some());
/// ```
pub struct MaritimePipeline {
    core: MultiWriterPipeline,
}

impl Deref for MaritimePipeline {
    type Target = MultiWriterPipeline;

    fn deref(&self) -> &MultiWriterPipeline {
        &self.core
    }
}

impl DerefMut for MaritimePipeline {
    fn deref_mut(&mut self) -> &mut MultiWriterPipeline {
        &mut self.core
    }
}

impl MaritimePipeline {
    /// Build a pipeline from configuration. Zones for the event engine
    /// and the enricher come from `config.events.zones`. Durability and
    /// panics are those of [`MultiWriterPipeline::new`].
    pub fn new(config: PipelineConfig) -> Self {
        let console = Box::new(Console::new(&config));
        let mut core = MultiWriterPipeline::new(config, 1).with_ingest_batch(1);
        core.lanes[0].console = Some(console);
        Self { core }
    }

    /// Attach a weather field for enrichment.
    pub fn with_weather(mut self, field: WeatherField) -> Self {
        let console = self.core.lanes[0].console.as_deref_mut();
        console.expect("installed at construction").weather = Some(field);
        self
    }

    fn lane(&self) -> &WriterLane {
        &self.core.lanes[0]
    }

    fn console(&self) -> &Console {
        self.lane().console.as_deref().expect("installed at construction")
    }

    /// Per-stage metrics, as of the last push (tier counters as of the
    /// last seal sweep or `finish`).
    pub fn report(&self) -> &PipelineReport {
        &self.core.report
    }

    /// The fused track picture.
    pub fn fuser(&self) -> &Fuser {
        &self.lane().fuser
    }

    /// The event engine's lane (resident-state counters, live count) —
    /// here the one lane owning every detector shard.
    pub fn engine(&self) -> &EngineLane {
        &self.lane().engine
    }

    /// Snapshot kNN over the live fleet.
    pub fn knn(&self, query: Position, t: Timestamp, k: usize) -> Vec<mda_store::knn::KnnResult> {
        self.console().knn.knn(query, t, k)
    }

    /// The live knowledge graph and its interner.
    pub fn graph(&self) -> (&TripleStore, &Interner) {
        (&self.console().graph, &self.console().interner)
    }

    /// A predictor over the route network learned so far.
    pub fn route_predictor(&self) -> RouteNetPredictor {
        RouteNetPredictor::new(self.lane().route_part.clone())
    }

    /// The learned normalcy model.
    pub fn normalcy(&self) -> &NormalcyModel {
        &self.console().normalcy
    }

    /// The traffic-density raster accumulated so far.
    pub fn raster(&self) -> &DensityRaster {
        &self.console().raster
    }

    /// Overall synopsis compression ratio across vessels.
    pub fn compression_ratio(&self) -> f64 {
        // lint:allow(deterministic-iteration): commutative sum over
        // per-vessel counters; the fold result is order-free.
        let (seen, kept) = self.lane().compressors.values().fold((0u64, 0u64), |(s, k), c| {
            let (cs, ck) = c.counts();
            (s + cs, k + ck)
        });
        if seen == 0 {
            0.0
        } else {
            1.0 - kept as f64 / seen as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_events::zone::NamedZone;
    use mda_geo::time::HOUR;
    use mda_geo::BoundingBox;
    use mda_sim::scenario::{Scenario, ScenarioConfig, SimOutput};

    fn pipeline_for(sim: &SimOutput) -> MaritimePipeline {
        let mut config = PipelineConfig::regional(sim.world.bounds);
        config.events.zones = sim
            .world
            .zones
            .iter()
            .map(|z| NamedZone {
                name: z.name.clone(),
                area: z.area.clone(),
                protected: z.kind == mda_sim::world::ZoneKind::ProtectedArea,
            })
            .collect();
        MaritimePipeline::new(config).with_weather(sim.weather.clone())
    }

    #[test]
    fn end_to_end_regional_scenario() {
        let sim = Scenario::generate(ScenarioConfig::regional(42, 25, 3 * HOUR));
        let mut p = pipeline_for(&sim);
        let events = p.run_scenario(&sim);

        // The pipeline ingested everything.
        let r = p.report();
        assert_eq!(r.ais_messages as usize, sim.ais.len());
        assert_eq!(r.radar_plots as usize, sim.radar.len());
        assert_eq!(r.vms_reports as usize, sim.vms.len());

        // Static quality issues were found at roughly the injected rate.
        assert!(r.static_messages > 0);
        assert!(r.static_flagged > 0, "5% static errors must be flagged");

        // Synopses compress heavily but the archive is non-empty.
        assert!(p.compression_ratio() > 0.5, "ratio {}", p.compression_ratio());
        assert!(!p.store().is_empty());

        // Tracks exist for (most of) the fleet.
        let (live, confirmed, _) = p.fuser().stats();
        assert!(live >= 20, "live tracks {live}");
        assert!(confirmed >= 15, "confirmed {confirmed}");

        // Dark vessels produced gap events.
        assert!(!events.is_empty());
        assert!(
            events.iter().any(|e| matches!(e.kind, mda_events::event::EventKind::GapStart)),
            "dark vessels must trigger gaps"
        );

        // The knowledge graph got populated.
        let (graph, _) = p.graph();
        assert!(graph.len() > 50, "graph size {}", graph.len());

        // Density raster covers the region.
        assert!(p.raster().total() > 1_000);
    }

    #[test]
    fn knn_and_forecast_available_after_run() {
        let sim = Scenario::generate(ScenarioConfig::regional_honest(7, 15, 2 * HOUR));
        let mut p = pipeline_for(&sim);
        p.run_scenario(&sim);

        let t = p.watermark();
        let near = p.knn(Position::new(43.0, 5.0), t, 5);
        assert!(!near.is_empty());

        // Forecast from any vessel's archived synopsis.
        let vessel = *p.store().vessels().first().unwrap();
        let history = p.store().trajectory(vessel).unwrap();
        let predictor = p.route_predictor();
        use mda_forecast::Predictor;
        let predicted = predictor.predict(&history, t + 10 * mda_geo::time::MINUTE);
        assert!(predicted.is_some());

        // Normalcy model learned the region.
        assert!(p.normalcy().cell_count() > 10);
    }

    #[test]
    fn watermark_discipline_orders_disordered_input() {
        let sim = Scenario::generate(ScenarioConfig::regional(9, 10, 2 * HOUR));
        // Verify the input really is event-time disordered.
        let disordered = sim.ais.windows(2).any(|w| w[0].t_sent > w[1].t_sent);
        assert!(disordered);
        let mut p = pipeline_for(&sim);
        p.run_scenario(&sim);
        // Late-beyond-watermark drops stay tiny.
        let r = p.report();
        let drop_rate = r.dropped_late as f64 / r.ais_messages.max(1) as f64;
        assert!(drop_rate < 0.05, "drop rate {drop_rate}");
    }

    #[test]
    fn backfill_loads_archive_shard_affine() {
        let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
        let p = MaritimePipeline::new(PipelineConfig::regional(bounds));
        // 50 vessels × 40 fixes, interleaved arrival.
        let mut fixes = Vec::new();
        for i in 0..40i64 {
            for v in 1..=50u32 {
                fixes.push(Fix::new(
                    v,
                    Timestamp::from_mins(i),
                    Position::new(42.2 + f64::from(v) * 0.03, 3.2 + i as f64 * 0.05),
                    10.0,
                    90.0,
                ));
            }
        }
        assert_eq!(p.backfill_archive(fixes, 4), 2_000);
        assert_eq!(p.store().len(), 2_000);
        assert_eq!(p.store().vessel_count(), 50);
        // Per-vessel order survived parallel ingest.
        for id in p.store().vessels() {
            let traj = p.store().trajectory(id).unwrap();
            assert_eq!(traj.len(), 40);
            assert!(traj.windows(2).all(|w| w[0].t <= w[1].t));
        }
        // The incrementally-maintained grid serves window queries.
        let window = p.store().window(
            &BoundingBox::new(42.0, 3.0, 44.0, 3.5),
            Timestamp::from_mins(0),
            Timestamp::from_mins(5),
        );
        assert!(!window.is_empty());
        assert!(window.iter().all(|f| f.pos.lon <= 3.5 && f.t <= Timestamp::from_mins(5)));
    }

    #[test]
    fn watermark_advance_seals_old_fixes_cold() {
        let sim = Scenario::generate(ScenarioConfig::regional(13, 20, 4 * HOUR));
        let mut p = pipeline_for(&sim);
        p.run_scenario(&sim);
        let r = p.report();
        // A 4 h scenario with a 1 h hot horizon must have sealed.
        assert!(r.seal_sweeps > 0, "no seal sweeps ran");
        assert!(r.cold_fixes > 0, "nothing was sealed cold");
        assert!(r.cold_segments > 0);
        assert_eq!(r.hot_fixes + r.cold_fixes, p.store().len() as u64);
        // The report exposes both tiers' sizes. (Density is `e2e`'s
        // `store.cold_bytes_per_fix`; the live archive stores
        // already-thinned synopses, so per-segment headers dominate.)
        let rows = r.tier_rows();
        assert_eq!(rows[0].1, r.hot_fixes);
        assert_eq!(rows[1].1, r.cold_fixes);
        assert!(r.cold_bytes > 0);
        // Cross-tier reads keep working: the full trajectory of any
        // vessel spans sealed and hot fixes seamlessly.
        let id = *p.store().vessels().first().unwrap();
        let traj = p.store().trajectory(id).unwrap();
        assert!(traj.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn published_stamps_never_regress_across_reingest() {
        // `finish` stamps ahead of the tick grid (watermark + delay);
        // continued ingest afterwards fires tick boundaries *behind*
        // that stamp, which must not be re-published: readers hold the
        // monotone-stamp contract.
        let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
        let mut p = MaritimePipeline::new(PipelineConfig::regional(bounds));
        let svc = p.query_service();
        let fix_at = |i: i64| {
            Fix::new(
                1,
                Timestamp::from_mins(i),
                Position::new(43.0, 3.2 + 0.001 * i as f64),
                10.0,
                90.0,
            )
        };
        for i in 0..60 {
            p.push_fix(fix_at(i));
        }
        p.finish();
        let after_finish = svc.watermark();
        assert!(after_finish > Timestamp::MIN);
        let mut wm = after_finish;
        for i in 60..240 {
            p.push_fix(fix_at(i));
            let now = svc.watermark();
            assert!(now >= wm, "stamp regressed after finish: {now} < {wm}");
            wm = now;
        }
        p.finish();
        assert!(svc.watermark() >= after_finish);
    }

    #[test]
    fn adaptive_pipeline_retunes_within_bounds_and_deterministically() {
        use mda_stream::control::ControlConfig;
        let sim = Scenario::generate(ScenarioConfig::regional(21, 20, 3 * HOUR));
        let config = PipelineConfig::adaptive(sim.world.bounds);
        let mut p = MaritimePipeline::new(config.clone());
        p.run_scenario(&sim);

        let trace = p.control_trace();
        assert!(!trace.is_empty(), "a 3 h run must commit knob moves");
        // Boundaries strictly increase; every knob stays clamped.
        assert!(trace.windows(2).all(|w| w[0].0 < w[1].0));
        let cfg = ControlConfig::default();
        for (_, k) in &trace {
            assert!(cfg.delay_bounds.0 <= k.delay && k.delay <= cfg.delay_bounds.1);
            assert!(cfg.seal_bounds.0 <= k.seal_every && k.seal_every <= cfg.seal_bounds.1);
            assert!(cfg.ring_bounds.0 <= k.ring_capacity && k.ring_capacity <= cfg.ring_bounds.1);
        }
        // The report surfaces the controller's last commit.
        let status = p.report().control.expect("control status recorded");
        assert_eq!(status.knobs, trace.last().unwrap().1);
        assert!(status.gauges.commits as usize == trace.len());
        assert!(!p.report().control_rows().is_empty());

        // Re-running the identical scenario reproduces the knob
        // trajectory bit-for-bit: the controller sees only event-time
        // observables.
        let mut p2 = MaritimePipeline::new(config);
        p2.run_scenario(&sim);
        assert_eq!(p.control_trace(), p2.control_trace());
    }

    #[test]
    fn empty_bounds_pipeline_is_harmless() {
        let config = PipelineConfig::regional(BoundingBox::new(0.0, 0.0, 1.0, 1.0));
        let mut p = MaritimePipeline::new(config);
        assert!(p.finish().is_empty());
        assert_eq!(p.compression_ratio(), 0.0);
    }
}
