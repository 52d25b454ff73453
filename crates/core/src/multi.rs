//! The pipeline loop: one router, N shard-owning writer lanes, one
//! two-phase tick boundary.
//!
//! [`MultiWriterPipeline`] is the integrated Figure-2 write path. A
//! **router** (the caller's thread) validates arrivals, applies the
//! late-drop rule, and routes each observation to one of `writers`
//! **lanes** by the [`mda_geo::vessel_shard`] hash every layer already
//! uses (lane `w` of `n` owns the shards `s` with `s % n == w`). A lane
//! owns its shard set **end-to-end** — reorder buffer → fuser → engine
//! shards ([`mda_events::EngineLane`]) → synopsis compressors → store
//! shards ([`mda_store::shards::StoreLane`]) — and is touched by exactly
//! one thread, so lanes never contend on a lock for their own data.
//!
//! Arrivals are processed in **epochs**: every `ingest_batch` arrivals
//! the router computes the due tick boundaries and runs all lanes to
//! the current watermark through [`mda_stream::barrier::run_lanes`].
//! With one lane that call is an inline function call on the router's
//! thread — no spawn, no barrier, no lock — which is what
//! [`MaritimePipeline`](crate::pipeline::MaritimePipeline) is: this
//! loop at `writers = 1`, one epoch per arrival.
//!
//! ## The boundary protocol
//!
//! Per-vessel work parallelises trivially; the cross-shard points do
//! not. Exactly two operations need the whole fleet at one event time:
//! the pairwise sweeps (rendezvous/collision read a merged
//! [`FleetIndex`]) and the publication of a [`SystemSnapshot`] stamp.
//! Both happen only at aligned tick boundaries `T`, so the lanes make
//! two crossings ([`Shared::cross`](mda_stream::barrier::Shared::cross), panic-safe like
//! `run_with_readers`) at every boundary:
//!
//! 1. every lane processes exactly its accepted data with `t <= T` and
//!    deposits its detector events and live-index clones; the last lane
//!    to arrive leads: it merges the deposits into the engine's
//!    canonical event order and builds the fleet view;
//! 2. every lane sweeps its own shards against the shared fleet view
//!    and deposits tick events and evictions; the leader merges, seals,
//!    marks and publishes the stamp `T`, then the lanes fan the
//!    eviction union out to their pair state and resume.
//!
//! Because the router's accept/drop decisions and the boundary firing
//! sequence are pure functions of the arrival stream, and every
//! cross-lane merge is order-free, everything observable — emitted
//! event sets, archive contents, published stamps and their snapshot
//! answers, report counters — is **invariant under the writer count**
//! (`tests/scenario_determinism.rs`, `tests/query_consistency.rs` and
//! `tests/multi_writer.rs` hold it to that for 1/2/4/8 writers).

use crate::config::PipelineConfig;
use crate::pipeline::Console;
use crate::query::{QueryService, QueryShared, SystemSnapshot};
use crate::report::{PipelineReport, StageMetric, StageTimer};
use mda_ais::messages::AisMessage;
use mda_ais::quality;
use mda_events::engine::{canonical_sort, EngineConfig, EngineLane};
use mda_events::event::MaritimeEvent;
use mda_events::proximity::{FleetIndex, LiveIndex};
use mda_forecast::routenet::{RouteNetPredictor, RouteNetwork};
use mda_geo::{vessel_shard, Fix, Timestamp, VesselId};
use mda_sim::receivers::{RadarPlot, VmsReport};
use mda_sim::scenario::{AisObservation, SimOutput};
use mda_store::segment::SegmentConfig;
use mda_store::shards::{StIndexConfig, StoreConfig, StoreLane};
use mda_store::shared::SharedTrajectoryStore;
use mda_store::DurableStore;
use mda_stream::barrier::run_lanes;
use mda_stream::control::{AdaptiveController, ArrivalWindow, Knobs};
use mda_stream::reorder::ReorderBuffer;
use mda_stream::watermark::{BoundedOutOfOrderness, SealSchedule, TickSchedule};
use mda_synopses::compress::ThresholdCompressor;
use mda_track::fusion::Fuser;
use mda_track::sensor::{SensorKind, SensorReport};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

/// An observation routed to a writer lane's reorder buffer.
#[derive(Debug, Clone)]
enum LaneItem {
    Ais(Fix),
    Radar(RadarPlot),
    Vms(VmsReport),
}

/// Per-lane stage timings since the last epoch end.
#[derive(Debug, Default)]
struct LaneMetrics {
    reorder: StageMetric,
    fusion: StageMetric,
    events: StageMetric,
    synopses: StageMetric,
    analytics: StageMetric,
    storage: StageMetric,
}

/// The parts of the pipeline every lane reaches: the configuration and
/// the internally synchronised stores.
struct Context {
    config: PipelineConfig,
    /// The archive (shared with all lane handles).
    store: SharedTrajectoryStore,
    /// Durable backing of the archive, when configured: `store` is its
    /// in-memory face. Lanes log their fix batches through it; the
    /// phase-2 leader seals and marks through it.
    durable: Option<Arc<DurableStore>>,
    query: Arc<QueryShared>,
}

/// One writer lane: the full per-shard pipeline for a disjoint shard
/// set, owned by exactly one thread during an epoch.
pub(crate) struct WriterLane {
    reorder: ReorderBuffer<LaneItem>,
    pub(crate) fuser: Fuser,
    pub(crate) engine: EngineLane,
    pub(crate) compressors: HashMap<VesselId, ThresholdCompressor>,
    /// This lane's additive slice of the learned route network; the
    /// published predictor merges all slices (exact under the cell
    /// statistics' integer quantization).
    pub(crate) route_part: RouteNetwork,
    store: StoreLane,
    /// The operator extras, fed per fix batch — present only on the
    /// lone lane of a [`MaritimePipeline`](crate::MaritimePipeline).
    pub(crate) console: Option<Box<Console>>,
    metrics: LaneMetrics,
    /// Detector events since the last crossing, each shard's in its
    /// processing order.
    events: Vec<MaritimeEvent>,
    /// Tick boundaries this lane has crossed (fault-injection seam).
    boundaries_crossed: u64,
}

impl WriterLane {
    /// Process the lane's released items up to a boundary: consecutive
    /// AIS fixes are grouped into one batch (one shard-affine engine run
    /// per batch instead of a dispatch per fix); radar/VMS items flush
    /// the current batch and go to fusion.
    fn process_interval(&mut self, items: &[(Timestamp, LaneItem)], ctx: &Context) {
        let mut batch: Vec<Fix> = Vec::new();
        for (_, item) in items {
            let (kind, t, pos, claimed_id) = match item {
                LaneItem::Ais(fix) => {
                    batch.push(*fix);
                    continue;
                }
                LaneItem::Radar(plot) => (SensorKind::Radar, plot.t, plot.pos, None),
                LaneItem::Vms(v) => (SensorKind::Vms, v.t, v.pos, Some(v.id)),
            };
            self.process_fix_batch(std::mem::take(&mut batch), ctx);
            let _t = StageTimer::new(&mut self.metrics.fusion);
            self.fuser.ingest(&SensorReport {
                kind,
                t,
                pos,
                claimed_id,
                sog_kn: None,
                cog_deg: None,
                accuracy_m: None,
            });
        }
        self.process_fix_batch(batch, ctx);
    }

    /// One fix batch through the lane's stages: fuse, recognise,
    /// compress, learn, archive, log.
    fn process_fix_batch(&mut self, mut fixes: Vec<Fix>, ctx: &Context) {
        if fixes.is_empty() {
            return;
        }
        // Canonicalise here, not just inside the engine: the synopsis
        // and archive stages must also see same-timestamp duplicates in
        // a content order, or an upstream shuffle within the watermark
        // delay could change which fix a compressor keeps. A lane
        // subset sorted by this total order yields the same per-shard
        // subsequences a global sort would.
        canonical_sort(&mut fixes);
        {
            let _t = StageTimer::new(&mut self.metrics.fusion);
            for fix in &fixes {
                self.fuser.ingest(&SensorReport::from_fix(SensorKind::AisTerrestrial, fix));
            }
        }
        {
            let _t = StageTimer::new(&mut self.metrics.events);
            for (_, events) in self.engine.observe_sorted(&fixes) {
                self.events.extend(events);
            }
        }
        let kept: Vec<Fix> = {
            let _t = StageTimer::new(&mut self.metrics.synopses);
            let compressors = &mut self.compressors;
            fixes
                .iter()
                .filter_map(|fix| {
                    compressors
                        .entry(fix.id)
                        .or_insert_with(|| ThresholdCompressor::new(ctx.config.synopsis))
                        .observe(*fix)
                })
                .collect()
        };
        {
            let _t = StageTimer::new(&mut self.metrics.analytics);
            for fix in &fixes {
                self.route_part.learn(fix);
            }
            if let Some(console) = &mut self.console {
                console.learn(&fixes);
            }
        }
        let _t = StageTimer::new(&mut self.metrics.storage);
        // One batched archive append (one shard lock + one merge per
        // touched shard) instead of a per-fix trickle: the batch is
        // canonically sorted, so per-vessel order is what per-fix
        // appends would have produced.
        if !kept.is_empty() {
            self.store.append_batch(kept.iter().copied());
        }
        // One WAL record per batch, before the lane reaches the next
        // crossing: the leader's mark for any boundary covering these
        // fixes fires behind that crossing, so the log never trails a
        // durable mark. (The WAL writer serializes concurrent lanes.)
        if let Some(d) = &ctx.durable {
            d.log_batch(&kept).expect("write-ahead-log fix batch");
        }
        if let Some(console) = &mut self.console {
            console.enrich(&kept);
        }
    }
}

/// Serving/publication state the lanes share (held only for deposits
/// and leader sections while every other lane is parked at the
/// barrier). The deposit fields are reused across boundaries: each is
/// filled by the lanes before a crossing and consumed by its leader.
struct SharedState {
    seals: SealSchedule,
    store_snapshot: mda_store::StoreSnapshot,
    published_route: Arc<RouteNetPredictor>,
    ticks_since_refresh: u32,
    last_published: Timestamp,
    emitted: u64,
    evicted: u64,
    live: u64,
    seal_sweeps: u64,
    /// Events finalised this epoch, in emission order (the push call's
    /// return).
    out: Vec<MaritimeEvent>,
    /// Deposit: detector events since the last crossing.
    events: Vec<MaritimeEvent>,
    /// Deposit: live-index clones at the boundary (none from a lone
    /// lane, whose leader reads its indexes in place).
    indexes: Vec<LiveIndex>,
    /// Leader-built fleet view the lanes sweep against.
    fleet: Arc<FleetIndex>,
    /// Deposit: vessels TTL-evicted by this boundary's sweep.
    gone: Vec<VesselId>,
    /// Leader-built set of `gone`, fanned out to every lane's pair
    /// state.
    gone_all: Arc<HashSet<VesselId>>,
    /// Deposit: live vessels after the sweep, summed over lanes.
    live_deposit: usize,
    /// Deposit: route-network slices (only when a predictor refresh is
    /// planned).
    route_parts: Vec<RouteNetwork>,
    /// Leader decision: publish a snapshot at this boundary?
    publish: bool,
    /// Leader decision: rebuild the published predictor with it?
    want_route: bool,
}

fn state(shared: &mut Mutex<SharedState>) -> &mut SharedState {
    shared.get_mut().unwrap_or_else(PoisonError::into_inner)
}

impl SharedState {
    /// Merge the deposited events into the engine's emission order —
    /// a stable sort by the canonical event key: equal keys share a
    /// vessel, hence a shard, hence one lane's processing order — and
    /// account them (gauge, ring, epoch output).
    fn emit_deposits(&mut self, query: &QueryShared) {
        if self.events.is_empty() {
            return;
        }
        self.events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        self.emitted += self.events.len() as u64;
        query.append_events(&self.events);
        self.out.append(&mut self.events);
    }

    /// Decide whether the stamp `wm` is published and, if so, whether
    /// the predictor is rebuilt with it (every `cadence` publications).
    /// Stamps are monotone and unique — equal stamps always mean the
    /// same state (the `Stamped` contract) — so a boundary at or behind
    /// the last published one (possible when ingest continues after a
    /// `finish`, whose stamp runs ahead of the tick grid) is skipped.
    /// So is all publication work while no [`QueryService`] handle
    /// exists: nobody can observe a snapshot, so cloning changed hot
    /// shards would be pure ingest tax. (The event ring is still fed —
    /// a late subscriber may replay its retention.)
    fn plan_publication(&mut self, wm: Timestamp, has_readers: bool, cadence: u32) {
        self.publish = has_readers && wm > self.last_published;
        self.want_route = false;
        if self.publish {
            self.ticks_since_refresh += 1;
            if self.ticks_since_refresh >= cadence {
                self.want_route = true;
                self.ticks_since_refresh = 0;
            }
        }
    }

    /// Carry out the planned publication of stamp `wm`. The store side
    /// reuses unchanged shards from the previous publication;
    /// `route_parts` (every lane's slice) is consumed only when the
    /// predictor is rebuilt.
    fn publish(
        &mut self,
        wm: Timestamp,
        mut route_parts: impl Iterator<Item = RouteNetwork>,
        ctx: &Context,
    ) {
        if !self.publish {
            return;
        }
        self.last_published = wm;
        if self.want_route {
            let mut net = route_parts.next().expect("every lane contributes a slice");
            for part in route_parts {
                net.merge_from(&part);
            }
            self.published_route = Arc::new(RouteNetPredictor::new(net));
        }
        let snap = ctx.store.snapshot(Some(&self.store_snapshot));
        self.store_snapshot = snap.clone();
        ctx.query.publish(SystemSnapshot::new(
            wm,
            snap,
            Arc::clone(&self.published_route),
            self.live,
            self.emitted,
        ));
    }

    /// The phase-2 leader section at boundary `b`: merge the sweep
    /// deposits, seal, mark, publish.
    fn close_boundary(&mut self, b: Timestamp, ctx: &Context) {
        self.emit_deposits(&ctx.query);
        self.evicted += self.gone.len() as u64;
        self.gone_all = Arc::new(self.gone.drain(..).collect());
        self.live = std::mem::take(&mut self.live_deposit) as u64;
        // Watermark-driven retention: rotate fixes older than the hot
        // horizon into sealed cold segments. The schedule quantizes
        // cuts to aligned boundaries — a pure function of event time.
        // A durable seal persists the segments and rotates the WAL;
        // every other lane is parked, so the store is append-quiescent.
        if let Some(cut) = self.seals.due(b) {
            match &ctx.durable {
                Some(d) => {
                    d.seal_before(cut).expect("persist seal sweep");
                }
                None => {
                    ctx.store.seal_before(cut);
                }
            }
            self.seal_sweeps += 1;
        }
        // Record the durability boundary whether or not a snapshot is
        // published: every lane has processed (and logged) exactly its
        // data with `t <= b` — durability must never starve because
        // nobody is reading.
        if let Some(d) = &ctx.durable {
            d.mark(b).expect("record durability mark");
        }
        let parts = std::mem::take(&mut self.route_parts);
        self.publish(b, parts.into_iter(), ctx);
    }
}

/// The integrated pipeline (Figure 2) over `writers` shard-owning
/// lanes: push observations in arrival order, get event-time ordered
/// analytics out.
///
/// Everything observable is writer-count invariant; see the
/// [module docs](self) for the loop and its boundary protocol.
///
/// ```
/// use mda_core::multi::MultiWriterPipeline;
/// use mda_core::PipelineConfig;
/// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
///
/// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
/// let mut pipeline = MultiWriterPipeline::new(PipelineConfig::regional(bounds), 4);
/// let service = pipeline.query_service();
/// for i in 0..120i64 {
///     for v in 1..=8u32 {
///         let pos = Position::new(42.5 + 0.1 * f64::from(v), 5.0 + 0.002 * i as f64);
///         pipeline.push_fix(Fix::new(v, Timestamp::from_mins(i), pos, 10.0, 90.0));
///     }
/// }
/// pipeline.finish();
/// assert_eq!(service.fleet().value.archived_vessels, 8);
/// ```
pub struct MultiWriterPipeline {
    ctx: Context,
    ingest_batch: usize,
    arrivals_since_flush: usize,
    watermark: BoundedOutOfOrderness,
    /// The late frontier: arrivals at or behind it are dropped. It
    /// trails the running watermark exactly as a reorder buffer
    /// released at every arrival would, and starts at a recovered
    /// run's published watermark — replays of data the archive already
    /// holds are late by definition, which keeps the WAL mark
    /// discipline intact across restarts.
    drop_frontier: Timestamp,
    /// Watermark of the last epoch: every accepted observation with
    /// `t <=` this has been fully processed, so it is the
    /// content-correct stamp for catch-up publications.
    released_frontier: Timestamp,
    ticks: TickSchedule,
    pub(crate) lanes: Vec<WriterLane>,
    shared: Mutex<SharedState>,
    /// Router counters, plus the lane timings and shared gauges folded
    /// in at every epoch end.
    pub(crate) report: PipelineReport,
    /// The adaptive controller and its arrival-side observation window
    /// (`None` when the pipeline runs static knobs). Both live on the
    /// router thread — the one thread that sees every arrival — so
    /// observing and committing never take a lock.
    adaptive: Option<(ArrivalWindow, AdaptiveController)>,
    /// The aligned frontier boundary of the last knob commit — the
    /// gate keeping the commit schedule one-per-boundary.
    last_control_commit: Timestamp,
    /// Test seam: `(lane, crossing)` at which that lane panics.
    inject: Option<(usize, u64)>,
}

impl MultiWriterPipeline {
    /// Build a pipeline with `writers` lanes (clamped to
    /// `1..=store_shards`). Zones for the event engine come from
    /// `config.events.zones`.
    ///
    /// With [`PipelineConfig::durability`] set, the archive opens (or
    /// recovers) a [`DurableStore`] in the configured directory: a
    /// directory holding a previous run restores its cold segments,
    /// hot tier and published watermark before any new observation is
    /// accepted, and the first published stamp continues monotonically
    /// from the recovered one.
    ///
    /// # Panics
    ///
    /// Panics if several lanes are asked for and
    /// `config.events.shards != config.store_shards` — lane ownership
    /// is defined over the one shared shard space
    /// ([`PipelineConfig::regional`] guarantees this) — or if the
    /// durable data directory cannot be opened or recovered (I/O error
    /// or corrupt manifest): a pipeline asked for durability must not
    /// silently run without it.
    pub fn new(config: PipelineConfig, writers: usize) -> Self {
        let writers = writers.clamp(1, config.store_shards.max(1));
        assert!(
            writers == 1 || config.events.shards.max(1) == config.store_shards.max(1),
            "writer lanes need engine and store sharding aligned"
        );
        // The retention policy owns the live-state TTL so the detector
        // layer and the lanes' per-vessel maps evict together — but an
        // explicitly customised `events.vessel_ttl` wins over the
        // retention default rather than being silently discarded.
        let vessel_ttl = if config.events.vessel_ttl == EngineConfig::default().vessel_ttl {
            config.retention.detector_ttl
        } else {
            config.events.vessel_ttl
        };
        let events_config = EngineConfig { vessel_ttl, ..config.events.clone() };
        // The archive is lock-striped by vessel hash; its per-shard
        // grid index is maintained at ingest time so window queries
        // never rebuild anything.
        let store_config = StoreConfig {
            shards: config.store_shards,
            st_index: Some(StIndexConfig {
                bounds: config.bounds,
                cell_deg: 0.1,
                slice: 30 * mda_geo::time::MINUTE,
            }),
            knn: None,
            seal: SegmentConfig {
                tolerance_m: config.retention.cold_tolerance_m,
                max_silence: config.synopsis.max_silence,
                ..SegmentConfig::default()
            },
        };
        let (store, durable) = match &config.durability {
            Some(d) => {
                let durable = DurableStore::open(store_config, d)
                    .expect("open/recover the durable data directory");
                (durable.store().clone(), Some(Arc::new(durable)))
            }
            None => (SharedTrajectoryStore::with_config(store_config), None),
        };
        let durable_floor = durable.as_ref().map_or(Timestamp::MIN, |d| d.watermark());
        // Adaptive control: the static knobs seed the controller, which
        // clamps them into its bounds; the clamped values are what is
        // actually applied.
        let mut knobs = Knobs {
            delay: config.watermark_delay,
            seal_every: config.retention.seal_every,
            ring_capacity: config.query.event_capacity,
        };
        let adaptive = config.adaptive.map(|ctl| {
            let window = ArrivalWindow::new(config.store_shards, ctl.fast_alpha, ctl.slow_alpha);
            let controller = AdaptiveController::new(ctl, knobs);
            knobs = controller.knobs();
            (window, controller)
        });
        let route_net = RouteNetwork::new(config.bounds, config.model_cell_deg);
        // The serving layer starts on an empty snapshot; a fresh
        // pipeline stamps it MIN (the first tick publishes real state),
        // a recovered one stamps it with the recovered watermark so
        // reader stamps continue monotonically.
        let published_route = Arc::new(RouteNetPredictor::new(route_net.clone()));
        let store_snapshot = store.snapshot(None);
        let query = Arc::new(QueryShared::new(
            knobs.ring_capacity,
            SystemSnapshot::new(
                durable_floor,
                store_snapshot.clone(),
                Arc::clone(&published_route),
                0,
                0,
            ),
        ));
        let lanes = (0..writers)
            .map(|w| WriterLane {
                reorder: ReorderBuffer::new(),
                fuser: Fuser::new(config.fusion),
                engine: EngineLane::new(&events_config, w, writers),
                compressors: HashMap::new(),
                route_part: route_net.clone(),
                store: store.lane(w, writers),
                console: None,
                metrics: LaneMetrics::default(),
                events: Vec::new(),
                boundaries_crossed: 0,
            })
            .collect();
        let shared = Mutex::new(SharedState {
            seals: SealSchedule::new(knobs.seal_every, config.retention.hot_horizon),
            store_snapshot,
            published_route,
            ticks_since_refresh: 0,
            last_published: durable_floor,
            emitted: 0,
            evicted: 0,
            live: 0,
            seal_sweeps: 0,
            out: Vec::new(),
            events: Vec::new(),
            indexes: Vec::new(),
            fleet: Arc::default(),
            gone: Vec::new(),
            gone_all: Arc::default(),
            live_deposit: 0,
            route_parts: Vec::new(),
            publish: false,
            want_route: false,
        });
        Self {
            ingest_batch: 256,
            arrivals_since_flush: 0,
            watermark: BoundedOutOfOrderness::new(knobs.delay),
            drop_frontier: durable_floor,
            released_frontier: durable_floor,
            ticks: TickSchedule::new(config.tick_interval),
            lanes,
            shared,
            report: PipelineReport::default(),
            adaptive,
            last_control_commit: Timestamp::MIN,
            inject: None,
            ctx: Context { config, store, durable, query },
        }
    }

    /// Set how many arrivals the router buffers between epochs (min 1;
    /// default 256). Smaller batches publish stamps with less arrival
    /// lag; larger batches amortise the barrier. Same-timestamp
    /// duplicates of one vessel (dual-receiver clones) are resolved per
    /// released batch, so which member of such a pair the synopsis
    /// keeps — metres apart, same instant — is the one output that may
    /// vary with this setting.
    pub fn with_ingest_batch(mut self, arrivals: usize) -> Self {
        self.ingest_batch = arrivals.max(1);
        self
    }

    /// Number of writer lanes.
    pub fn writers(&self) -> usize {
        self.lanes.len()
    }

    /// Test seam: make lane `lane` panic just before it arrives at its
    /// `crossing`-th tick boundary (1-based). Exercises the barrier's
    /// abandon path; see `tests/multi_writer.rs`.
    pub fn inject_lane_panic(&mut self, lane: usize, crossing: u64) {
        self.inject = Some((lane, crossing));
    }

    /// Push one received AIS observation (arrival order). Returns the
    /// events finalised by the epoch this arrival completed (empty
    /// between epochs, which run every `ingest_batch` arrivals).
    pub fn push_ais(&mut self, obs: &AisObservation) -> Vec<MaritimeEvent> {
        let fix = {
            let _t = StageTimer::new(&mut self.report.ingest);
            self.report.ais_messages += 1;
            match &obs.msg {
                AisMessage::StaticVoyage(sv) => {
                    self.report.static_messages += 1;
                    if !quality::validate_static(sv).is_clean() {
                        self.report.static_flagged += 1;
                    }
                    return Vec::new();
                }
                msg => match msg.to_fix(obs.t_sent) {
                    Some(fix) => fix,
                    None => {
                        self.report.invalid_messages += 1;
                        return Vec::new();
                    }
                },
            }
        };
        self.push_fix(fix)
    }

    /// Push one already-decoded AIS position fix (arrival order) — the
    /// raw-fix ingest path for feeds that bypass AIVDM decoding.
    pub fn push_fix(&mut self, fix: Fix) -> Vec<MaritimeEvent> {
        // Adaptive control observes every AIS arrival — including ones
        // about to be dropped as late, since lateness pressure is
        // exactly the signal — keyed by the *store* shard of the
        // vessel, which is writer-count invariant. Radar/VMS routing
        // depends on the writer layout, so those streams are not
        // observed: the controller's inputs must be a pure function of
        // the event-time stream.
        if let Some((window, _)) = &mut self.adaptive {
            window.observe(fix.t, vessel_shard(fix.id, self.ctx.config.store_shards));
        }
        self.enqueue(fix.t, LaneItem::Ais(fix))
    }

    /// Push a radar plot.
    pub fn push_radar(&mut self, plot: &RadarPlot) -> Vec<MaritimeEvent> {
        self.report.radar_plots += 1;
        self.enqueue(plot.t, LaneItem::Radar(*plot))
    }

    /// Push a VMS report.
    pub fn push_vms(&mut self, report: &VmsReport) -> Vec<MaritimeEvent> {
        self.report.vms_reports += 1;
        self.enqueue(report.t, LaneItem::Vms(*report))
    }

    /// Which lane an item belongs to. Identity-bearing items go by
    /// vessel shard (ownership); anonymous radar plots have no shard,
    /// so any deterministic function of their content will do — they
    /// only feed the owning lane's fuser.
    fn route(&self, item: &LaneItem) -> usize {
        let (shards, writers) = (self.ctx.config.store_shards, self.lanes.len());
        if writers == 1 {
            return 0;
        }
        match item {
            LaneItem::Ais(fix) => vessel_shard(fix.id, shards) % writers,
            LaneItem::Vms(v) => vessel_shard(v.id, shards) % writers,
            LaneItem::Radar(plot) => {
                let mut h = plot.t.millis() as u64;
                h ^= plot.pos.lat.to_bits().rotate_left(17);
                h ^= plot.pos.lon.to_bits().rotate_left(43);
                (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % writers
            }
        }
    }

    /// The late-drop rule, then buffering on the owning lane; every
    /// `ingest_batch`-th arrival runs an epoch.
    fn enqueue(&mut self, t: Timestamp, item: LaneItem) -> Vec<MaritimeEvent> {
        let lane = self.route(&item);
        {
            let _t = StageTimer::new(&mut self.report.reorder);
            if t <= self.drop_frontier && self.drop_frontier != Timestamp::MIN {
                self.report.dropped_late += 1;
                self.watermark.observe(t);
            } else {
                let wm = self.watermark.observe(t);
                self.drop_frontier = self.drop_frontier.max(wm);
                let accepted = self.lanes[lane].reorder.push(t, item);
                debug_assert!(accepted, "router accepted an item its lane rejected");
            }
        }
        self.arrivals_since_flush += 1;
        if self.arrivals_since_flush < self.ingest_batch {
            return Vec::new();
        }
        self.arrivals_since_flush = 0;
        self.run_epoch(self.watermark.current(), false)
    }

    /// The tick boundaries an epoch up to `wm` crosses, and whether it
    /// releases anything.
    ///
    /// Boundaries are aligned to `tick_interval` (anchored at the first
    /// observation's boundary) and a boundary `T` fires after exactly
    /// the observations with `t <= T` — never after a later fix that
    /// happened to be released in the same epoch. That makes the whole
    /// tick/sweep/eviction/publication schedule a pure function of the
    /// event-time stream: arrival jitter within the watermark delay
    /// cannot move a sweep relative to the data it sees.
    fn due_boundaries(&mut self, wm: Timestamp, draining: bool) -> (Vec<Timestamp>, bool) {
        let mut boundaries = Vec::new();
        // Boundaries strictly before a released observation fire before
        // it. The schedule only needs the two ends of the released
        // span: the earliest anchors the grid, and every boundary
        // before any released observation is before the latest.
        let span = self
            .lanes
            .iter()
            .filter_map(|lane| lane.reorder.span_until(wm))
            .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)));
        if let Some((first, last)) = span {
            for t in [first, last] {
                while let Some(b) = self.ticks.before_observation(t) {
                    boundaries.push(b);
                }
            }
        }
        // Boundaries up to the aligned watermark: no more data at or
        // before them can ever be accepted, so they are complete.
        while let Some(b) = self.ticks.at_watermark(wm) {
            boundaries.push(b);
        }
        // End-of-stream: one trailing sweep at the final (unaligned)
        // watermark.
        if draining && self.ticks.anchored() && wm > self.ticks.last_boundary() {
            boundaries.push(wm);
        }
        (boundaries, span.is_some())
    }

    /// Frontier-clocked knob commit at the epoch start, before any
    /// lane runs: absorb the arrival window and retune once per aligned
    /// `tick_interval` boundary *of the arrival frontier*. The frontier
    /// — not the watermark — is the controller's clock: a
    /// watermark-clocked commit schedule self-throttles, because
    /// widening the delay by Δ stalls the watermark (and with it the
    /// next watermark-aligned boundary) for exactly Δ of frontier time,
    /// blacking out control precisely while lateness is ramping. The
    /// frontier never stalls; epochs fire every `ingest_batch` arrivals
    /// — a writer-count-invariant schedule — and every input (absorbed
    /// observations, hot backlog, events emitted) is a pure function of
    /// the event-time stream, so the committed trajectory is identical
    /// at any writer count.
    fn commit_control(&mut self) {
        let Some((window, ctl)) = &mut self.adaptive else {
            return;
        };
        let Some(frontier) = self.watermark.frontier() else {
            return;
        };
        let tick = self.ctx.config.tick_interval.max(1);
        let aligned = Timestamp(frontier.millis().div_euclid(tick) * tick);
        if aligned <= self.last_control_commit {
            return;
        }
        self.last_control_commit = aligned;
        ctl.absorb(window);
        let shared = state(&mut self.shared);
        let knobs = ctl.commit(aligned, self.ctx.store.hot_len() as u64, shared.emitted);
        // The watermark floor keeps it monotone even when the delay
        // contracts; aligned seal cuts stay monotone across retunes.
        self.watermark.set_max_delay(knobs.delay);
        shared.seals.set_every(knobs.seal_every);
        self.ctx.query.set_event_capacity(knobs.ring_capacity);
        self.report.record_control(ctl.gauges(), knobs);
    }

    /// Run one epoch to the watermark `wm` and return the events it
    /// finalised.
    fn run_epoch(&mut self, wm: Timestamp, draining: bool) -> Vec<MaritimeEvent> {
        self.commit_control();
        let (boundaries, any_released) = self.due_boundaries(wm, draining);
        if boundaries.is_empty() && !any_released {
            self.released_frontier = self.released_frontier.max(wm);
            return Vec::new();
        }
        let ctx = &self.ctx;
        // Handles are created through `&mut self`, so the count cannot
        // change mid-epoch.
        let has_readers = Arc::strong_count(&ctx.query) > 1;
        // The predictor is rebuilt every `cadence` publications — every
        // one while `finish` drains, so the final stamps carry route
        // state exactly as of each stamp.
        let cadence = if draining { 1 } else { ctx.config.query.predictor_refresh_ticks.max(1) };
        let inject = self.inject;
        // A lone lane owns every engine shard: its leader section reads
        // the live indexes in place instead of cloning them around.
        let lone = self.lanes.len() == 1;
        let boundaries = &boundaries[..];
        run_lanes(&mut self.lanes, &mut self.shared, move |w, lane, mut shared| {
            let released = {
                let _t = StageTimer::new(&mut lane.metrics.reorder);
                lane.reorder.release(wm)
            };
            let mut cursor = 0usize;
            for &b in boundaries {
                let end = cursor + released[cursor..].partition_point(|(t, _)| *t <= b);
                lane.process_interval(&released[cursor..end], ctx);
                cursor = end;
                lane.boundaries_crossed += 1;
                if inject == Some((w, lane.boundaries_crossed)) {
                    panic!("injected lane fault");
                }
                // Phase 1: the leader merges interval events, builds
                // the fleet view and plans the publication.
                let engine = &lane.engine;
                let mut indexes: Vec<LiveIndex> =
                    if lone { Vec::new() } else { engine.indexes().cloned().collect() };
                shared.cross(
                    |s| {
                        s.events.append(&mut lane.events);
                        s.indexes.append(&mut indexes);
                    },
                    |s| {
                        s.emit_deposits(&ctx.query);
                        s.fleet = Arc::new(if lone {
                            FleetIndex::snapshot(engine.indexes())
                        } else {
                            FleetIndex::snapshot(&s.indexes)
                        });
                        s.indexes.clear();
                        s.plan_publication(b, has_readers, cadence);
                    },
                );
                let (fleet, want_route) = shared.with(|s| (Arc::clone(&s.fleet), s.want_route));
                let (per_shard, gone) = {
                    let _t = StageTimer::new(&mut lane.metrics.events);
                    lane.engine.sweep(b, &fleet)
                };
                // Dead vessels must not pin lane-side per-vessel state.
                // (A fresh compressor simply keeps a returning vessel's
                // next fix.)
                for id in &gone {
                    lane.compressors.remove(id);
                }
                if let Some(console) = &mut lane.console {
                    console.evict(&gone);
                }
                // Phase 2: the leader merges sweep results, seals,
                // marks and publishes the stamp `b`.
                let live = lane.engine.live_count();
                let route_part = want_route.then(|| lane.route_part.clone());
                shared.cross(
                    |s| {
                        s.events.extend(per_shard.into_iter().flat_map(|(_, events)| events));
                        s.gone.extend(gone);
                        s.live_deposit += live;
                        s.route_parts.extend(route_part);
                    },
                    |s| s.close_boundary(b, ctx),
                );
                let gone_all = shared.with(|s| Arc::clone(&s.gone_all));
                lane.engine.evict_pairs(&gone_all);
                lane.fuser.sweep(b);
            }
            // Tail interval: released data past the last boundary.
            lane.process_interval(&released[cursor..], ctx);
            shared.cross(|s| s.events.append(&mut lane.events), |s| s.emit_deposits(&ctx.query));
        });
        self.released_frontier = self.released_frontier.max(wm);

        // Fold the epoch into the router-side report.
        let shared = state(&mut self.shared);
        let out = std::mem::take(&mut shared.out);
        self.report.events_emitted = shared.emitted;
        self.report.evicted_vessels = shared.evicted;
        self.report.live_vessels = shared.live;
        let sealed = self.report.seal_sweeps != shared.seal_sweeps;
        self.report.seal_sweeps = shared.seal_sweeps;
        for lane in &mut self.lanes {
            let m = std::mem::take(&mut lane.metrics);
            self.report.reorder.absorb(&m.reorder);
            self.report.fusion.absorb(&m.fusion);
            self.report.events.absorb(&m.events);
            self.report.synopses.absorb(&m.synopses);
            self.report.analytics.absorb(&m.analytics);
            self.report.storage.absorb(&m.storage);
        }
        for e in &out {
            self.report.count_detector(e.kind.label());
        }
        if sealed || draining {
            let stats = self.tier_stats();
            self.report.record_tiers(&stats);
        }
        out
    }

    /// Publish a catch-up snapshot at `wm` from the router thread
    /// (lanes idle), off the tick grid.
    fn publish_catch_up(&mut self, wm: Timestamp, cadence: u32) {
        let has_readers = Arc::strong_count(&self.ctx.query) > 1;
        let shared = state(&mut self.shared);
        shared.plan_publication(wm, has_readers, cadence);
        shared.publish(wm, self.lanes.iter().map(|lane| lane.route_part.clone()), &self.ctx);
    }

    /// Drain everything buffered (end of stream); returns the remaining
    /// events.
    ///
    /// `finish` is terminal for the data plane: it releases the reorder
    /// buffers completely, so observations pushed afterwards are
    /// dropped as late (counted in `dropped_late`) — they can no longer
    /// be emitted in order. The published serving stamp runs ahead of
    /// the tick grid to the final watermark and never regresses.
    pub fn finish(&mut self) -> Vec<MaritimeEvent> {
        // `now` is the maximum event time seen (watermark + delay):
        // independent of arrival order, so the final sweeps are too.
        // The *current* delay, not the configured one — adaptive
        // control may have retuned it.
        let now = self.watermark.current().saturating_add(self.watermark.max_delay());
        self.drop_frontier = Timestamp::MAX;
        self.arrivals_since_flush = 0;
        let events = self.run_epoch(now, true);
        // End-of-stream publication (a trailing tick that already
        // published this stamp makes it a no-op).
        self.publish_catch_up(now, 1);
        events
    }

    /// Run a whole simulated scenario (AIS + radar + VMS merged by
    /// arrival time). Returns all recognised events.
    pub fn run_scenario(&mut self, sim: &SimOutput) -> Vec<MaritimeEvent> {
        enum Arrival<'a> {
            Ais(&'a AisObservation),
            Radar(&'a RadarPlot),
            Vms(&'a VmsReport),
        }
        let mut merged: Vec<(Timestamp, Arrival)> =
            Vec::with_capacity(sim.ais.len() + sim.radar.len() + sim.vms.len());
        merged.extend(sim.ais.iter().map(|o| (o.t_received, Arrival::Ais(o))));
        merged.extend(sim.radar.iter().map(|p| (p.t, Arrival::Radar(p))));
        merged.extend(sim.vms.iter().map(|v| (v.t, Arrival::Vms(v))));
        merged.sort_by_key(|(t, _)| *t);

        let mut events = Vec::new();
        for (_, item) in merged {
            match item {
                Arrival::Ais(o) => events.extend(self.push_ais(o)),
                Arrival::Radar(p) => events.extend(self.push_radar(p)),
                Arrival::Vms(v) => events.extend(self.push_vms(v)),
            }
        }
        events.extend(self.finish());
        events
    }

    // ---- accessors for decision support, experiments and examples ----

    /// A cloneable, thread-safe read front-end over this pipeline.
    ///
    /// Hand clones to as many reader threads as you like: they serve
    /// point/window/kNN/predictive queries and event subscriptions
    /// against consistent watermark-stamped snapshots, published at
    /// every tick boundary, while this pipeline keeps ingesting. See
    /// [`QueryService`] for the vocabulary and the isolation contract.
    ///
    /// Publication is skipped while no handle exists (write-only
    /// pipelines pay nothing), so a new handle is caught up to the
    /// released frontier — the stamp at which every accepted
    /// observation has been processed, content-correct even off the
    /// tick grid.
    pub fn query_service(&mut self) -> QueryService {
        let service = QueryService::new(Arc::clone(&self.ctx.query));
        let cadence = self.ctx.config.query.predictor_refresh_ticks.max(1);
        self.publish_catch_up(self.released_frontier, cadence);
        service
    }

    /// Per-stage metrics: router counters, gauges and lane timings as
    /// of the last epoch, tier counters fresh from the store. Counters
    /// and gauges are writer-count invariant; timing sums are not (they
    /// add busy time across lanes).
    pub fn report(&self) -> PipelineReport {
        let mut r = self.report.clone();
        r.record_tiers(&self.tier_stats());
        r
    }

    /// The archival (synopsis) store (shared with all lane handles).
    pub fn store(&self) -> &SharedTrajectoryStore {
        &self.ctx.store
    }

    /// Per-tier archive accounting: hot/cold fix counts, approximate
    /// bytes and segment count, fresh from the store. With durability
    /// configured, `disk_bytes` reports the real on-disk footprint
    /// (segment files + WAL + manifest); otherwise it is zero.
    pub fn tier_stats(&self) -> mda_store::TierStats {
        match &self.ctx.durable {
            Some(d) => d.tier_stats(),
            None => self.ctx.store.tier_stats(),
        }
    }

    /// The durable backing store, when durability is configured — for
    /// inspecting the [`mda_store::RecoveryReport`] or the durable
    /// watermark.
    pub fn durable(&self) -> Option<&DurableStore> {
        self.ctx.durable.as_deref()
    }

    /// Bulk-load historical fixes into the archive with `workers` ingest
    /// threads routed shard-affine: each worker exclusively owns a set
    /// of store shards, so workers never contend on a shard lock. Fixes
    /// bypass the streaming stages (no compression, events or model
    /// learning) — this is the archive backfill path. Per-vessel input
    /// order is preserved. Returns the number of fixes loaded.
    pub fn backfill_archive(&self, fixes: Vec<Fix>, workers: usize) -> usize {
        let n = fixes.len();
        let store = &self.ctx.store;
        mda_stream::runner::run_shard_affine(
            fixes,
            workers.max(1),
            store.shard_count(),
            |f: &Fix| store.shard_of(f.id),
            || {
                let store = store.clone();
                let durable = self.ctx.durable.clone();
                move |batch: Vec<Fix>| {
                    if let Some(d) = &durable {
                        d.log_batch(&batch).expect("write-ahead-log backfill batch");
                    }
                    store.append_batch(batch);
                    Vec::<()>::new()
                }
            },
        );
        n
    }

    /// Current event-time watermark.
    pub fn watermark(&self) -> Timestamp {
        self.watermark.current()
    }

    /// The adaptive controller's committed knob trajectory —
    /// `(boundary, knobs)` per commit, in boundary order. Empty for a
    /// pipeline running static knobs. Identical arrival streams produce
    /// identical traces at any writer count and under any arrival
    /// jitter within the watermark delay: every controller input is a
    /// writer-count-invariant function of the event-time stream.
    pub fn control_trace(&self) -> Vec<(Timestamp, Knobs)> {
        self.adaptive.as_ref().map_or_else(Vec::new, |(_, ctl)| ctl.trace().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::{BoundingBox, Position};

    fn bounds() -> BoundingBox {
        BoundingBox::new(42.0, 3.0, 44.0, 6.5)
    }

    /// A small mixed fleet with enough structure to light up several
    /// detectors and the seal schedule.
    fn drive(pipeline: &mut MultiWriterPipeline) -> Vec<MaritimeEvent> {
        let mut events = Vec::new();
        for i in 0..240i64 {
            let t = Timestamp::from_mins(i);
            for v in 1..=12u32 {
                // Every 4th vessel goes dark after 2 h.
                if v % 4 == 0 && i >= 120 {
                    continue;
                }
                let lat = 42.3 + 0.12 * f64::from(v);
                let pos = Position::new(lat, 4.0 + 0.004 * i as f64);
                events.extend(pipeline.push_fix(Fix::new(v, t, pos, 11.0, 90.0)));
            }
        }
        events.extend(pipeline.finish());
        events
    }

    #[test]
    fn writer_count_is_clamped_to_shards() {
        let config = PipelineConfig::regional(bounds());
        let shards = config.store_shards;
        let p = MultiWriterPipeline::new(config, 64);
        assert_eq!(p.writers(), shards);
        let p = MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 0);
        assert_eq!(p.writers(), 1);
    }

    #[test]
    fn single_and_multi_writer_reports_agree() {
        let mut one =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 1).with_ingest_batch(64);
        let mut four =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 4).with_ingest_batch(64);
        let e1 = drive(&mut one);
        let e4 = drive(&mut four);
        assert_eq!(e1, e4, "event streams must be writer-count invariant");
        let (r1, r4) = (one.report(), four.report());
        assert_eq!(r1.events_emitted, r4.events_emitted);
        assert!(r1.events_emitted > 0, "scenario should emit events");
        assert_eq!(r1.detector_counts, r4.detector_counts);
        assert_eq!(r1.live_vessels, r4.live_vessels);
        assert_eq!(r1.evicted_vessels, r4.evicted_vessels);
        assert!(r1.evicted_vessels > 0, "dark vessels should age out");
        assert_eq!(r1.seal_sweeps, r4.seal_sweeps);
        assert!(r1.seal_sweeps > 0, "4 h of data crosses seal boundaries");
        assert_eq!(r1.hot_fixes, r4.hot_fixes);
        assert_eq!(r1.cold_fixes, r4.cold_fixes);
        assert_eq!(r1.cold_segments, r4.cold_segments);
        assert_eq!(r1.dropped_late, r4.dropped_late);
        assert_eq!(r1.ais_messages, r4.ais_messages);
        // Stage timings aggregate across lanes: every stage that ran
        // shows up with calls.
        assert!(r4.events.calls > 0 && r4.synopses.calls > 0 && r4.storage.calls > 0);
    }

    #[test]
    fn archives_match_across_writer_counts() {
        let mut one =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 1).with_ingest_batch(32);
        let mut eight =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 8).with_ingest_batch(32);
        drive(&mut one);
        drive(&mut eight);
        assert_eq!(one.store().len(), eight.store().len());
        for v in 1..=12u32 {
            assert_eq!(
                one.store().trajectory(v),
                eight.store().trajectory(v),
                "vessel {v} archive must be writer-count invariant"
            );
        }
    }

    #[test]
    fn late_arrivals_drop_like_the_single_writer() {
        let mut p =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 2).with_ingest_batch(8);
        let delay = p.ctx.config.watermark_delay;
        for i in 0..60i64 {
            p.push_fix(Fix::new(1, Timestamp::from_mins(i), Position::new(43.0, 5.0), 9.0, 90.0));
        }
        // Far behind the watermark: must be counted, not processed.
        let stale = Timestamp::from_mins(59).saturating_add(-delay - 1);
        p.push_fix(Fix::new(2, stale, Position::new(43.0, 5.0), 9.0, 90.0));
        p.finish();
        assert_eq!(p.report().dropped_late, 1);
        assert!(p.store().trajectory(2).is_none(), "late vessel never archived");
    }

    #[test]
    fn adaptive_knob_trajectory_is_writer_count_invariant() {
        let traces: Vec<_> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| {
                let mut p = MultiWriterPipeline::new(PipelineConfig::adaptive(bounds()), w)
                    .with_ingest_batch(32);
                drive(&mut p);
                p.control_trace()
            })
            .collect();
        assert!(!traces[0].is_empty(), "the scenario must commit knob moves");
        for (i, t) in traces.iter().enumerate().skip(1) {
            assert_eq!(
                &traces[0],
                t,
                "knob trajectory at {} writers diverged from 1 writer",
                [1, 2, 4, 8][i]
            );
        }
        // Events, archive and reports stay writer-count invariant with
        // the controller retuning live knobs mid-run.
        let mut one =
            MultiWriterPipeline::new(PipelineConfig::adaptive(bounds()), 1).with_ingest_batch(32);
        let mut eight =
            MultiWriterPipeline::new(PipelineConfig::adaptive(bounds()), 8).with_ingest_batch(32);
        let e1 = drive(&mut one);
        let e8 = drive(&mut eight);
        assert_eq!(e1, e8, "adaptive event streams must be writer-count invariant");
        assert_eq!(one.store().len(), eight.store().len());
        let (r1, r8) = (one.report(), eight.report());
        assert_eq!(r1.seal_sweeps, r8.seal_sweeps);
        assert_eq!(r1.control, r8.control);
        assert!(r1.control.is_some(), "adaptive run must record control status");
    }

    #[test]
    fn catch_up_publication_stamps_the_released_frontier() {
        let mut p =
            MultiWriterPipeline::new(PipelineConfig::regional(bounds()), 4).with_ingest_batch(16);
        for i in 0..120i64 {
            for v in 1..=4u32 {
                let pos = Position::new(42.5 + 0.2 * f64::from(v), 5.0 + 0.002 * i as f64);
                p.push_fix(Fix::new(v, Timestamp::from_mins(i), pos, 10.0, 90.0));
            }
        }
        // Handle created mid-stream: stamped at the released frontier,
        // where snapshot contents are complete.
        let service = p.query_service();
        let stamp = service.watermark();
        assert_eq!(stamp, p.released_frontier);
        let snap = service.snapshot();
        for v in 1..=4u32 {
            if let Some(traj) = snap.trajectory(v).value {
                assert!(traj.iter().all(|f| f.t <= stamp), "no future data behind the stamp");
            }
        }
        p.finish();
        assert!(service.watermark() > stamp, "finish publishes the final stamp");
    }
}
