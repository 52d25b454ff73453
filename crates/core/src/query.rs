//! The concurrent, snapshot-isolated serving layer.
//!
//! Everything before this module is the *write* path: one `&mut`
//! ingest loop owning the pipeline. This module is the *read* front:
//! a cloneable, thread-safe [`QueryService`] handle that any number of
//! threads can query **while ingest runs**, each answer computed
//! against a consistent, watermark-stamped [`SystemSnapshot`].
//!
//! ## Snapshot isolation
//!
//! The pipeline publishes a snapshot at every event-time tick boundary
//! `T`, containing exactly the accepted data with event time `≤ T`
//! (the `TickSchedule` discipline guarantees a boundary fires after
//! precisely that data). A snapshot is immutable plain data — archive
//! tiers via versioned [`mda_store::StoreSnapshot`] handles (unchanged
//! shards and all sealed segments are pointer-shared, not copied), the
//! route-network predictor behind an `Arc`, and the fleet gauges.
//! Readers grab the current `Arc<SystemSnapshot>` and compute; they
//! never take a lock the writer holds for longer than the pointer
//! swap, and a reader holding [`QueryService::snapshot`] keeps one
//! consistent view across as many queries as it likes.
//!
//! Published watermarks are monotone, so every reader observes a
//! non-decreasing sequence of stamps, and because snapshot contents
//! are a pure function of the event-time stream up to the stamp, a
//! concurrent reader's answer at watermark `W` equals a
//! single-threaded oracle's answer at `W` — `tests/query_consistency.rs`
//! holds the service to both properties.
//!
//! ## Query vocabulary
//!
//! - point lookups: [`QueryService::latest`],
//!   [`QueryService::position_at`], [`QueryService::trajectory`]
//! - scans: [`QueryService::window`], [`QueryService::knn`] — merged
//!   across hot/cold tiers exactly like the live store
//! - fleet state: [`QueryService::fleet`]
//! - event subscriptions: [`QueryService::poll_since`] cursors over a
//!   bounded [`EventRing`]
//! - **predictive** queries routed through `mda-forecast`:
//!   [`QueryService::where_at`] (dead-reckoning / route-network) and
//!   [`QueryService::eta`]

use mda_events::ring::{EventCursor, EventFilter, EventPoll, EventRing, FilteredEventPoll};
use mda_forecast::eta::{estimate, EtaEstimate};
use mda_forecast::{DeadReckoningPredictor, Predictor, RouteNetPredictor};
use mda_geo::{BoundingBox, Fix, Position, Timestamp, VesselId};
use mda_store::snapshot::StoreSnapshot;
use mda_store::{KnnResult, TierStats};
use parking_lot::RwLock;
use std::sync::Arc;

/// Default arrival radius of [`QueryService::eta`] walks, metres.
const ETA_ARRIVAL_RADIUS_M: f64 = 2_000.0;
/// Default step budget of [`QueryService::eta`] network walks (minutes
/// of simulated sailing).
const ETA_MAX_STEPS: usize = 720;

/// An answer stamped with the watermark of the snapshot that produced
/// it. Stamps are monotone per reader; two answers with equal stamps
/// came from the same consistent system state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamped<T> {
    /// Event-time watermark of the producing snapshot.
    pub watermark: Timestamp,
    /// The answer.
    pub value: T,
}

/// A predicted position and the predictor that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedPosition {
    /// The (possibly interpolated or extrapolated) position.
    pub pos: Position,
    /// Which path answered: `"archive"` (instant within recorded
    /// history), `"route-network"` or `"dead-reckoning"`.
    pub predictor: &'static str,
}

/// Live-fleet gauges of one snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetSummary {
    /// Vessels currently tracked live by the event engine (TTL-bounded).
    pub live_vessels: u64,
    /// Distinct vessels with archived history (across tiers).
    pub archived_vessels: usize,
    /// Archived fixes across tiers.
    pub archived_fixes: usize,
    /// Per-tier archive accounting.
    pub tiers: TierStats,
    /// Events recognised so far.
    pub events_emitted: u64,
}

/// One immutable, consistent view of the whole system at a watermark.
///
/// Obtained from [`QueryService::snapshot`]; every query method on the
/// service delegates here, so a reader that needs multiple answers
/// from *one* consistent state pins the snapshot once and asks it
/// directly.
#[derive(Debug, Clone)]
pub struct SystemSnapshot {
    watermark: Timestamp,
    store: StoreSnapshot,
    route: Arc<RouteNetPredictor>,
    live_vessels: u64,
    events_emitted: u64,
    /// Computed on first [`SystemSnapshot::fleet`] call: the archive
    /// gauges walk every shard's vessel sets, and the publishing write
    /// path must not pay that per tick for readers that never ask.
    fleet: std::sync::OnceLock<FleetSummary>,
}

impl SystemSnapshot {
    pub(crate) fn new(
        watermark: Timestamp,
        store: StoreSnapshot,
        route: Arc<RouteNetPredictor>,
        live_vessels: u64,
        events_emitted: u64,
    ) -> Self {
        Self {
            watermark,
            store,
            route,
            live_vessels,
            events_emitted,
            fleet: std::sync::OnceLock::new(),
        }
    }

    /// The event-time watermark this snapshot is consistent at.
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// The archive view (both tiers) frozen at the watermark.
    pub fn store(&self) -> &StoreSnapshot {
        &self.store
    }

    /// The route-network predictor published with this snapshot (flow
    /// statistics may be up to `predictor_refresh_ticks` ticks older
    /// than the watermark; see
    /// [`QueryConfig`](crate::config::QueryConfig)).
    pub fn route_predictor(&self) -> &RouteNetPredictor {
        &self.route
    }

    /// Live-fleet gauges at the watermark (the archive-wide counts are
    /// computed on the first call and cached in the snapshot).
    pub fn fleet(&self) -> FleetSummary {
        *self.fleet.get_or_init(|| FleetSummary {
            live_vessels: self.live_vessels,
            archived_vessels: self.store.vessel_count(),
            archived_fixes: self.store.len(),
            tiers: self.store.tier_stats(),
            events_emitted: self.events_emitted,
        })
    }

    fn stamp<T>(&self, value: T) -> Stamped<T> {
        Stamped { watermark: self.watermark, value }
    }

    /// The freshest archived fix of a vessel.
    pub fn latest(&self, id: VesselId) -> Stamped<Option<Fix>> {
        self.stamp(self.store.latest(id))
    }

    /// Interpolated archived position at `t` (clamped at trajectory
    /// ends); `None` for unknown vessels.
    pub fn position_at(&self, id: VesselId, t: Timestamp) -> Stamped<Option<Position>> {
        self.stamp(self.store.position_at(id, t))
    }

    /// A vessel's full archived trajectory, merged across tiers.
    pub fn trajectory(&self, id: VesselId) -> Stamped<Option<Vec<Fix>>> {
        self.stamp(self.store.trajectory(id))
    }

    /// All archived fixes in the spatio-temporal window, in the
    /// canonical (vessel, time) order.
    pub fn window(&self, area: &BoundingBox, from: Timestamp, to: Timestamp) -> Stamped<Vec<Fix>> {
        self.stamp(self.store.window(area, from, to))
    }

    /// k nearest vessels to `query` at `t`, dead-reckoned from each
    /// vessel's freshest archived fix, ranked (distance, id).
    pub fn knn(&self, query: Position, t: Timestamp, k: usize) -> Stamped<Vec<KnnResult>> {
        self.stamp(self.store.knn(query, t, k))
    }

    /// Where is (or will be) vessel `id` at `t`?
    ///
    /// Instants at or before the watermark interpolate recorded
    /// history (`"archive"`). Future instants are *predictive*: the
    /// vessel's archived trajectory is extrapolated through the
    /// published route-network predictor when it has learned flow
    /// (`"route-network"` — follows lane turns), falling back to plain
    /// dead reckoning otherwise (`"dead-reckoning"`).
    pub fn where_at(&self, id: VesselId, t: Timestamp) -> Stamped<Option<PredictedPosition>> {
        if t <= self.watermark {
            let pos = self.store.position_at(id, t);
            return self.stamp(pos.map(|pos| PredictedPosition { pos, predictor: "archive" }));
        }
        // Both predictors extrapolate from the freshest fix, so the
        // history handed to them is exactly that — an O(1) cross-tier
        // lookup, not a full trajectory decode.
        let Some(last) = self.store.latest(id) else { return self.stamp(None) };
        let history = std::slice::from_ref(&last);
        let value = if self.route.network.cell_count() > 0 {
            self.route
                .predict(history, t)
                .map(|pos| PredictedPosition { pos, predictor: self.route.name() })
        } else {
            DeadReckoningPredictor
                .predict(history, t)
                .map(|pos| PredictedPosition { pos, predictor: DeadReckoningPredictor.name() })
        };
        self.stamp(value)
    }

    /// Estimated time of arrival of vessel `id` at `dest`, from its
    /// freshest archived fix: the straight-line bound plus the
    /// flow-aware walk along the published route network.
    pub fn eta(&self, id: VesselId, dest: Position) -> Stamped<Option<EtaEstimate>> {
        let value = self.store.latest(id).map(|fix| {
            estimate(&fix, dest, &self.route.network, ETA_ARRIVAL_RADIUS_M, ETA_MAX_STEPS)
        });
        self.stamp(value)
    }
}

/// Shared state between the publishing pipeline and every service
/// handle.
pub(crate) struct QueryShared {
    published: RwLock<Arc<SystemSnapshot>>,
    ring: RwLock<EventRing>,
}

impl QueryShared {
    pub(crate) fn new(event_capacity: usize, initial: SystemSnapshot) -> Self {
        Self {
            published: RwLock::new(Arc::new(initial)),
            ring: RwLock::new(EventRing::new(event_capacity)),
        }
    }

    /// Swap in a newer snapshot (writer side; the lock is held for the
    /// duration of one pointer store).
    pub(crate) fn publish(&self, snapshot: SystemSnapshot) {
        *self.published.write() = Arc::new(snapshot);
    }

    /// Append finalised events to the ring (writer side).
    pub(crate) fn append_events(&self, events: &[mda_events::MaritimeEvent]) {
        if !events.is_empty() {
            self.ring.write().extend(events.iter().cloned());
        }
    }

    /// Resize the event-ring retention (writer side; the adaptive
    /// controller's capacity knob). A no-op when the capacity is
    /// unchanged, so steady-state commits never touch the ring lock.
    pub(crate) fn set_event_capacity(&self, capacity: usize) {
        let mut ring = self.ring.write();
        if ring.capacity() != capacity.max(1) {
            ring.set_capacity(capacity);
        }
    }
}

/// A cloneable, thread-safe read front-end over a running pipeline.
///
/// Obtain one with
/// [`query_service`](crate::multi::MultiWriterPipeline::query_service),
/// clone it into as many reader threads as you like, and keep querying
/// while the pipeline ingests on its own thread. Every answer is
/// [`Stamped`] with the watermark of the consistent snapshot that
/// produced it.
///
/// ```
/// use mda_core::{MaritimePipeline, PipelineConfig};
/// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
///
/// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
/// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
/// let service = pipeline.query_service(); // cloneable, Send + Sync
/// for i in 0..60i64 {
///     let pos = Position::new(43.0, 5.0 + 0.002 * i as f64);
///     pipeline.push_fix(Fix::new(1, Timestamp::from_mins(i), pos, 10.0, 90.0));
/// }
/// pipeline.finish();
/// let latest = service.latest(1);
/// assert!(latest.value.is_some());
/// assert_eq!(latest.watermark, service.watermark());
/// ```
#[derive(Clone)]
pub struct QueryService {
    shared: Arc<QueryShared>,
}

impl QueryService {
    pub(crate) fn new(shared: Arc<QueryShared>) -> Self {
        Self { shared }
    }

    /// Pin the current consistent snapshot. Use this directly when one
    /// reader needs several answers from the *same* system state; the
    /// per-query methods below re-fetch the latest snapshot each call.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// for i in 0..50i64 {
    ///     let pos = Position::new(43.0, 5.0 + 0.002 * i as f64);
    ///     pipeline.push_fix(Fix::new(7, Timestamp::from_mins(i), pos, 10.0, 90.0));
    /// }
    /// pipeline.finish();
    /// let snap = service.snapshot();
    /// // Several queries, one consistent state:
    /// assert_eq!(snap.fleet().archived_fixes, snap.store().len());
    /// assert_eq!(snap.latest(7).watermark, snap.watermark());
    /// ```
    pub fn snapshot(&self) -> Arc<SystemSnapshot> {
        Arc::clone(&self.shared.published.read())
    }

    /// The watermark of the currently published snapshot (monotone per
    /// service).
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// // Nothing ingested yet: the initial snapshot sits at MIN.
    /// assert_eq!(service.watermark(), Timestamp::MIN);
    /// ```
    pub fn watermark(&self) -> Timestamp {
        self.shared.published.read().watermark()
    }

    /// The freshest archived fix of a vessel.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// for i in 0..60i64 {
    ///     let pos = Position::new(43.0, 5.0 + 0.002 * i as f64);
    ///     pipeline.push_fix(Fix::new(9, Timestamp::from_mins(i), pos, 10.0, 90.0));
    /// }
    /// pipeline.finish();
    /// let fix = service.latest(9).value.expect("vessel 9 is archived");
    /// assert_eq!(fix.id, 9);
    /// assert!(service.latest(999).value.is_none());
    /// ```
    pub fn latest(&self, id: VesselId) -> Stamped<Option<Fix>> {
        self.snapshot().latest(id)
    }

    /// Interpolated archived position of a vessel at `t`.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// for i in 0..60i64 {
    ///     let pos = Position::new(43.0, 5.0 + 0.01 * i as f64);
    ///     pipeline.push_fix(Fix::new(3, Timestamp::from_mins(i), pos, 10.0, 90.0));
    /// }
    /// pipeline.finish();
    /// let p = service.position_at(3, Timestamp::from_secs(90)).value.unwrap();
    /// assert!(p.lon > 5.0 && p.lon < 5.02, "interpolated between fixes");
    /// ```
    pub fn position_at(&self, id: VesselId, t: Timestamp) -> Stamped<Option<Position>> {
        self.snapshot().position_at(id, t)
    }

    /// A vessel's full archived trajectory, merged across hot and cold
    /// tiers.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// for i in 0..90i64 {
    ///     let pos = Position::new(43.0, 5.0 + 0.002 * i as f64);
    ///     pipeline.push_fix(Fix::new(4, Timestamp::from_mins(i), pos, 10.0, 90.0));
    /// }
    /// pipeline.finish();
    /// let traj = service.trajectory(4).value.unwrap();
    /// assert!(traj.windows(2).all(|w| w[0].t <= w[1].t), "time-ordered");
    /// ```
    pub fn trajectory(&self, id: VesselId) -> Stamped<Option<Vec<Fix>>> {
        self.snapshot().trajectory(id)
    }

    /// All archived fixes inside a spatial window and time range,
    /// merged across tiers in the canonical (vessel, time) order.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// for i in 0..60i64 {
    ///     let pos = Position::new(43.0, 5.0 + 0.01 * i as f64);
    ///     pipeline.push_fix(Fix::new(5, Timestamp::from_mins(i), pos, 10.0, 90.0));
    /// }
    /// pipeline.finish();
    /// let west = BoundingBox::new(42.5, 4.9, 43.5, 5.2);
    /// let hits = service.window(&west, Timestamp::from_mins(0), Timestamp::from_mins(60));
    /// assert!(!hits.value.is_empty());
    /// assert!(hits.value.iter().all(|f| f.pos.lon <= 5.2));
    /// ```
    pub fn window(&self, area: &BoundingBox, from: Timestamp, to: Timestamp) -> Stamped<Vec<Fix>> {
        self.snapshot().window(area, from, to)
    }

    /// k nearest vessels to `query` at `t` (dead-reckoned from each
    /// vessel's freshest archived fix; ranked by distance, then id).
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// for v in 1..=5u32 {
    ///     for i in 0..60i64 {
    ///         let pos = Position::new(42.5 + 0.2 * f64::from(v), 5.0);
    ///         pipeline.push_fix(Fix::new(v, Timestamp::from_mins(i), pos, 0.0, 0.0));
    ///     }
    /// }
    /// pipeline.finish();
    /// let wm = service.watermark();
    /// let near = service.knn(Position::new(42.7, 5.0), wm, 2).value;
    /// assert_eq!(near.len(), 2);
    /// assert_eq!(near[0].id, 1, "vessel 1 sits at 42.7");
    /// ```
    pub fn knn(&self, query: Position, t: Timestamp, k: usize) -> Stamped<Vec<KnnResult>> {
        self.snapshot().knn(query, t, k)
    }

    /// Where is (or will be) vessel `id` at `t`? Past instants answer
    /// from recorded history; future instants route through the
    /// forecast layer (route network when it has learned flow, dead
    /// reckoning otherwise). See [`SystemSnapshot::where_at`].
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::time::MINUTE;
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// for i in 0..120i64 {
    ///     let pos = Position::new(43.0, 5.0 + 0.002 * i as f64);
    ///     pipeline.push_fix(Fix::new(6, Timestamp::from_mins(i), pos, 8.0, 90.0));
    /// }
    /// pipeline.finish();
    /// let wm = service.watermark();
    /// // A past instant reads the archive...
    /// let past = service.where_at(6, Timestamp::from_mins(30)).value.unwrap();
    /// assert_eq!(past.predictor, "archive");
    /// // ...a future instant predicts beyond it (eastbound course).
    /// let future = service.where_at(6, wm + 30 * MINUTE).value.unwrap();
    /// assert_ne!(future.predictor, "archive");
    /// let now = service.where_at(6, wm).value.unwrap();
    /// assert!(future.pos.lon > now.pos.lon, "keeps heading east");
    /// ```
    pub fn where_at(&self, id: VesselId, t: Timestamp) -> Stamped<Option<PredictedPosition>> {
        self.snapshot().where_at(id, t)
    }

    /// Estimated time of arrival of vessel `id` at `dest` — the
    /// straight-line bound plus the flow-aware route-network walk.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// for i in 0..60i64 {
    ///     let pos = Position::new(43.0, 5.0 + 0.002 * i as f64);
    ///     pipeline.push_fix(Fix::new(8, Timestamp::from_mins(i), pos, 12.0, 90.0));
    /// }
    /// pipeline.finish();
    /// let eta = service.eta(8, Position::new(43.0, 5.4)).value.unwrap();
    /// assert!(eta.direct.is_some(), "12 kn underway: a direct ETA exists");
    /// assert!(eta.best().unwrap() > 0);
    /// ```
    pub fn eta(&self, id: VesselId, dest: Position) -> Stamped<Option<EtaEstimate>> {
        self.snapshot().eta(id, dest)
    }

    /// Live-fleet summary of the current snapshot.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// for i in 0..60i64 {
    ///     let pos = Position::new(43.0, 5.0 + 0.002 * i as f64);
    ///     pipeline.push_fix(Fix::new(2, Timestamp::from_mins(i), pos, 10.0, 90.0));
    /// }
    /// pipeline.finish();
    /// let fleet = service.fleet().value;
    /// assert_eq!(fleet.archived_vessels, 1);
    /// assert!(fleet.archived_fixes > 0);
    /// ```
    pub fn fleet(&self) -> Stamped<FleetSummary> {
        let snap = self.snapshot();
        Stamped { watermark: snap.watermark(), value: snap.fleet() }
    }

    /// Everything recognised since `cursor` (oldest first), the cursor
    /// to resume from, and how many events aged out of retention
    /// unseen. Start from `EventCursor::default()` for the oldest
    /// retained history or [`QueryService::live_cursor`] to follow only
    /// new events.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_events::ring::EventCursor;
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// // One fix, then hours of silence: the gap detector must fire.
    /// pipeline.push_fix(Fix::new(1, Timestamp::from_mins(0), Position::new(43.0, 5.0), 10.0, 90.0));
    /// pipeline.push_fix(Fix::new(2, Timestamp::from_mins(180), Position::new(43.5, 5.5), 10.0, 90.0));
    /// pipeline.finish();
    /// let poll = service.poll_since(EventCursor::default());
    /// assert!(poll.events.iter().any(|e| e.vessel == 1), "gap events for the silent vessel");
    /// // Incremental: nothing new since the returned cursor.
    /// assert!(service.poll_since(poll.cursor).events.is_empty());
    /// ```
    pub fn poll_since(&self, cursor: EventCursor) -> EventPoll {
        // Pointer-clone under the lock, deep-copy outside it: even a
        // cold-start consumer replaying the whole retention blocks the
        // ingest thread's appends only for O(returned) `Arc` bumps.
        let shared = self.shared.ring.read().poll_shared(cursor);
        shared.materialize()
    }

    /// Filter-pushdown variant of [`QueryService::poll_since`]: only
    /// events matching `filter` are returned (with their ring sequence
    /// numbers), and the loss counters are split — `missed` counts
    /// events that aged out of retention unseen (match unknowable),
    /// `filtered` counts events examined and excluded by the filter.
    /// This is what a serving front's subscription sessions run on.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_events::ring::{EventCursor, EventFilter};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// // Two vessels go silent for hours: gap events for both.
    /// pipeline.push_fix(Fix::new(1, Timestamp::from_mins(0), Position::new(43.0, 5.0), 10.0, 90.0));
    /// pipeline.push_fix(Fix::new(2, Timestamp::from_mins(1), Position::new(43.2, 5.2), 10.0, 90.0));
    /// pipeline.push_fix(Fix::new(3, Timestamp::from_mins(240), Position::new(43.5, 5.5), 10.0, 90.0));
    /// pipeline.finish();
    /// let filter = EventFilter::for_vessels([1]);
    /// let poll = service.poll_filtered(EventCursor::default(), &filter);
    /// assert!(poll.events.iter().all(|(_, e)| e.vessel == 1));
    /// assert!(poll.filtered > 0, "vessel 2's events were examined and excluded");
    /// assert_eq!(poll.missed, 0, "nothing aged out of the default ring");
    /// ```
    pub fn poll_filtered(&self, cursor: EventCursor, filter: &EventFilter) -> FilteredEventPoll {
        let shared = self.shared.ring.read().poll_shared_filtered(cursor, Some(filter));
        shared.materialize()
    }

    /// Run `f` against the live event ring under its read lock — the
    /// bulk-pump entry point for a serving front that must poll many
    /// subscription cursors in one lock acquisition. Keep `f` cheap
    /// (pointer clones, not deep copies): the ingest thread's event
    /// appends wait while it runs.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::BoundingBox;
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// let total = service.with_event_ring(|ring| ring.total_appended());
    /// assert_eq!(total, 0);
    /// ```
    pub fn with_event_ring<R>(&self, f: impl FnOnce(&EventRing) -> R) -> R {
        let ring = self.shared.ring.read();
        f(&ring)
    }

    /// The cursor a new consumer should start from to skip retained
    /// history and follow only events recognised after this call.
    ///
    /// ```
    /// use mda_core::{MaritimePipeline, PipelineConfig};
    /// use mda_geo::{BoundingBox, Fix, Position, Timestamp};
    ///
    /// let bounds = BoundingBox::new(42.0, 3.0, 44.0, 6.0);
    /// let mut pipeline = MaritimePipeline::new(PipelineConfig::regional(bounds));
    /// let service = pipeline.query_service();
    /// let live = service.live_cursor();
    /// assert!(service.poll_since(live).events.is_empty(), "nothing has happened yet");
    /// ```
    pub fn live_cursor(&self) -> EventCursor {
        self.shared.ring.read().live_cursor()
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("QueryService")
            .field("watermark", &snap.watermark())
            .field("archived_fixes", &snap.fleet().archived_fixes)
            .finish()
    }
}
