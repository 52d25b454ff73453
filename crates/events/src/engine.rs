//! The sharded, watermark-driven event engine.
//!
//! Detector state is split two ways:
//!
//! - **Per-vessel state** (gap, veracity, loiter, zone) lives in
//!   vessel-hash shards routed by [`mda_geo::vessel_shard`] — the same
//!   function the sharded trajectory store uses, so engine shard *i*
//!   and store shard *i* own the same vessels whenever their shard
//!   counts match. [`EventEngine::observe_batch`] canonicalises a batch
//!   to `(t, vessel)` order, dispatches it shard-affine (one run per
//!   shard under one borrow) and merges emission with a stable
//!   `(t, vessel, kind)` sort, so the emitted events are independent of
//!   both arrival order (within the upstream watermark delay) and the
//!   shard count.
//! - **Pairwise state** (rendezvous, collision) is driven off the
//!   versioned per-shard [`LiveIndex`] grid by watermark sweeps in
//!   [`EventEngine::tick`]: each shard walks its own live vessels
//!   against a read-only fleet-wide [`FleetIndex`] view, and a pair is
//!   owned by the shard of its smaller vessel id.
//!
//! [`EventEngine::tick`] is also the **eviction** path: vessels silent
//! past [`EngineConfig::vessel_ttl`] are dropped from the live index,
//! the gap/veracity/loiter/zone maps and all pair state, so detector
//! memory on a long-running stream is bounded by the live fleet — not
//! by every vessel ever seen. The engine reports evictions through
//! [`EventEngine::take_evicted`] so upstream stages (e.g. the
//! pipeline's per-vessel compressors) can drop their state too.

use crate::event::MaritimeEvent;
use crate::gap::GapDetector;
use crate::loiter::{LoiterConfig, LoiterDetector};
use crate::proximity::{
    CollisionConfig, CollisionDetector, FleetIndex, LiveIndex, RendezvousConfig, RendezvousDetector,
};
use crate::veracity::{VeracityConfig, VeracityDetector};
use crate::zone::{NamedZone, ZoneDetector};
use mda_geo::{vessel_shard, DurationMs, Fix, Timestamp, VesselId};
use mda_stream::runner::partition_by_shard;
use std::collections::{HashMap, HashSet};

/// Batches at least this large run their shard dispatch on scoped
/// threads (one per non-empty shard); smaller batches stay inline —
/// the result is identical either way.
const PAR_BATCH_MIN: usize = 1_024;
/// Pairwise sweeps go parallel when the live fleet is at least this
/// large.
const PAR_SWEEP_MIN: usize = 512;

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// AIS silence threshold for gap detection.
    pub gap_threshold: DurationMs,
    /// Veracity detector tuning.
    pub veracity: VeracityConfig,
    /// Loiter detector tuning.
    pub loiter: LoiterConfig,
    /// Rendezvous detector tuning.
    pub rendezvous: RendezvousConfig,
    /// Collision detector tuning.
    pub collision: CollisionConfig,
    /// Zones to watch.
    pub zones: Vec<NamedZone>,
    /// Detector shards. Per-vessel state is partitioned by
    /// [`mda_geo::vessel_shard`]; match the trajectory store's shard
    /// count to align the two layers. Emission is shard-count
    /// invariant, so this is purely a throughput/parallelism knob.
    pub shards: usize,
    /// Detector-state time-to-live: a vessel silent for longer than
    /// this (of event time, measured at [`EventEngine::tick`]) is
    /// evicted from every detector map and the live index. Effective
    /// eviction happens at `max(vessel_ttl, gap_threshold)` — a vessel
    /// must first be swept silent before it can idle out. Evicted
    /// vessels that resurface are treated as new (no gap edges across
    /// the eviction). Use `DurationMs::MAX` to disable eviction.
    pub vessel_ttl: DurationMs,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            gap_threshold: 15 * mda_geo::time::MINUTE,
            veracity: VeracityConfig::default(),
            loiter: LoiterConfig::default(),
            rendezvous: RendezvousConfig::default(),
            collision: CollisionConfig::default(),
            zones: Vec::new(),
            shards: 1,
            vessel_ttl: 2 * mda_geo::time::HOUR,
        }
    }
}

/// Sort a batch of fixes into the engine's canonical total order.
///
/// The order is over fix *content*, not just `(t, id)`: two fixes of
/// one vessel with the same timestamp but different payloads (cloned
/// identities, dual-receiver feeds) must still sort the same way under
/// any arrival order, or the duplicate pair would be the one place
/// processing depends on arrival. Bit patterns give a cheap
/// arbitrary-but-fixed tiebreak. The sort is stable, so equal keys
/// (true duplicates) keep arrival order.
///
/// Exposed so every consumer of watermark-released batches — the
/// engine itself, writer lanes, the pipeline's synopsis loop — agrees
/// on one canonical processing order.
pub fn canonical_sort(fixes: &mut [Fix]) {
    fixes.sort_by_key(|f| {
        (
            f.t,
            f.id,
            f.pos.lat.to_bits(),
            f.pos.lon.to_bits(),
            f.sog_kn.to_bits(),
            f.cog_deg.to_bits(),
        )
    });
}

/// One detector shard: the per-vessel detectors for the vessels hashing
/// here, plus the pairwise state owned by this shard (pairs whose
/// smaller id lives here).
struct DetectorShard {
    gap: GapDetector,
    veracity: VeracityDetector,
    loiter: LoiterDetector,
    zones: ZoneDetector,
    rendezvous: RendezvousDetector,
    collision: CollisionDetector,
}

impl DetectorShard {
    fn new(config: &EngineConfig) -> Self {
        Self {
            gap: GapDetector::new(config.gap_threshold),
            veracity: VeracityDetector::new(config.veracity),
            loiter: LoiterDetector::new(config.loiter),
            zones: ZoneDetector::new(config.zones.clone()),
            rendezvous: RendezvousDetector::new(config.rendezvous.clone()),
            collision: CollisionDetector::new(config.collision),
        }
    }

    /// Per-vessel detector run over this shard's slice of a canonical
    /// batch (one borrow for the whole run).
    fn run(&mut self, index: &mut LiveIndex, fixes: &[Fix]) -> Vec<MaritimeEvent> {
        let mut out = Vec::new();
        for fix in fixes {
            index.update(fix);
            out.extend(self.gap.observe(fix));
            out.extend(self.veracity.observe(fix));
            out.extend(self.loiter.observe(fix));
            out.extend(self.zones.observe(fix));
        }
        out
    }

    /// Pairwise (rendezvous/collision) sweep of this shard's vessels
    /// against the fleet-wide view.
    fn sweep_pairs(
        &mut self,
        wm: Timestamp,
        own: &LiveIndex,
        fleet: &FleetIndex,
    ) -> Vec<MaritimeEvent> {
        let order = own.vessels_sorted();
        let mut out = self.rendezvous.sweep(wm, &order, own, fleet);
        out.extend(self.collision.sweep(wm, &order, own, fleet));
        out
    }

    /// Dark-vessel check plus TTL eviction for this shard: returns the
    /// gap events and the ids evicted from this shard's per-vessel
    /// state and index. Pair state is *not* touched here — pairs may
    /// reference partners in other shards, so pair eviction fans the
    /// union of evicted ids out via [`DetectorShard::evict_pairs`].
    fn check_silent_and_evict(
        &mut self,
        index: &mut LiveIndex,
        wm: Timestamp,
        cut: Timestamp,
    ) -> (Vec<MaritimeEvent>, Vec<VesselId>) {
        let events = self.gap.check_silent(wm);
        let gone = self.gap.evict_idle(cut);
        if !gone.is_empty() {
            // Zone state is keyed (vessel, zone): evict all ids in one
            // retain pass. The per-vessel maps are O(1) removals.
            // lint:allow(deterministic-iteration): `gone` is a Vec in
            // eviction order; the collected set is order-free.
            let gone_set: HashSet<VesselId> = gone.iter().copied().collect();
            self.zones.evict(&gone_set);
            // lint:allow(deterministic-iteration): per-id evictions
            // commute; no emission happens in this loop.
            for &id in &gone {
                self.veracity.evict(id);
                self.loiter.evict(id);
                index.remove(id);
            }
        }
        (events, gone)
    }

    /// Drop pair state referencing any vessel in `gone` (the fan-out
    /// step of eviction).
    fn evict_pairs(&mut self, gone: &HashSet<VesselId>) {
        self.rendezvous.evict(gone);
        self.collision.evict(gone);
    }

    /// Accumulate this shard's resident-state counters into `s`.
    fn accumulate_stats(&self, s: &mut EngineStateStats) {
        s.gap_tracked += self.gap.known_vessels();
        s.gap_heap += self.gap.heap_len();
        s.veracity_identities += self.veracity.known_identities();
        s.loiter_points += self.loiter.buffered_points();
        s.zone_visits += self.zones.open_visits();
        s.rendezvous_pairs += self.rendezvous.open_pairs();
        s.collision_pairs += self.collision.armed_pairs();
    }
}

/// Resident detector state, summed across shards — the numbers the TTL
/// eviction keeps bounded on a long-running stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStateStats {
    /// Vessels in the live latest-fix index.
    pub live_vessels: usize,
    /// Vessels tracked by the gap detector.
    pub gap_tracked: usize,
    /// Lazy heap entries buffered by the gap detectors.
    pub gap_heap: usize,
    /// Identities tracked by the veracity detector.
    pub veracity_identities: usize,
    /// Fixes buffered in loiter sliding windows.
    pub loiter_points: usize,
    /// Open (vessel, zone) visits.
    pub zone_visits: usize,
    /// Open rendezvous candidate pairs.
    pub rendezvous_pairs: usize,
    /// Collision pairs inside their re-arm window.
    pub collision_pairs: usize,
}

impl EngineStateStats {
    /// Coarse total of resident entries (for bounded-state checks).
    pub fn resident_entries(&self) -> usize {
        self.live_vessels
            + self.gap_tracked
            + self.gap_heap
            + self.veracity_identities
            + self.loiter_points
            + self.zone_visits
            + self.rendezvous_pairs
            + self.collision_pairs
    }
}

/// The streaming maritime event engine (sharded, watermark-driven).
///
/// Feed event-time-ordered fixes — singly via [`EventEngine::observe`]
/// or, preferably, in watermark-released batches via
/// [`EventEngine::observe_batch`] — and drive
/// [`EventEngine::tick`] with aligned event-time watermarks for the
/// dark-vessel sweep, the pairwise (rendezvous/collision) sweeps and
/// TTL eviction.
pub struct EventEngine {
    shards: Vec<DetectorShard>,
    indexes: Vec<LiveIndex>,
    vessel_ttl: DurationMs,
    counts: HashMap<&'static str, u64>,
    fixes_seen: u64,
    evicted: Vec<VesselId>,
}

impl EventEngine {
    /// Build an engine from configuration (`config.shards` is clamped
    /// to at least 1).
    pub fn new(config: EngineConfig) -> Self {
        let n = config.shards.max(1);
        Self {
            shards: (0..n).map(|_| DetectorShard::new(&config)).collect(),
            indexes: (0..n).map(|_| LiveIndex::new()).collect(),
            vessel_ttl: config.vessel_ttl,
            counts: HashMap::new(),
            fixes_seen: 0,
            evicted: Vec::new(),
        }
    }

    /// Observe one fix through the per-vessel detectors.
    ///
    /// Equivalent to a one-element [`EventEngine::observe_batch`]. Note
    /// that rendezvous/collision events are *not* produced here — the
    /// pairwise detectors are watermark-swept by [`EventEngine::tick`].
    pub fn observe(&mut self, fix: &Fix) -> Vec<MaritimeEvent> {
        self.observe_batch(std::slice::from_ref(fix))
    }

    /// Observe a watermark-released batch of fixes through the
    /// per-vessel detectors, one shard run per borrow.
    ///
    /// The batch is first canonicalised to `(t, vessel)` order (stable,
    /// so equal keys keep arrival order), then dispatched shard-affine.
    /// Because per-vessel detectors only consume their own vessel's
    /// subsequence — which canonicalisation makes a pure function of
    /// the batch *content* — the returned events are identical for any
    /// arrival shuffle the upstream reorder stage tolerates, and for
    /// any shard count. Emission is merged with a stable
    /// `(t, vessel, kind)` sort ([`MaritimeEvent::sort_key`]).
    ///
    /// Large batches (≥ ~1k fixes) on a multi-shard engine run their
    /// shard dispatch on scoped threads.
    pub fn observe_batch(&mut self, batch: &[Fix]) -> Vec<MaritimeEvent> {
        if batch.is_empty() {
            return Vec::new();
        }
        self.fixes_seen += batch.len() as u64;
        let mut fixes = batch.to_vec();
        canonical_sort(&mut fixes);
        let n = self.shards.len();
        let per_shard = partition_by_shard(fixes, n, |f| vessel_shard(f.id, n));
        let lanes = self
            .shards
            .iter_mut()
            .zip(self.indexes.iter_mut())
            .zip(per_shard)
            .map(|((shard, index), fixes)| (shard, index, fixes));
        let mut events: Vec<MaritimeEvent> = if n > 1 && batch.len() >= PAR_BATCH_MIN {
            std::thread::scope(|scope| {
                let handles: Vec<_> = lanes
                    .filter(|(_, _, fixes)| !fixes.is_empty())
                    .map(|(shard, index, fixes)| scope.spawn(move || shard.run(index, &fixes)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("detector shard panicked"))
                    .collect()
            })
        } else {
            lanes.flat_map(|(shard, index, fixes)| shard.run(index, &fixes)).collect()
        };
        events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        self.tally(&events);
        events
    }

    /// Watermark-driven sweep at event time `wm`: per shard, run the
    /// pairwise (rendezvous/collision) sweeps against the fleet index,
    /// the heap-driven dark-vessel check, and TTL eviction.
    ///
    /// Call with *aligned*, monotone watermarks (e.g. every minute of
    /// event time) so the sweep times — and therefore the emitted
    /// events — are a pure function of the event-time stream. Evicted
    /// vessel ids accumulate until [`EventEngine::take_evicted`].
    pub fn tick(&mut self, wm: Timestamp) -> Vec<MaritimeEvent> {
        let mut events = self.pairwise_sweeps(wm);
        // Dark-vessel sweep + TTL eviction, shard-local.
        let cut = Timestamp(wm.millis().saturating_sub(self.vessel_ttl));
        let mut gone_all: Vec<VesselId> = Vec::new();
        for (shard, index) in self.shards.iter_mut().zip(self.indexes.iter_mut()) {
            let (shard_events, gone) = shard.check_silent_and_evict(index, wm, cut);
            events.extend(shard_events);
            gone_all.extend(gone);
        }
        // Pair state may reference an evicted partner from *another*
        // shard, so pair eviction fans the full id set out to every
        // shard.
        if !gone_all.is_empty() {
            let gone_set: HashSet<VesselId> = gone_all.iter().copied().collect();
            for shard in &mut self.shards {
                shard.evict_pairs(&gone_set);
            }
            gone_all.sort_unstable();
            self.evicted.extend(gone_all);
        }
        events.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        self.tally(&events);
        events
    }

    fn pairwise_sweeps(&mut self, wm: Timestamp) -> Vec<MaritimeEvent> {
        let EventEngine { ref mut shards, ref indexes, .. } = *self;
        // One merged snapshot per tick: queries probe a single cell
        // grid however many shards fed it, so sweep cost does not grow
        // with the shard count.
        let fleet = FleetIndex::snapshot(indexes);
        if shards.len() > 1 && fleet.len() >= PAR_SWEEP_MIN {
            std::thread::scope(|scope| {
                let fleet = &fleet;
                let handles: Vec<_> = shards
                    .iter_mut()
                    .enumerate()
                    .map(|(s, shard)| {
                        let own = &indexes[s];
                        scope.spawn(move || shard.sweep_pairs(wm, own, fleet))
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().expect("sweep shard panicked")).collect()
            })
        } else {
            let mut out = Vec::new();
            for (s, shard) in shards.iter_mut().enumerate() {
                out.extend(shard.sweep_pairs(wm, &indexes[s], &fleet));
            }
            out
        }
    }

    /// Vessel ids evicted by TTL since the last call (sorted within
    /// each tick). Upstream per-vessel state (compressors, semantic
    /// term caches) should be dropped for these ids.
    pub fn take_evicted(&mut self) -> Vec<VesselId> {
        std::mem::take(&mut self.evicted)
    }

    /// Events emitted so far, by kind label.
    pub fn counts(&self) -> &HashMap<&'static str, u64> {
        &self.counts
    }

    /// Fixes processed.
    pub fn fixes_seen(&self) -> u64 {
        self.fixes_seen
    }

    /// Number of detector shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The live latest-fix picture (for the operator console): a
    /// merged snapshot of every shard's index, built in O(live
    /// vessels). For just the count, use
    /// [`EventEngine::live_vessel_count`].
    pub fn live_index(&self) -> FleetIndex {
        FleetIndex::snapshot(&self.indexes)
    }

    /// Vessels currently tracked in the live index, without building a
    /// snapshot (O(shards)).
    pub fn live_vessel_count(&self) -> usize {
        self.indexes.iter().map(LiveIndex::len).sum()
    }

    /// Resident detector state, summed across shards.
    pub fn state_stats(&self) -> EngineStateStats {
        let mut s = EngineStateStats {
            live_vessels: self.indexes.iter().map(LiveIndex::len).sum(),
            ..Default::default()
        };
        for shard in &self.shards {
            shard.accumulate_stats(&mut s);
        }
        s
    }

    fn tally(&mut self, events: &[MaritimeEvent]) {
        for e in events {
            *self.counts.entry(e.kind.label()).or_insert(0) += 1;
        }
    }
}

/// One owned shard slot inside an [`EngineLane`].
struct LaneSlot {
    /// Global shard index in `0..total_shards`.
    shard: usize,
    detectors: DetectorShard,
    index: LiveIndex,
}

/// A writer lane's slice of the sharded event engine.
///
/// Where [`EventEngine`] owns *every* detector shard, an `EngineLane`
/// owns exactly the shards `{s : s % lanes == lane}` out of the same
/// global shard space — the ownership convention of
/// [`mda_stream::runner::run_shard_affine_indexed`] — and runs the
/// identical per-shard code paths (the internal `DetectorShard` type
/// is shared), so N lanes together emit exactly what one engine does.
///
/// The cross-shard steps stay with the caller's barrier protocol:
///
/// - per-vessel detection over a **canonically sorted** batch
///   ([`EngineLane::observe_sorted`], see [`canonical_sort`]) returns
///   per-shard event lists for the leader to merge;
/// - at a tick boundary the lane deposits
///   clones of its [`EngineLane::indexes`], the leader builds the fleet-wide
///   [`FleetIndex`], every lane sweeps its own shards against it
///   ([`EngineLane::sweep`]), and the leader unions the evicted ids
///   for the [`EngineLane::evict_pairs`] fan-out.
pub struct EngineLane {
    total_shards: usize,
    slots: Vec<LaneSlot>,
    vessel_ttl: DurationMs,
    fixes_seen: u64,
}

impl EngineLane {
    /// Build lane `lane` of `lanes` over `config`'s global shard space
    /// (`config.shards` clamped to at least 1). Lanes beyond the shard
    /// count own nothing; callers normally clamp `lanes <= shards`.
    pub fn new(config: &EngineConfig, lane: usize, lanes: usize) -> Self {
        assert!(lanes >= 1 && lane < lanes, "lane {lane} of {lanes}");
        let total = config.shards.max(1);
        let slots = (lane..total)
            .step_by(lanes)
            .map(|shard| LaneSlot {
                shard,
                detectors: DetectorShard::new(config),
                index: LiveIndex::new(),
            })
            .collect();
        Self { total_shards: total, slots, vessel_ttl: config.vessel_ttl, fixes_seen: 0 }
    }

    /// Global shard count of the engine this lane is a slice of.
    pub fn total_shards(&self) -> usize {
        self.total_shards
    }

    /// Global shard indexes this lane owns, ascending.
    pub fn owned_shards(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.shard).collect()
    }

    /// True if this lane owns `id`'s shard.
    pub fn owns(&self, id: VesselId) -> bool {
        let shard = vessel_shard(id, self.total_shards);
        self.slots.iter().any(|s| s.shard == shard)
    }

    /// Per-vessel detector run over a batch already in
    /// [`canonical_sort`] order (sorting a lane's subset with the same
    /// total order yields the same per-shard subsequences a global sort
    /// would). Every fix must belong to an owned shard. Returns
    /// `(global shard, events)` per owned shard, ascending, each list
    /// in this shard's processing order — the leader concatenates the
    /// deposits in global shard order and applies the engine's stable
    /// `(t, vessel, kind)` merge sort.
    pub fn observe_sorted(&mut self, batch: &[Fix]) -> Vec<(usize, Vec<MaritimeEvent>)> {
        self.fixes_seen += batch.len() as u64;
        let mut per_slot: Vec<Vec<Fix>> = vec![Vec::new(); self.slots.len()];
        for fix in batch {
            let shard = vessel_shard(fix.id, self.total_shards);
            let slot = self
                .slots
                .iter()
                .position(|s| s.shard == shard)
                .expect("fix routed to a shard this lane does not own");
            per_slot[slot].push(*fix);
        }
        self.slots
            .iter_mut()
            .zip(per_slot)
            .map(|(slot, fixes)| (slot.shard, slot.detectors.run(&mut slot.index, &fixes)))
            .collect()
    }

    /// The owned shards' live indexes, ascending by global shard. A
    /// lane deposits clones of them for the leader's
    /// [`FleetIndex::snapshot`] merge at a tick boundary; a lone lane,
    /// owning every shard, snapshots them in place.
    pub fn indexes(&self) -> impl Iterator<Item = &LiveIndex> {
        self.slots.iter().map(|s| &s.index)
    }

    /// Boundary sweep of the owned shards at watermark `wm` against
    /// the merged fleet view: pairwise (rendezvous/collision) sweeps,
    /// the dark-vessel check and TTL eviction — the same per-shard
    /// steps as [`EventEngine::tick`]. Returns `(global shard,
    /// events)` per owned shard plus the ids evicted from this lane's
    /// per-vessel state; the caller unions the latter across lanes and
    /// fans the union back through [`EngineLane::evict_pairs`].
    pub fn sweep(
        &mut self,
        wm: Timestamp,
        fleet: &FleetIndex,
    ) -> (Vec<(usize, Vec<MaritimeEvent>)>, Vec<VesselId>) {
        let cut = Timestamp(wm.millis().saturating_sub(self.vessel_ttl));
        let mut gone_all = Vec::new();
        let per_shard = self
            .slots
            .iter_mut()
            .map(|slot| {
                let mut events = slot.detectors.sweep_pairs(wm, &slot.index, fleet);
                let (gap_events, gone) =
                    slot.detectors.check_silent_and_evict(&mut slot.index, wm, cut);
                events.extend(gap_events);
                gone_all.extend(gone);
                (slot.shard, events)
            })
            .collect();
        (per_shard, gone_all)
    }

    /// Drop pair state referencing any vessel in `gone` — the fan-out
    /// step after the leader unioned every lane's evictions (a pair
    /// may span lanes).
    pub fn evict_pairs(&mut self, gone: &HashSet<VesselId>) {
        if gone.is_empty() {
            return;
        }
        for slot in &mut self.slots {
            slot.detectors.evict_pairs(gone);
        }
    }

    /// Vessels currently tracked in the owned shards' live indexes.
    pub fn live_count(&self) -> usize {
        self.slots.iter().map(|s| s.index.len()).sum()
    }

    /// Fixes processed by this lane.
    pub fn fixes_seen(&self) -> u64 {
        self.fixes_seen
    }

    /// Resident detector state of the owned shards. Summing lane stats
    /// across all lanes equals the single-engine
    /// [`EventEngine::state_stats`] on the same stream.
    pub fn state_stats(&self) -> EngineStateStats {
        let mut s = EngineStateStats { live_vessels: self.live_count(), ..Default::default() };
        for slot in &self.slots {
            slot.detectors.accumulate_stats(&mut s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use mda_geo::time::HOUR;
    use mda_geo::{BoundingBox, Polygon, Position};

    fn engine_with_zone() -> EventEngine {
        let zones = vec![NamedZone {
            name: "RESERVE".into(),
            area: Polygon::rectangle(BoundingBox::new(42.5, 4.5, 42.7, 4.8)),
            protected: true,
        }];
        EventEngine::new(EngineConfig { zones, ..Default::default() })
    }

    fn fix(id: u32, t_min: i64, lat: f64, lon: f64, sog: f64, cog: f64) -> Fix {
        Fix::new(id, Timestamp::from_mins(t_min), Position::new(lat, lon), sog, cog)
    }

    #[test]
    fn engine_dispatches_all_detectors() {
        let mut e = engine_with_zone();
        // Vessel 1 transits into the reserve and slows to fishing speed.
        e.observe(&fix(1, 0, 42.4, 4.6, 9.0, 0.0));
        let entry = e.observe(&fix(1, 10, 42.55, 4.6, 9.0, 0.0));
        assert!(entry.iter().any(|ev| matches!(ev.kind, EventKind::ZoneEntry { .. })));
        let fishing = e.observe(&fix(1, 20, 42.6, 4.62, 3.0, 45.0));
        assert!(fishing.iter().any(|ev| matches!(ev.kind, EventKind::IllegalFishing { .. })));
        assert!(e.counts()["zone-entry"] >= 1);
        assert!(e.counts()["illegal-fishing"] >= 1);
        assert_eq!(e.fixes_seen(), 3);
    }

    #[test]
    fn engine_gap_and_tick() {
        let mut e = engine_with_zone();
        e.observe(&fix(2, 0, 43.0, 5.0, 10.0, 90.0));
        let live = e.tick(Timestamp::from_mins(30));
        assert_eq!(live.len(), 1);
        assert!(matches!(live[0].kind, EventKind::GapStart));
        assert_eq!(e.counts()["gap-start"], 1);
    }

    #[test]
    fn engine_spoofing_path() {
        let mut e = engine_with_zone();
        e.observe(&fix(3, 0, 43.0, 5.0, 10.0, 90.0));
        let events = e.observe(&fix(3, 10, 43.0, 5.8, 10.0, 90.0)); // ~65 km in 10 min
        assert!(events.iter().any(|ev| matches!(ev.kind, EventKind::KinematicSpoofing { .. })));
    }

    #[test]
    fn engine_collision_path_via_tick() {
        let mut e = engine_with_zone();
        e.observe_batch(&[fix(10, 0, 43.0, 5.0, 10.0, 90.0), fix(11, 0, 43.0, 5.135, 10.0, 270.0)]);
        // Pairwise analytics are watermark-swept, not per-fix.
        let events = e.tick(Timestamp::from_mins(1));
        assert!(
            events.iter().any(|ev| matches!(ev.kind, EventKind::CollisionRisk { other: 11, .. })),
            "head-on pair must alert on the sweep: {events:?}"
        );
    }

    #[test]
    fn engine_rendezvous_path_via_tick() {
        let mut e = engine_with_zone();
        let mut events = Vec::new();
        for i in 0..30 {
            e.observe_batch(&[
                fix(20, i, 43.20, 5.40, 1.0, 0.0),
                fix(21, i, 43.201, 5.40, 1.0, 180.0),
            ]);
            events.extend(e.tick(Timestamp::from_mins(i)));
        }
        let rz: Vec<_> =
            events.iter().filter(|ev| matches!(ev.kind, EventKind::Rendezvous { .. })).collect();
        assert_eq!(rz.len(), 1, "one sustained-proximity report: {events:?}");
        assert_eq!(rz[0].vessel, 20);
    }

    #[test]
    fn observe_batch_matches_serial_observe() {
        // The canonical batch path and the one-at-a-time path must
        // agree on an already-ordered stream.
        let batch: Vec<Fix> = (0..40)
            .flat_map(|i| {
                [
                    fix(1, i, 42.4 + i as f64 * 0.01, 4.6, 9.0, 0.0),
                    fix(2, i, 43.0, 5.0 + i as f64 * 0.02, 12.0, 90.0),
                ]
            })
            .collect();
        let mut serial = engine_with_zone();
        let mut a = Vec::new();
        for f in &batch {
            a.extend(serial.observe(f));
        }
        let mut batched = engine_with_zone();
        let b = batched.observe_batch(&batch);
        assert_eq!(a, b, "batching must not change per-vessel detection");
        assert_eq!(serial.fixes_seen(), batched.fixes_seen());
    }

    #[test]
    fn shard_count_does_not_change_emission() {
        let batch: Vec<Fix> = (0..60)
            .flat_map(|i| {
                (1..=10u32).map(move |v| {
                    fix(v, i, 42.0 + f64::from(v) * 0.1, 4.0 + i as f64 * 0.01, 8.0, 90.0)
                })
            })
            .collect();
        let run = |shards: usize| {
            let mut e = EventEngine::new(EngineConfig { shards, ..Default::default() });
            let mut out = e.observe_batch(&batch);
            out.extend(e.tick(Timestamp::from_mins(90)));
            out
        };
        let reference = run(1);
        assert!(!reference.is_empty(), "gap ticks should fire");
        for shards in [2usize, 4, 8] {
            assert_eq!(run(shards), reference, "{shards} shards diverged");
        }
    }

    #[test]
    fn parallel_batch_path_matches_sequential() {
        // Enough fixes to cross PAR_BATCH_MIN: the scoped-thread
        // dispatch must be invisible in the output.
        // 0.03° of longitude per minute is a ~78 kn implied speed
        // against 9 kn reported: every fix raises a spoofing event, so
        // the comparison is over real content, not empty vectors.
        let batch: Vec<Fix> = (0..80)
            .flat_map(|i| {
                (1..=20u32).map(move |v| {
                    fix(v, i, 42.0 + f64::from(v) * 0.05, 4.0 + i as f64 * 0.03, 9.0, 90.0)
                })
            })
            .collect();
        assert!(batch.len() >= PAR_BATCH_MIN);
        let mut sharded = EventEngine::new(EngineConfig { shards: 4, ..Default::default() });
        let mut single = EventEngine::new(EngineConfig { shards: 1, ..Default::default() });
        assert_eq!(sharded.observe_batch(&batch), single.observe_batch(&batch));
    }

    #[test]
    fn parallel_sweep_path_matches_sequential() {
        // A fleet large enough to cross PAR_SWEEP_MIN: the scoped-
        // thread pairwise sweeps must emit exactly what one shard does.
        // Vessels pair up head-on 11 km apart, so sweeps really alert.
        let batch: Vec<Fix> = (0..600u32)
            .map(|v| {
                let lane = f64::from(v / 2) * 0.02;
                if v % 2 == 0 {
                    fix(v + 1, 0, 42.0 + lane, 5.0, 10.0, 90.0)
                } else {
                    fix(v + 1, 0, 42.0 + lane, 5.135, 10.0, 270.0)
                }
            })
            .collect();
        let run = |shards: usize| {
            let mut e = EventEngine::new(EngineConfig { shards, ..Default::default() });
            e.observe_batch(&batch);
            assert!(e.live_vessel_count() >= PAR_SWEEP_MIN);
            e.tick(Timestamp::from_mins(1))
        };
        let reference = run(1);
        assert!(
            reference.iter().any(|ev| matches!(ev.kind, EventKind::CollisionRisk { .. })),
            "head-on lanes must alert"
        );
        for shards in [4usize, 8] {
            assert_eq!(run(shards), reference, "{shards}-shard parallel sweep diverged");
        }
    }

    #[test]
    fn ttl_eviction_bounds_state_and_reports_ids() {
        let mut e =
            EventEngine::new(EngineConfig { vessel_ttl: HOUR, shards: 4, ..Default::default() });
        // Vessel 1 transmits briefly and dies; vessel 2 keeps going.
        e.observe(&fix(1, 0, 43.0, 5.0, 10.0, 90.0));
        for i in 0..200 {
            e.observe(&fix(2, i, 43.5, 5.0 + i as f64 * 0.01, 10.0, 90.0));
            e.tick(Timestamp::from_mins(i));
        }
        let gone = e.take_evicted();
        assert_eq!(gone, vec![1], "dead vessel must be evicted once");
        let stats = e.state_stats();
        assert_eq!(stats.live_vessels, 1, "only the living vessel remains indexed");
        assert_eq!(stats.gap_tracked, 1);
        // Dead vessel resurfacing is new — and trackable again.
        e.observe(&fix(1, 300, 43.0, 5.0, 10.0, 90.0));
        assert_eq!(e.state_stats().live_vessels, 2);
        assert!(e.take_evicted().is_empty());
    }

    #[test]
    fn disabled_ttl_keeps_state() {
        let mut e =
            EventEngine::new(EngineConfig { vessel_ttl: DurationMs::MAX, ..Default::default() });
        e.observe(&fix(1, 0, 43.0, 5.0, 10.0, 90.0));
        for i in 1..500 {
            e.tick(Timestamp::from_mins(i * 10));
        }
        assert!(e.take_evicted().is_empty());
        assert_eq!(e.state_stats().gap_tracked, 1);
    }

    #[test]
    fn live_index_exposed() {
        let mut e = engine_with_zone();
        e.observe(&fix(1, 0, 43.0, 5.0, 10.0, 90.0));
        assert_eq!(e.live_index().len(), 1);
        assert!(e.live_index().latest(1).is_some());
        assert_eq!(e.shard_count(), 1);
    }

    /// Drive `lanes` [`EngineLane`]s through the same observe/tick
    /// cadence as one [`EventEngine`], merging exactly the way the
    /// multi-writer leader does, and return the merged emission.
    fn run_lanes_merged(
        config: &EngineConfig,
        lanes: usize,
        rounds: &[Vec<Fix>],
    ) -> Vec<MaritimeEvent> {
        let total = config.shards.max(1);
        let mut lane_engines: Vec<EngineLane> =
            (0..lanes).map(|w| EngineLane::new(config, w, lanes)).collect();
        let merge = |per_shard: &mut Vec<Vec<MaritimeEvent>>| {
            let mut all: Vec<MaritimeEvent> = Vec::new();
            for list in per_shard.iter_mut() {
                all.append(list);
            }
            all.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
            all
        };
        let mut out = Vec::new();
        for (round, batch) in rounds.iter().enumerate() {
            let mut sorted = batch.clone();
            canonical_sort(&mut sorted);
            // Observe: each lane takes its own vessels, deposits per shard.
            let mut per_shard: Vec<Vec<MaritimeEvent>> = vec![Vec::new(); total];
            for lane in &mut lane_engines {
                let own: Vec<Fix> = sorted.iter().filter(|f| lane.owns(f.id)).copied().collect();
                for (shard, events) in lane.observe_sorted(&own) {
                    per_shard[shard] = events;
                }
            }
            out.extend(merge(&mut per_shard));
            // Tick: fleet merge, per-lane sweeps, union eviction fan-out.
            let wm = Timestamp::from_mins(round as i64 + 1);
            let fleet = FleetIndex::snapshot(lane_engines.iter().flat_map(EngineLane::indexes));
            let mut per_shard: Vec<Vec<MaritimeEvent>> = vec![Vec::new(); total];
            let mut gone_all: HashSet<VesselId> = HashSet::new();
            for lane in &mut lane_engines {
                let (shard_events, gone) = lane.sweep(wm, &fleet);
                for (shard, events) in shard_events {
                    per_shard[shard] = events;
                }
                gone_all.extend(gone);
            }
            for lane in &mut lane_engines {
                lane.evict_pairs(&gone_all);
            }
            out.extend(merge(&mut per_shard));
        }
        out
    }

    #[test]
    fn lane_decomposition_matches_single_engine() {
        // Dense traffic with head-on pairs, dark vessels and zone
        // transits, driven through observe+tick rounds: the lane
        // decomposition (any lane count) must reproduce the single
        // engine's emission event for event.
        let zones = vec![NamedZone {
            name: "RESERVE".into(),
            area: mda_geo::Polygon::rectangle(BoundingBox::new(42.5, 4.5, 42.7, 4.8)),
            protected: true,
        }];
        let config = EngineConfig { zones, shards: 8, vessel_ttl: HOUR, ..Default::default() };
        let rounds: Vec<Vec<Fix>> = (0..90i64)
            .map(|i| {
                (1..=16u32)
                    .filter(|v| i < 20 || v % 5 != 0) // every 5th vessel goes dark
                    .map(|v| {
                        let lane_lat = 42.4 + f64::from(v / 2) * 0.02;
                        if v % 2 == 0 {
                            fix(v, i, lane_lat, 4.4 + i as f64 * 0.004, 9.0, 90.0)
                        } else {
                            fix(v, i, lane_lat, 5.0 - i as f64 * 0.004, 9.0, 270.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut single = EventEngine::new(config.clone());
        let mut reference = Vec::new();
        for (round, batch) in rounds.iter().enumerate() {
            reference.extend(single.observe_batch(batch));
            reference.extend(single.tick(Timestamp::from_mins(round as i64 + 1)));
        }
        assert!(!reference.is_empty(), "scenario must emit events");
        for lanes in [1usize, 2, 3, 8] {
            assert_eq!(
                run_lanes_merged(&config, lanes, &rounds),
                reference,
                "{lanes} lanes diverged from the single engine"
            );
        }
    }

    #[test]
    fn counts_include_tick_events() {
        let mut e = engine_with_zone();
        e.observe(&fix(2, 0, 43.0, 5.0, 10.0, 90.0));
        e.tick(Timestamp::from_mins(30));
        assert_eq!(e.counts()["gap-start"], 1);
    }
}
