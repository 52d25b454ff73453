//! Pairwise proximity analytics: rendezvous and collision risk.
//!
//! Both detectors run off a live latest-fix snapshot bucketed into a
//! coarse cell hash. The snapshot is *sharded*: the engine keeps one
//! [`LiveIndex`] per detector shard (written only by that shard's run)
//! and pairwise sweeps read the whole fleet through a [`FleetIndex`]
//! snapshot merged once per tick — shard-local writes, one shared
//! read-only cell grid, no locks.
//!
//! Unlike the per-vessel detectors, rendezvous and collision are
//! evaluated by **watermark-driven sweeps** (`sweep`), not per fix: at
//! every engine tick each shard walks its own live vessels in id order
//! and inspects the neighbourhood of each. Sampling the pair state at
//! aligned event times makes the emitted events a pure function of the
//! event-time stream — arrival order and shard count cannot change
//! them — and the per-entry [`LiveIndex`] *version* lets a sweep reuse
//! the previous distance for pairs neither side of which has
//! transmitted since, so sweep cost tracks fleet activity, not fleet
//! size squared.

use crate::event::{EventKind, MaritimeEvent};
use mda_geo::distance::haversine_m;
use mda_geo::motion::cpa;
use mda_geo::units::EARTH_RADIUS_M;
use mda_geo::{DurationMs, Fix, Polygon, Timestamp, VesselId};
use std::collections::{HashMap, HashSet};

/// Cell size of the live index, degrees (~11 km of latitude).
const CELL_DEG: f64 = 0.1;
/// Metres spanned by one cell of latitude.
const LAT_CELL_M: f64 = CELL_DEG * 111_320.0;

/// Metres of great-circle distance per degree of latitude difference,
/// on the same sphere [`haversine_m`] uses. The haversine central angle
/// is at least the latitude separation, so
/// `|Δlat| * METERS_PER_LAT_DEG` is an exact *lower bound* on the
/// haversine distance — candidates failing it can be pruned from a
/// neighbourhood scan by comparing latitude columns alone, without
/// computing any trigonometry, and no in-radius vessel is ever lost.
const METERS_PER_LAT_DEG: f64 = EARTH_RADIUS_M * std::f64::consts::PI / 180.0;

/// Cell-scan reach `(lat_cells, lon_cells)` for a radius around a
/// latitude. Latitude cells are a fixed ~11 km, but longitude cells
/// shrink by `cos(lat)` (0.1° of longitude is ~3.8 km at 70°N), so the
/// east–west reach widens with latitude — a fixed reach silently
/// missed in-radius vessels in northern waters. One definition shared
/// by [`LiveIndex`] and [`FleetIndex`] so the two query paths can
/// never disagree. The cosine clamp keeps polar queries finite.
fn scan_reach(radius_m: f64, lat: f64) -> (i32, i32) {
    let lat_reach = (radius_m / LAT_CELL_M).ceil() as i32 + 1;
    let cos_lat = lat.to_radians().cos().max(0.05);
    let lon_reach = (radius_m / (LAT_CELL_M * cos_lat)).ceil() as i32 + 1;
    (lat_reach, lon_reach)
}

/// One tracked vessel: its latest accepted fix plus the index version
/// at which it was written.
#[derive(Debug, Clone, Copy)]
struct Entry {
    fix: Fix,
    version: u64,
}

/// A live latest-fix index with neighbourhood queries.
///
/// The index is *versioned*: every accepted update bumps a monotone
/// counter and stamps the entry with it, so a reader can tell whether a
/// vessel has transmitted since it last looked (the pairwise sweeps use
/// this to skip re-computing unchanged pair geometry). Updates are
/// stale-guarded: a late, out-of-order fix can never regress the
/// snapshot (see [`LiveIndex::update`]).
///
/// One cell's occupants as parallel columns: vessel ids plus their
/// latitudes/longitudes, so a neighbourhood scan prunes on dense
/// coordinate columns instead of chasing per-id hash lookups. Order
/// within a cell is insertion-defined and irrelevant — every consumer
/// sorts its result by vessel id.
#[derive(Debug, Clone, Default)]
struct CellVessels {
    ids: Vec<VesselId>,
    lat: Vec<f64>,
    lon: Vec<f64>,
}

impl CellVessels {
    fn push(&mut self, id: VesselId, pos: mda_geo::Position) {
        self.ids.push(id);
        self.lat.push(pos.lat);
        self.lon.push(pos.lon);
    }

    /// Drop a vessel (swap-remove; order is irrelevant, see above).
    fn remove(&mut self, id: VesselId) {
        if let Some(i) = self.ids.iter().position(|&x| x == id) {
            self.ids.swap_remove(i);
            self.lat.swap_remove(i);
            self.lon.swap_remove(i);
        }
    }

    /// Update a vessel's position in place (same cell, new fix).
    fn set_pos(&mut self, id: VesselId, pos: mda_geo::Position) {
        if let Some(i) = self.ids.iter().position(|&x| x == id) {
            self.lat[i] = pos.lat;
            self.lon[i] = pos.lon;
        }
    }

    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A live latest-fix index with neighbourhood queries.
///
/// The index is *versioned*: every accepted update bumps a monotone
/// counter and stamps the entry with it, so a reader can tell whether a
/// vessel has transmitted since it last looked (the pairwise sweeps use
/// this to skip re-computing unchanged pair geometry). Updates are
/// stale-guarded: a late, out-of-order fix can never regress the
/// snapshot (see [`LiveIndex::update`]).
///
/// The index is `Clone` so a writer lane can deposit a cheap
/// copy-on-quiesce view of its shards for the cross-lane
/// [`FleetIndex`] merge at a tick barrier.
#[derive(Debug, Clone, Default)]
pub struct LiveIndex {
    latest: HashMap<VesselId, Entry>,
    cells: HashMap<(i32, i32), CellVessels>,
    version: u64,
}

impl LiveIndex {
    /// New empty index.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell_of(pos: mda_geo::Position) -> (i32, i32) {
        ((pos.lat / CELL_DEG).floor() as i32, (pos.lon / CELL_DEG).floor() as i32)
    }

    /// Update a vessel's latest fix. Returns `true` if the snapshot
    /// changed.
    ///
    /// The update is guarded on event time: a fix at or before the
    /// vessel's current latest is a late straggler and is ignored, so a
    /// disordered arrival stream can never regress the snapshot — the
    /// index contents are a pure function of the *set* of fixes seen,
    /// not their arrival order.
    pub fn update(&mut self, fix: &Fix) -> bool {
        match self.latest.get_mut(&fix.id) {
            Some(entry) => {
                if fix.t <= entry.fix.t {
                    return false; // stale: never regress the snapshot
                }
                let old_cell = Self::cell_of(entry.fix.pos);
                let new_cell = Self::cell_of(fix.pos);
                self.version += 1;
                *entry = Entry { fix: *fix, version: self.version };
                if old_cell == new_cell {
                    // The cell's coordinate columns mirror the latest
                    // positions; keep them exact even without a move.
                    if let Some(bucket) = self.cells.get_mut(&new_cell) {
                        bucket.set_pos(fix.id, fix.pos);
                    }
                } else {
                    if let Some(bucket) = self.cells.get_mut(&old_cell) {
                        bucket.remove(fix.id);
                        if bucket.is_empty() {
                            self.cells.remove(&old_cell);
                        }
                    }
                    self.cells.entry(new_cell).or_default().push(fix.id, fix.pos);
                }
                true
            }
            None => {
                self.version += 1;
                self.latest.insert(fix.id, Entry { fix: *fix, version: self.version });
                self.cells.entry(Self::cell_of(fix.pos)).or_default().push(fix.id, fix.pos);
                true
            }
        }
    }

    /// Drop a vessel from the snapshot (TTL eviction). Returns `true`
    /// if it was tracked.
    pub fn remove(&mut self, id: VesselId) -> bool {
        let Some(entry) = self.latest.remove(&id) else { return false };
        let cell = Self::cell_of(entry.fix.pos);
        if let Some(bucket) = self.cells.get_mut(&cell) {
            bucket.remove(id);
            if bucket.is_empty() {
                self.cells.remove(&cell);
            }
        }
        true
    }

    /// Latest fixes of vessels within `radius_m` of `fix` (excluding
    /// `fix.id` itself), scanning only neighbouring cells.
    ///
    /// The scan reach is derived per axis: latitude cells are a fixed
    /// ~11 km, but longitude cells shrink by `cos(lat)` (0.1° of
    /// longitude is ~3.8 km at 70°N), so the east–west reach widens
    /// with latitude — a fixed reach would silently miss in-radius
    /// vessels in northern waters.
    pub fn neighbours(&self, fix: &Fix, radius_m: f64) -> Vec<Fix> {
        self.neighbours_versioned(fix, radius_m).into_iter().map(|(f, _)| f).collect()
    }

    /// [`LiveIndex::neighbours`], but each fix is paired with the index
    /// version at which it was written (for sweep-side caching).
    pub fn neighbours_versioned(&self, fix: &Fix, radius_m: f64) -> Vec<(Fix, u64)> {
        let (r0, c0) = Self::cell_of(fix.pos);
        let (lat_reach, lon_reach) = scan_reach(radius_m, fix.pos.lat);
        let lat_cut = radius_m / METERS_PER_LAT_DEG;
        let mut out = Vec::new();
        for dr in -lat_reach..=lat_reach {
            for dc in -lon_reach..=lon_reach {
                let Some(bucket) = self.cells.get(&(r0 + dr, c0 + dc)) else { continue };
                for (i, &lat) in bucket.lat.iter().enumerate() {
                    // Meridional lower bound on the coordinate columns:
                    // too far in latitude alone means out of radius,
                    // with no trig and no entry lookup.
                    if (lat - fix.pos.lat).abs() > lat_cut {
                        continue;
                    }
                    let id = bucket.ids[i];
                    if id == fix.id {
                        continue;
                    }
                    let pos = mda_geo::Position::new(lat, bucket.lon[i]);
                    if haversine_m(fix.pos, pos) <= radius_m {
                        let entry = self.latest[&id];
                        out.push((entry.fix, entry.version));
                    }
                }
            }
        }
        // Cell buckets keep insertion order; sort so downstream
        // detectors emit deterministically for identical inputs.
        out.sort_unstable_by_key(|(f, _)| f.id);
        out
    }

    /// Latest fix of one vessel.
    pub fn latest(&self, id: VesselId) -> Option<&Fix> {
        self.latest.get(&id).map(|e| &e.fix)
    }

    /// Latest fix of one vessel plus its write version.
    pub fn latest_versioned(&self, id: VesselId) -> Option<(&Fix, u64)> {
        self.latest.get(&id).map(|e| (&e.fix, e.version))
    }

    /// Tracked vessel ids in ascending order (the canonical sweep
    /// order).
    pub fn vessels_sorted(&self) -> Vec<VesselId> {
        let mut ids: Vec<VesselId> = self.latest.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Total accepted updates so far (monotone).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of tracked vessels.
    pub fn len(&self) -> usize {
        self.latest.len()
    }

    /// True when no vessel is tracked.
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }
}

/// A read-only whole-fleet snapshot merged from the engine's per-shard
/// [`LiveIndex`]es: what the pairwise sweeps (and the operator console)
/// query.
///
/// The snapshot is built **once per tick** in O(live vessels) and owns
/// its merged cell grid, so a neighbourhood query probes one cell map
/// regardless of how many shards fed it — sweep cost is independent of
/// the shard count (probing S per-shard maps per cell would make more
/// shards *more* expensive on every query).
#[derive(Debug, Default)]
pub struct FleetIndex {
    cells: HashMap<(i32, i32), FleetCell>,
    count: usize,
    shards: usize,
}

/// One merged cell: full entries plus parallel coordinate columns, so
/// the sweep's distance prune runs over dense `f64` columns and only
/// surviving candidates touch the 56-byte entry rows.
#[derive(Debug, Default)]
struct FleetCell {
    lat: Vec<f64>,
    lon: Vec<f64>,
    entries: Vec<(Fix, u64)>,
}

impl FleetIndex {
    /// Build a snapshot over the given shard indexes (one per detector
    /// shard). Cell contents are sorted by vessel id, so queries over
    /// equal snapshots answer identically whatever the shard count.
    pub fn snapshot<'a>(indexes: impl IntoIterator<Item = &'a LiveIndex>) -> Self {
        let mut cells: HashMap<(i32, i32), FleetCell> = HashMap::new();
        let mut count = 0;
        let mut shards = 0;
        for index in indexes {
            shards += 1;
            count += index.len();
            // lint:allow(deterministic-iteration): merge order is
            // immaterial — every bucket is canonically sorted below
            // before the snapshot is published.
            for entry in index.latest.values() {
                cells
                    .entry(LiveIndex::cell_of(entry.fix.pos))
                    .or_default()
                    .entries
                    .push((entry.fix, entry.version));
            }
        }
        for bucket in cells.values_mut() {
            bucket.entries.sort_unstable_by_key(|(f, _)| f.id);
            bucket.lat.extend(bucket.entries.iter().map(|(f, _)| f.pos.lat));
            bucket.lon.extend(bucket.entries.iter().map(|(f, _)| f.pos.lon));
        }
        assert!(shards > 0, "a fleet snapshot needs at least one shard index");
        Self { cells, count, shards }
    }

    /// Latest fixes of vessels within `radius_m` of `fix` across the
    /// fleet, sorted by vessel id.
    pub fn neighbours(&self, fix: &Fix, radius_m: f64) -> Vec<Fix> {
        self.neighbours_versioned(fix, radius_m).into_iter().map(|(f, _)| f).collect()
    }

    /// [`FleetIndex::neighbours`] with per-entry write versions.
    ///
    /// Versions are only comparable within one shard, but a pair's two
    /// vessels always live in fixed shards, so a `(version_a,
    /// version_b)` pair is still a precise "has anything changed?"
    /// fingerprint.
    pub fn neighbours_versioned(&self, fix: &Fix, radius_m: f64) -> Vec<(Fix, u64)> {
        let (r0, c0) = LiveIndex::cell_of(fix.pos);
        let (lat_reach, lon_reach) = scan_reach(radius_m, fix.pos.lat);
        let lat_cut = radius_m / METERS_PER_LAT_DEG;
        let mut out = Vec::new();
        for dr in -lat_reach..=lat_reach {
            for dc in -lon_reach..=lon_reach {
                let Some(bucket) = self.cells.get(&(r0 + dr, c0 + dc)) else { continue };
                for (i, &lat) in bucket.lat.iter().enumerate() {
                    // Meridional lower bound on the latitude column: the
                    // common reject costs one subtract/compare per
                    // candidate and never touches the entry row.
                    if (lat - fix.pos.lat).abs() > lat_cut {
                        continue;
                    }
                    let pos = mda_geo::Position::new(lat, bucket.lon[i]);
                    let (f, v) = &bucket.entries[i];
                    if f.id != fix.id && haversine_m(fix.pos, pos) <= radius_m {
                        out.push((*f, *v));
                    }
                }
            }
        }
        out.sort_unstable_by_key(|(f, _)| f.id);
        out
    }

    /// Latest fix of one vessel (linear probe of its cell-mates is
    /// avoided by scanning only the snapshot's buckets lazily; intended
    /// for console lookups, not hot loops).
    pub fn latest(&self, id: VesselId) -> Option<&Fix> {
        self.cells
            .values()
            .flat_map(|bucket| bucket.entries.iter())
            .find(|(f, _)| f.id == id)
            .map(|(f, _)| f)
    }

    /// Shard count of the engine this snapshot was taken from.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Total tracked vessels across shards.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no shard tracks anything.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Rendezvous detector configuration.
#[derive(Debug, Clone)]
pub struct RendezvousConfig {
    /// Two vessels closer than this are "together", metres.
    pub radius_m: f64,
    /// Both must be slower than this, knots.
    pub max_speed_kn: f64,
    /// Minimum sustained duration.
    pub min_duration: DurationMs,
    /// A latest fix older than this (relative to the sweep watermark)
    /// is a stale snapshot — a vessel that went dark is not evidence of
    /// present proximity.
    pub freshness: DurationMs,
    /// Areas where proximity is normal (ports, anchorages) and must not
    /// alert.
    pub exclusion_zones: Vec<Polygon>,
}

impl Default for RendezvousConfig {
    fn default() -> Self {
        Self {
            radius_m: 500.0,
            max_speed_kn: 5.0,
            min_duration: 20 * mda_geo::time::MINUTE,
            freshness: 5 * mda_geo::time::MINUTE,
            exclusion_zones: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PairState {
    since: Timestamp,
    sum_dist_m: f64,
    samples: u32,
    reported: bool,
    /// `(version_a, version_b)` of the two fixes last evaluated, to
    /// reuse the distance when neither vessel transmitted since.
    versions: (u64, u64),
    last_dist_m: f64,
    last_sweep: Timestamp,
}

/// Watermark-swept rendezvous detector.
///
/// Pair state is keyed `(min_id, max_id)` and owned by the shard of the
/// *smaller* vessel id, so every pair is evaluated exactly once per
/// sweep, by exactly one shard.
#[derive(Debug)]
pub struct RendezvousDetector {
    config: RendezvousConfig,
    pairs: HashMap<(VesselId, VesselId), PairState>,
}

impl RendezvousDetector {
    /// New detector.
    pub fn new(config: RendezvousConfig) -> Self {
        Self { config, pairs: HashMap::new() }
    }

    /// One watermark sweep at event time `wm`: walk this shard's live
    /// vessels (`order` — ascending ids of `own`, computed once per
    /// tick and shared with the collision sweep) and evaluate each
    /// against its fleet-wide neighbourhood. Only pairs whose smaller
    /// id lives in `own` are touched, so sweeping every shard covers
    /// every pair exactly once.
    pub fn sweep(
        &mut self,
        wm: Timestamp,
        order: &[VesselId],
        own: &LiveIndex,
        fleet: &FleetIndex,
    ) -> Vec<MaritimeEvent> {
        let mut out = Vec::new();
        for &v in order {
            let (fv, ver_v) = own.latest_versioned(v).expect("listed vessel present");
            let fv = *fv;
            if wm.since(fv.t) > self.config.freshness {
                continue; // dark primary: its pairs expire via the retain below
            }
            let slow = fv.sog_kn <= self.config.max_speed_kn;
            let excluded = self.config.exclusion_zones.iter().any(|z| z.contains(fv.pos));
            for (fo, ver_o) in fleet.neighbours_versioned(&fv, self.config.radius_m * 2.0) {
                if fo.id <= v {
                    continue; // owned by the other vessel's shard
                }
                let key = (v, fo.id);
                let fresh_o = wm.since(fo.t) <= self.config.freshness;
                let cached = self
                    .pairs
                    .get(&key)
                    .is_some_and(|s| s.versions == (ver_v, ver_o) && fresh_o && !excluded);
                let (together, d) = if cached {
                    // Neither side transmitted since the last sweep:
                    // geometry and speeds are unchanged by construction.
                    (true, self.pairs[&key].last_dist_m)
                } else {
                    let d = haversine_m(fv.pos, fo.pos);
                    let together = fresh_o
                        && !excluded
                        && d <= self.config.radius_m
                        && slow
                        && fo.sog_kn <= self.config.max_speed_kn
                        && !self.config.exclusion_zones.iter().any(|z| z.contains(fo.pos));
                    (together, d)
                };
                match self.pairs.get_mut(&key) {
                    Some(state) if together => {
                        state.sum_dist_m += d;
                        state.samples += 1;
                        state.versions = (ver_v, ver_o);
                        state.last_dist_m = d;
                        state.last_sweep = wm;
                        if !state.reported && wm.since(state.since) >= self.config.min_duration {
                            state.reported = true;
                            out.push(MaritimeEvent {
                                t: wm,
                                vessel: v,
                                pos: fv.pos,
                                kind: EventKind::Rendezvous {
                                    other: fo.id,
                                    distance_m: state.sum_dist_m / f64::from(state.samples),
                                    minutes: wm.since(state.since) as f64 / 60_000.0,
                                },
                            });
                        }
                    }
                    Some(_) => {
                        self.pairs.remove(&key);
                    }
                    None if together => {
                        self.pairs.insert(
                            key,
                            PairState {
                                since: wm,
                                sum_dist_m: d,
                                samples: 1,
                                reported: false,
                                versions: (ver_v, ver_o),
                                last_dist_m: d,
                                last_sweep: wm,
                            },
                        );
                    }
                    None => {}
                }
            }
        }
        // A pair not revisited this sweep has drifted out of
        // neighbourhood range (or its primary went dark): forget it.
        self.pairs.retain(|_, s| s.last_sweep >= wm);
        out
    }

    /// Drop all pair state touching an evicted vessel (either side —
    /// the partner may live in another shard).
    pub fn evict(&mut self, gone: &HashSet<VesselId>) {
        if gone.is_empty() {
            return;
        }
        self.pairs.retain(|(a, b), _| !gone.contains(a) && !gone.contains(b));
    }

    /// Currently tracked candidate pairs.
    pub fn open_pairs(&self) -> usize {
        self.pairs.len()
    }
}

/// Collision-risk detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct CollisionConfig {
    /// Search radius for candidate pairs, metres.
    pub search_radius_m: f64,
    /// Alert when projected CPA is below this, metres.
    pub dcpa_m: f64,
    /// Alert only for CPAs within this horizon, seconds.
    pub tcpa_horizon_s: f64,
    /// Both vessels must be under way (knots).
    pub min_speed_kn: f64,
    /// Silence per pair after an alert.
    pub rearm: DurationMs,
    /// A latest fix older than this (relative to the sweep watermark)
    /// is ignored — its projection is no longer trustworthy.
    pub freshness: DurationMs,
}

impl Default for CollisionConfig {
    fn default() -> Self {
        Self {
            search_radius_m: 15_000.0,
            dcpa_m: 300.0,
            tcpa_horizon_s: 1_200.0,
            min_speed_kn: 2.0,
            rearm: 10 * mda_geo::time::MINUTE,
            freshness: 5 * mda_geo::time::MINUTE,
        }
    }
}

/// Watermark-swept CPA/TCPA collision-risk detector.
///
/// Like [`RendezvousDetector`], pairs are owned by the shard of the
/// smaller vessel id and evaluated once per sweep. The per-pair re-arm
/// map is self-pruning: an entry older than the re-arm window can no
/// longer suppress anything and is dropped at the end of each sweep.
#[derive(Debug)]
pub struct CollisionDetector {
    config: CollisionConfig,
    last_alert: HashMap<(VesselId, VesselId), Timestamp>,
}

impl CollisionDetector {
    /// New detector.
    pub fn new(config: CollisionConfig) -> Self {
        Self { config, last_alert: HashMap::new() }
    }

    /// One watermark sweep at event time `wm` over this shard's live
    /// vessels (`order` — ascending ids of `own`).
    pub fn sweep(
        &mut self,
        wm: Timestamp,
        order: &[VesselId],
        own: &LiveIndex,
        fleet: &FleetIndex,
    ) -> Vec<MaritimeEvent> {
        let mut out = Vec::new();
        for &v in order {
            let Some(fv) = own.latest(v).copied() else { continue };
            if wm.since(fv.t) > self.config.freshness || fv.sog_kn < self.config.min_speed_kn {
                continue;
            }
            for other in fleet.neighbours(&fv, self.config.search_radius_m) {
                if other.id <= v
                    || other.sog_kn < self.config.min_speed_kn
                    || wm.since(other.t) > self.config.freshness
                {
                    continue;
                }
                let key = (v, other.id);
                if let Some(last) = self.last_alert.get(&key) {
                    if wm.since(*last) < self.config.rearm {
                        continue;
                    }
                }
                let r = cpa(&fv, &other);
                if r.dcpa_m <= self.config.dcpa_m
                    && r.tcpa_s > 0.0
                    && r.tcpa_s <= self.config.tcpa_horizon_s
                {
                    self.last_alert.insert(key, wm);
                    out.push(MaritimeEvent {
                        t: wm,
                        vessel: v,
                        pos: fv.pos,
                        kind: EventKind::CollisionRisk {
                            other: other.id,
                            dcpa_m: r.dcpa_m,
                            tcpa_s: r.tcpa_s,
                        },
                    });
                }
            }
        }
        // Expired re-arm entries can never suppress again: drop them so
        // the map tracks recent alerts, not every pair ever alerted.
        self.last_alert.retain(|_, t| wm.since(*t) < self.config.rearm);
        out
    }

    /// Drop re-arm state touching an evicted vessel.
    pub fn evict(&mut self, gone: &HashSet<VesselId>) {
        if gone.is_empty() {
            return;
        }
        self.last_alert.retain(|(a, b), _| !gone.contains(a) && !gone.contains(b));
    }

    /// Pairs currently inside their re-arm window.
    pub fn armed_pairs(&self) -> usize {
        self.last_alert.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::time::MINUTE;
    use mda_geo::{Position, Timestamp};

    fn fix(id: u32, t_min: i64, lat: f64, lon: f64, sog: f64, cog: f64) -> Fix {
        Fix::new(id, Timestamp::from_mins(t_min), Position::new(lat, lon), sog, cog)
    }

    /// Sweep a rendezvous detector over a single shard index.
    fn rz_sweep(d: &mut RendezvousDetector, idx: &LiveIndex, t_min: i64) -> Vec<MaritimeEvent> {
        let view = FleetIndex::snapshot(std::slice::from_ref(idx));
        d.sweep(Timestamp::from_mins(t_min), &idx.vessels_sorted(), idx, &view)
    }

    fn col_sweep(d: &mut CollisionDetector, idx: &LiveIndex, t_min: i64) -> Vec<MaritimeEvent> {
        let view = FleetIndex::snapshot(std::slice::from_ref(idx));
        d.sweep(Timestamp::from_mins(t_min), &idx.vessels_sorted(), idx, &view)
    }

    #[test]
    fn live_index_neighbours_exact() {
        let mut idx = LiveIndex::new();
        idx.update(&fix(1, 0, 43.0, 5.0, 3.0, 0.0));
        idx.update(&fix(2, 0, 43.001, 5.0, 3.0, 0.0)); // ~110 m away
        idx.update(&fix(3, 0, 43.5, 5.0, 3.0, 0.0)); // ~55 km away
        let n = idx.neighbours(&fix(1, 1, 43.0, 5.0, 3.0, 0.0), 1_000.0);
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].id, 2);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn live_index_moves_between_cells() {
        let mut idx = LiveIndex::new();
        idx.update(&fix(1, 0, 43.0, 5.0, 10.0, 0.0));
        idx.update(&fix(1, 10, 43.5, 5.5, 10.0, 0.0));
        // Old location no longer matches.
        let near_old = idx.neighbours(&fix(2, 10, 43.0, 5.0, 0.0, 0.0), 2_000.0);
        assert!(near_old.is_empty());
        let near_new = idx.neighbours(&fix(2, 10, 43.5, 5.5, 0.0, 0.0), 2_000.0);
        assert_eq!(near_new.len(), 1);
    }

    #[test]
    fn live_index_never_regresses_on_late_fix() {
        // Regression: a late out-of-order fix used to overwrite the
        // newer snapshot (and strand the vessel in the wrong cell).
        let mut idx = LiveIndex::new();
        idx.update(&fix(1, 10, 43.5, 5.5, 10.0, 0.0));
        assert!(!idx.update(&fix(1, 5, 43.0, 5.0, 10.0, 0.0)), "stale fix must be refused");
        assert_eq!(idx.latest(1).unwrap().t, Timestamp::from_mins(10));
        // The cell hash still reflects the newest position only.
        assert!(idx.neighbours(&fix(2, 10, 43.0, 5.0, 0.0, 0.0), 2_000.0).is_empty());
        assert_eq!(idx.neighbours(&fix(2, 10, 43.5, 5.5, 0.0, 0.0), 2_000.0).len(), 1);
    }

    #[test]
    fn live_index_shuffled_arrival_converges() {
        // Any arrival order of the same fix set must produce the same
        // snapshot.
        let mut fixes: Vec<Fix> = (0..30)
            .flat_map(|i| {
                (1..=5u32).map(move |id| {
                    fix(id, i, 42.0 + f64::from(id) * 0.2, 4.0 + i as f64 * 0.05, 8.0, 90.0)
                })
            })
            .collect();
        let mut ordered = LiveIndex::new();
        for f in &fixes {
            ordered.update(f);
        }
        // Deterministic shuffle (LCG swap walk).
        let mut s = 0x9E37_79B9u64;
        for i in (1..fixes.len()).rev() {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            fixes.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut shuffled = LiveIndex::new();
        for f in &fixes {
            shuffled.update(f);
        }
        assert_eq!(ordered.len(), shuffled.len());
        for id in 1..=5u32 {
            assert_eq!(ordered.latest(id), shuffled.latest(id), "vessel {id} diverged");
        }
    }

    #[test]
    fn neighbours_at_high_latitude_widen_reach() {
        // At 70°N a 0.1° longitude cell is only ~3.8 km wide. Two
        // vessels ~14.8 km apart in longitude (inside a 15 km radius)
        // sit 4 cells apart — beyond the old fixed 3-cell reach
        // derived from the 11 km latitude cell size.
        let mut idx = LiveIndex::new();
        idx.update(&fix(1, 0, 70.0, 5.095, 15.0, 90.0));
        idx.update(&fix(2, 0, 70.0, 5.485, 15.0, 270.0));
        let d = haversine_m(Position::new(70.0, 5.095), Position::new(70.0, 5.485));
        assert!(d < 15_000.0, "test geometry broke: {d}");
        let n = idx.neighbours(&fix(1, 0, 70.0, 5.095, 15.0, 90.0), 15_000.0);
        assert_eq!(n.len(), 1, "high-latitude neighbour missed");
        assert_eq!(n[0].id, 2);
    }

    #[test]
    fn collision_pair_at_high_latitude_is_screened() {
        // The same geometry as above, head-on at 15 kn: a genuine
        // collision course the fixed-reach index never saw.
        let mut idx = LiveIndex::new();
        let mut d = CollisionDetector::new(CollisionConfig::default());
        idx.update(&fix(1, 0, 70.0, 5.095, 15.0, 90.0));
        idx.update(&fix(2, 0, 70.0, 5.485, 15.0, 270.0));
        let events = col_sweep(&mut d, &idx, 0);
        assert_eq!(events.len(), 1, "70°N collision pair missed");
        match &events[0].kind {
            EventKind::CollisionRisk { other, dcpa_m, tcpa_s } => {
                assert_eq!(*other, 2);
                assert!(*dcpa_m < 300.0);
                assert!(*tcpa_s > 0.0 && *tcpa_s <= 1_200.0, "tcpa {tcpa_s}");
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn fleet_index_merges_shards() {
        let mut a = LiveIndex::new();
        let mut b = LiveIndex::new();
        a.update(&fix(1, 0, 43.0, 5.0, 3.0, 0.0));
        b.update(&fix(2, 0, 43.001, 5.0, 3.0, 0.0));
        let shards = [a, b];
        let view = FleetIndex::snapshot(&shards);
        assert_eq!(view.len(), 2);
        assert_eq!(view.shard_count(), 2);
        assert_eq!(view.latest(2).unwrap().id, 2);
        let n = view.neighbours(&fix(1, 0, 43.0, 5.0, 3.0, 0.0), 1_000.0);
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].id, 2);
    }

    #[test]
    fn rendezvous_requires_sustained_proximity() {
        let mut idx = LiveIndex::new();
        let mut d = RendezvousDetector::new(RendezvousConfig {
            min_duration: 20 * MINUTE,
            ..Default::default()
        });
        let mut events = Vec::new();
        for i in 0..30 {
            idx.update(&fix(1, i, 42.60, 4.80, 1.0, 0.0));
            idx.update(&fix(2, i, 42.601, 4.80, 1.5, 180.0)); // ~110 m apart
            events.extend(rz_sweep(&mut d, &idx, i));
        }
        assert_eq!(events.len(), 1, "exactly one rendezvous report");
        match &events[0].kind {
            EventKind::Rendezvous { minutes, distance_m, other } => {
                assert!(*minutes >= 20.0);
                assert!(*distance_m < 200.0);
                assert_eq!(*other, 2);
            }
            k => panic!("wrong kind {k:?}"),
        }
        assert_eq!(events[0].vessel, 1, "reported once, by the smaller id");
    }

    #[test]
    fn rendezvous_version_cache_skips_recompute() {
        // Two anchored vessels that transmit once: subsequent sweeps
        // reuse the cached distance (versions unchanged) and still
        // accumulate duration — within the freshness horizon.
        let mut idx = LiveIndex::new();
        let mut d = RendezvousDetector::new(RendezvousConfig {
            min_duration: 2 * MINUTE,
            freshness: 10 * MINUTE,
            ..Default::default()
        });
        idx.update(&fix(1, 0, 42.60, 4.80, 0.8, 0.0));
        idx.update(&fix(2, 0, 42.601, 4.80, 0.8, 0.0));
        let mut events = Vec::new();
        for i in 0..4 {
            events.extend(rz_sweep(&mut d, &idx, i));
        }
        assert_eq!(events.len(), 1, "cached sweeps still accrue duration");
        assert_eq!(d.open_pairs(), 1);
    }

    #[test]
    fn passing_vessels_no_rendezvous() {
        let mut idx = LiveIndex::new();
        let mut d = RendezvousDetector::new(RendezvousConfig::default());
        let mut events = Vec::new();
        // Two fast vessels crossing: close only briefly, and too fast.
        for i in 0..30 {
            idx.update(&fix(1, i, 42.60, 4.70 + i as f64 * 0.01, 14.0, 90.0));
            idx.update(&fix(2, i, 42.60, 5.00 - i as f64 * 0.01, 14.0, 270.0));
            events.extend(rz_sweep(&mut d, &idx, i));
        }
        assert!(events.is_empty());
    }

    #[test]
    fn rendezvous_suppressed_in_exclusion_zone() {
        let anchorage = Polygon::circle(Position::new(42.60, 4.80), 5_000.0);
        let mut idx = LiveIndex::new();
        let mut d = RendezvousDetector::new(RendezvousConfig {
            exclusion_zones: vec![anchorage],
            ..Default::default()
        });
        let mut events = Vec::new();
        for i in 0..40 {
            idx.update(&fix(1, i, 42.60, 4.80, 1.0, 0.0));
            idx.update(&fix(2, i, 42.601, 4.80, 1.0, 0.0));
            events.extend(rz_sweep(&mut d, &idx, i));
        }
        assert!(events.is_empty(), "anchorage proximity is normal");
    }

    #[test]
    fn rendezvous_pair_expires_when_partner_goes_dark() {
        let mut idx = LiveIndex::new();
        let mut d = RendezvousDetector::new(RendezvousConfig {
            freshness: 5 * MINUTE,
            ..Default::default()
        });
        idx.update(&fix(1, 0, 42.60, 4.80, 1.0, 0.0));
        idx.update(&fix(2, 0, 42.601, 4.80, 1.0, 0.0));
        rz_sweep(&mut d, &idx, 0);
        assert_eq!(d.open_pairs(), 1);
        // Vessel 2 stops transmitting; vessel 1 keeps going.
        for i in 1..10 {
            idx.update(&fix(1, i, 42.60, 4.80, 1.0, 0.0));
            rz_sweep(&mut d, &idx, i);
        }
        assert_eq!(d.open_pairs(), 0, "stale partner must not hold the pair open");
    }

    #[test]
    fn rendezvous_evict_drops_pairs() {
        let mut idx = LiveIndex::new();
        let mut d = RendezvousDetector::new(RendezvousConfig::default());
        idx.update(&fix(1, 0, 42.60, 4.80, 1.0, 0.0));
        idx.update(&fix(2, 0, 42.601, 4.80, 1.0, 0.0));
        rz_sweep(&mut d, &idx, 0);
        assert_eq!(d.open_pairs(), 1);
        d.evict(&HashSet::from([2u32]));
        assert_eq!(d.open_pairs(), 0);
    }

    #[test]
    fn collision_alert_on_head_on_course() {
        let mut idx = LiveIndex::new();
        let mut d = CollisionDetector::new(CollisionConfig::default());
        // 6 NM apart, closing head-on at 10 kn each: TCPA ~18 min.
        idx.update(&fix(1, 0, 42.60, 4.80, 10.0, 90.0));
        idx.update(&fix(2, 0, 42.60, 4.80 + 0.1356, 10.0, 270.0));
        let events = col_sweep(&mut d, &idx, 0);
        assert_eq!(events.len(), 1);
        match &events[0].kind {
            EventKind::CollisionRisk { dcpa_m, tcpa_s, other } => {
                assert!(*dcpa_m < 300.0);
                assert!(*tcpa_s > 600.0 && *tcpa_s < 1_200.0, "tcpa {tcpa_s}");
                assert_eq!(*other, 2);
            }
            k => panic!("wrong kind {k:?}"),
        }
        // Re-arm: the next sweep is silent even though the geometry
        // still alarms.
        let again = col_sweep(&mut d, &idx, 1);
        assert!(again.is_empty());
        assert_eq!(d.armed_pairs(), 1);
        // Once the re-arm window passes (and the fixes have gone
        // stale), the re-arm entry self-prunes.
        let later = col_sweep(&mut d, &idx, 11);
        assert!(later.is_empty());
        assert_eq!(d.armed_pairs(), 0, "expired re-arm entries must be pruned");
    }

    #[test]
    fn parallel_courses_no_alert() {
        let mut idx = LiveIndex::new();
        let mut d = CollisionDetector::new(CollisionConfig::default());
        idx.update(&fix(1, 0, 42.60, 4.80, 10.0, 0.0));
        idx.update(&fix(2, 0, 42.60, 4.85, 10.0, 0.0)); // 4 km abeam, same course
        assert!(col_sweep(&mut d, &idx, 0).is_empty());
    }

    #[test]
    fn moored_vessels_no_collision_alert() {
        let mut idx = LiveIndex::new();
        let mut d = CollisionDetector::new(CollisionConfig::default());
        idx.update(&fix(1, 0, 42.60, 4.80, 0.1, 0.0));
        idx.update(&fix(2, 0, 42.6001, 4.80, 0.1, 0.0));
        assert!(col_sweep(&mut d, &idx, 0).is_empty());
    }
}
