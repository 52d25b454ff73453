//! Seeded request lists and subscription filters, and the direct
//! (`QueryService`) answer every wire answer is checked against.
//!
//! Requests are generated as *templates* whose instants are relative
//! (`back` milliseconds before a reference instant), so one list
//! serves a live server (resolved against the watermark the client
//! last saw) and a finished archive (resolved against its final
//! stamp).

use crate::catalog::KINDS;
use crate::feed::World;
use mda_core::{Stamped, SystemSnapshot};
use mda_events::ring::EventFilter;
use mda_geo::time::MINUTE;
use mda_geo::{BoundingBox, DurationMs, Position, Timestamp, VesselId};
use mda_serve::{encode_request, Request, Response};
use rand::rngs::StdRng;
use rand::Rng;

/// Vessels of the watchlist that 70 % of `serve-live`'s point and
/// predictive queries ask about.
pub const WATCHLIST: usize = 16;
/// Subscription sessions `serve-live` holds on its second connection.
pub const SESSIONS: usize = 32;

/// A request whose instants are relative to a reference instant.
#[derive(Debug, Clone, PartialEq)]
pub enum Tmpl {
    /// [`Request::Watermark`]
    Watermark,
    /// [`Request::Fleet`]
    Fleet,
    /// [`Request::Latest`]
    Latest(VesselId),
    /// [`Request::Trajectory`]
    Trajectory(VesselId),
    /// [`Request::PositionAt`], `back` before the reference.
    PositionAt(VesselId, DurationMs),
    /// [`Request::WhereAt`], `back` before the reference (negative:
    /// ahead of it, which routes through the forecast layer).
    WhereAt(VesselId, DurationMs),
    /// [`Request::Eta`]
    Eta(VesselId, Position),
    /// [`Request::Window`] from `.1` to `.2` before the reference.
    Window(BoundingBox, DurationMs, DurationMs),
    /// [`Request::Knn`] at `.1` before the reference.
    Knn(Position, DurationMs, usize),
}

impl Tmpl {
    /// The request at reference instant `now`.
    pub fn resolve(&self, now: Timestamp) -> Request {
        let at = |back: DurationMs| now.saturating_add(-back);
        match *self {
            Tmpl::Watermark => Request::Watermark,
            Tmpl::Fleet => Request::Fleet,
            Tmpl::Latest(id) => Request::Latest { id },
            Tmpl::Trajectory(id) => Request::Trajectory { id },
            Tmpl::PositionAt(id, back) => Request::PositionAt { id, t: at(back) },
            Tmpl::WhereAt(id, back) => Request::WhereAt { id, t: at(back) },
            Tmpl::Eta(id, dest) => Request::Eta { id, dest },
            Tmpl::Window(area, from, to) => Request::Window { area, from: at(from), to: at(to) },
            Tmpl::Knn(query, back, k) => Request::Knn { query, t: at(back), k },
        }
    }
}

/// Index of a request's kind into [`KINDS`] (session operations, which
/// the query phases never send, map to 0).
pub fn kind_of(request: &Request) -> usize {
    let name = match request {
        Request::Latest { .. } => "latest",
        Request::PositionAt { .. } => "position_at",
        Request::Trajectory { .. } => "trajectory",
        Request::Window { .. } => "window",
        Request::Knn { .. } => "knn",
        Request::Fleet => "fleet",
        Request::WhereAt { .. } => "where_at",
        Request::Eta { .. } => "eta",
        _ => "watermark",
    };
    KINDS.iter().position(|k| *k == name).unwrap_or(0)
}

/// CRC-32 of a template list (resolved at instant 0).
pub fn fingerprint(list: &[Tmpl]) -> u32 {
    let mut bytes = Vec::new();
    for t in list {
        bytes.extend_from_slice(&encode_request(&t.resolve(Timestamp(0))));
    }
    mda_serve::frame::crc32(&bytes)
}

fn any_vessel(rng: &mut StdRng, world: &World) -> VesselId {
    world.vessels[rng.gen_range(0..world.vessels.len())]
}

fn any_point(rng: &mut StdRng, world: &World) -> Position {
    let b = &world.bounds;
    Position::new(rng.gen_range(b.min_lat..b.max_lat), rng.gen_range(b.min_lon..b.max_lon))
}

fn half_degree_box(centre: Position) -> BoundingBox {
    BoundingBox::new(centre.lat - 0.25, centre.lon - 0.25, centre.lat + 0.25, centre.lon + 0.25)
}

/// The c13 query mix, per 32 requests: 6 `latest`, 6 `position_at`
/// (0–29 min back), 6 `where_at` (15 min ahead), 4 `window` (half-degree
/// box, last 20 min), 4 `knn` (k = 5, now), 2 `trajectory`, 2
/// `watermark`, 1 `fleet`, 1 `eta`. Point and predictive queries pick
/// a watchlist vessel 7 times in 10, so a live server sees repeats
/// within one watermark generation.
pub fn live_mix(rng: &mut StdRng, world: &World, n: usize) -> Vec<Tmpl> {
    let watch = WATCHLIST.min(world.vessels.len());
    let vessel = |rng: &mut StdRng| {
        if rng.gen_bool(0.7) {
            world.vessels[rng.gen_range(0..watch)]
        } else {
            any_vessel(rng, world)
        }
    };
    (0..n)
        .map(|i| match i % 32 {
            0..=5 => Tmpl::Latest(vessel(rng)),
            6..=11 => Tmpl::PositionAt(vessel(rng), rng.gen_range(0..30) * MINUTE),
            12..=17 => Tmpl::WhereAt(vessel(rng), -15 * MINUTE),
            18..=21 => Tmpl::Window(half_degree_box(any_point(rng, world)), 20 * MINUTE, 0),
            22..=25 => Tmpl::Knn(any_point(rng, world), 0, 5),
            26 | 27 => Tmpl::Trajectory(vessel(rng)),
            28 | 29 => Tmpl::Watermark,
            30 => Tmpl::Fleet,
            _ => Tmpl::Eta(vessel(rng), any_point(rng, world)),
        })
        .collect()
}

/// `n` requests answered by the archive alone (what a recovered
/// directory must answer bit-equal): `latest`, `position_at`,
/// `trajectory`, `window`, `knn`, `watermark`, over the whole recorded
/// span `span`.
pub fn archive_mix(rng: &mut StdRng, world: &World, span: DurationMs, n: usize) -> Vec<Tmpl> {
    let span = span.max(MINUTE);
    (0..n)
        .map(|i| match i % 16 {
            0..=3 => Tmpl::PositionAt(any_vessel(rng, world), rng.gen_range(0..span)),
            4..=6 => Tmpl::Latest(any_vessel(rng, world)),
            7..=9 => {
                let from = rng.gen_range(20 * MINUTE..span.max(21 * MINUTE));
                Tmpl::Window(half_degree_box(any_point(rng, world)), from, from - 20 * MINUTE)
            }
            10..=12 => Tmpl::Knn(any_point(rng, world), rng.gen_range(0..span), 5),
            13 | 14 => Tmpl::Trajectory(any_vessel(rng, world)),
            _ => Tmpl::Watermark,
        })
        .collect()
}

/// One `serve-archive` round: `n` pairwise distinct requests over the
/// *old* half of the recorded span (sealed cold by then): every
/// vessel's trajectory once (at most a quarter of the round), then
/// `position_at`, `window` (20 min, half-degree box) and `knn` at old
/// instants, 2 : 1 : 1 — so the median request is a point lookup, well
/// inside the cheap kinds, not on the boundary to the scans. The
/// instants are drawn at millisecond resolution and de-duplicated, and
/// the caller shifts the reference by one millisecond per round, so no
/// request ever repeats (trajectories excepted: they repeat once per
/// round, `n − 1 >` cache capacity requests apart, which a FIFO cache
/// of that capacity cannot hit).
pub fn distinct_round(rng: &mut StdRng, world: &World, span: DurationMs, n: usize) -> Vec<Tmpl> {
    let old = (span / 2).max(MINUTE)..span.max(2 * MINUTE);
    let mut list: Vec<Tmpl> =
        world.vessels.iter().take(n / 4).map(|&v| Tmpl::Trajectory(v)).collect();
    let mut seen = std::collections::BTreeSet::new();
    while list.len() < n {
        let back = rng.gen_range(old.clone());
        if !seen.insert(back) {
            continue;
        }
        list.push(match list.len() % 4 {
            0 => Tmpl::Window(half_degree_box(any_point(rng, world)), back, back - 20 * MINUTE),
            1 => Tmpl::Knn(any_point(rng, world), back, 5),
            _ => Tmpl::PositionAt(any_vessel(rng, world), back),
        });
    }
    // Interleave kinds so a round's cost is spread evenly: a seeded
    // Fisher–Yates shuffle.
    for i in (1..list.len()).rev() {
        list.swap(i, rng.gen_range(0..=i));
    }
    list
}

/// The subscription filters of `serve-live`: of every four sessions,
/// one watches two event kinds fleet-wide, one watches a zone, two
/// watch an 8-vessel set.
pub fn filters(rng: &mut StdRng, world: &World) -> Vec<EventFilter> {
    const LABELS: [&str; 8] = [
        "gap-start",
        "gap-end",
        "zone-entry",
        "zone-exit",
        "loitering",
        "rendezvous",
        "collision-risk",
        "spoofing",
    ];
    (0..SESSIONS)
        .map(|i| match i % 4 {
            0 => EventFilter::for_kinds([LABELS[(i / 4 * 2) % 8], LABELS[(i / 4 * 2 + 1) % 8]]),
            1 if !world.zones.is_empty() => {
                EventFilter::for_zone(world.zones[(i / 4) % world.zones.len()].name.clone())
            }
            _ => EventFilter::for_vessels((0..8).map(|_| any_vessel(rng, world))),
        })
        .collect()
}

/// Answer `request` straight from a snapshot — the in-process oracle,
/// and the "matching `QueryService` call" whose cost is
/// `core.query_us.<kind>`.
pub fn direct(snap: &SystemSnapshot, request: &Request) -> Response {
    match request {
        Request::Watermark => Response::Watermark { watermark: snap.watermark() },
        Request::Latest { id } => Response::Latest(snap.latest(*id)),
        Request::PositionAt { id, t } => Response::PositionAt(snap.position_at(*id, *t)),
        Request::Trajectory { id } => Response::Trajectory(snap.trajectory(*id)),
        Request::Window { area, from, to } => Response::Window(snap.window(area, *from, *to)),
        Request::Knn { query, t, k } => Response::Knn(snap.knn(*query, *t, *k)),
        Request::Fleet => {
            Response::Fleet(Stamped { watermark: snap.watermark(), value: snap.fleet() })
        }
        Request::WhereAt { id, t } => Response::WhereAt(snap.where_at(*id, *t)),
        Request::Eta { id, dest } => Response::Eta(snap.eta(*id, *dest)),
        other => Response::Error { message: format!("not a query: {other:?}") },
    }
}

/// The watermark a query answer is stamped with (`None` for answers
/// that carry none).
pub fn stamp_of(response: &Response) -> Option<Timestamp> {
    match response {
        Response::Watermark { watermark } => Some(*watermark),
        Response::Latest(s) => Some(s.watermark),
        Response::PositionAt(s) => Some(s.watermark),
        Response::Trajectory(s) => Some(s.watermark),
        Response::Window(s) => Some(s.watermark),
        Response::Knn(s) => Some(s.watermark),
        Response::Fleet(s) => Some(s.watermark),
        Response::WhereAt(s) => Some(s.watermark),
        Response::Eta(s) => Some(s.watermark),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn world() -> World {
        World {
            bounds: BoundingBox::new(42.0, 3.0, 44.0, 6.5),
            zones: Vec::new(),
            weather: None,
            vessels: (1..=40).collect(),
        }
    }

    #[test]
    fn a_distinct_round_never_repeats_a_request() {
        let list = distinct_round(&mut StdRng::seed_from_u64(1), &world(), 120 * MINUTE, 1_100);
        assert_eq!(list.len(), 1_100);
        let mut encoded: Vec<Vec<u8>> =
            list.iter().map(|t| encode_request(&t.resolve(Timestamp(7_200_000)))).collect();
        encoded.sort();
        encoded.dedup();
        assert_eq!(encoded.len(), 1_100, "every request of a round is distinct");
        // The next round (reference one millisecond later) shares
        // nothing with it but the trajectories.
        let next: std::collections::BTreeSet<Vec<u8>> =
            list.iter().map(|t| encode_request(&t.resolve(Timestamp(7_200_001)))).collect();
        let shared = encoded.iter().filter(|e| next.contains(*e)).count();
        assert_eq!(shared, list.iter().filter(|t| matches!(t, Tmpl::Trajectory(_))).count());
    }

    #[test]
    fn the_live_mix_covers_every_kind_and_favours_the_watchlist() {
        let w = world();
        let list = live_mix(&mut StdRng::seed_from_u64(2), &w, 3_200);
        let mut seen = [0usize; 9];
        for t in &list {
            seen[kind_of(&t.resolve(Timestamp(0)))] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "kinds {seen:?}");
        let on_watch = list
            .iter()
            .filter(|t| matches!(t, Tmpl::Latest(id) if w.vessels[..WATCHLIST].contains(id)))
            .count();
        assert!(on_watch * 10 > 600 * 7, "{on_watch} of 600 latest queries hit the watchlist");
        assert_eq!(fingerprint(&list), fingerprint(&list));
    }
}
