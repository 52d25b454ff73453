//! Zone analytics: entry, exit, dwell, and illegal fishing.

use crate::event::{EventKind, MaritimeEvent};
use mda_geo::{Fix, Polygon, Timestamp, VesselId};
use std::collections::{HashMap, HashSet};

/// A zone the detector watches.
#[derive(Debug, Clone)]
pub struct NamedZone {
    /// Zone name (stable key in emitted events).
    pub name: String,
    /// Geometry.
    pub area: Polygon,
    /// Fishing inside is illegal (protected area).
    pub protected: bool,
}

/// Speed band regarded as "fishing-like" (trawling speeds).
const FISHING_SPEED_KN: (f64, f64) = (0.8, 5.5);

/// Streaming zone detector over all vessels and zones.
#[derive(Debug)]
pub struct ZoneDetector {
    zones: Vec<NamedZone>,
    /// Entry time per (vessel, zone index) while inside.
    inside: HashMap<(VesselId, usize), Timestamp>,
    /// Whether illegal fishing was already reported for this visit.
    fishing_reported: HashMap<(VesselId, usize), bool>,
}

impl ZoneDetector {
    /// Watch the given zones.
    pub fn new(zones: Vec<NamedZone>) -> Self {
        Self { zones, inside: HashMap::new(), fishing_reported: HashMap::new() }
    }

    /// The zones being watched.
    pub fn zones(&self) -> &[NamedZone] {
        &self.zones
    }

    /// Observe a fix; emits entries/exits and illegal-fishing alerts.
    pub fn observe(&mut self, fix: &Fix) -> Vec<MaritimeEvent> {
        let mut out = Vec::new();
        for (zi, zone) in self.zones.iter().enumerate() {
            let key = (fix.id, zi);
            let is_inside = zone.area.contains(fix.pos);
            match (self.inside.contains_key(&key), is_inside) {
                (false, true) => {
                    self.inside.insert(key, fix.t);
                    self.fishing_reported.insert(key, false);
                    out.push(MaritimeEvent {
                        t: fix.t,
                        vessel: fix.id,
                        pos: fix.pos,
                        kind: EventKind::ZoneEntry { zone: zone.name.clone() },
                    });
                }
                (true, false) => {
                    let entered = self.inside.remove(&key).expect("key present");
                    self.fishing_reported.remove(&key);
                    out.push(MaritimeEvent {
                        t: fix.t,
                        vessel: fix.id,
                        pos: fix.pos,
                        kind: EventKind::ZoneExit {
                            zone: zone.name.clone(),
                            dwell_min: (fix.t - entered) as f64 / 60_000.0,
                        },
                    });
                }
                (true, true) => {
                    // Illegal fishing: fishing-band speed inside a
                    // protected area, reported once per visit.
                    if zone.protected
                        && fix.sog_kn >= FISHING_SPEED_KN.0
                        && fix.sog_kn <= FISHING_SPEED_KN.1
                        && !self.fishing_reported.get(&key).copied().unwrap_or(false)
                    {
                        self.fishing_reported.insert(key, true);
                        out.push(MaritimeEvent {
                            t: fix.t,
                            vessel: fix.id,
                            pos: fix.pos,
                            kind: EventKind::IllegalFishing { zone: zone.name.clone() },
                        });
                    }
                }
                (false, false) => {}
            }
        }
        out
    }

    /// Drop all state of the evicted vessels (TTL path) in one pass
    /// over the open visits, however many vessels age out at once.
    ///
    /// No `ZoneExit` is synthesised: a vessel that went dark inside a
    /// zone was last *seen* inside, and inventing an exit with an
    /// unknowable dwell would be a fabricated observation. If it
    /// resurfaces inside the zone later, a fresh `ZoneEntry` opens a
    /// new visit.
    pub fn evict(&mut self, gone: &HashSet<VesselId>) {
        if gone.is_empty() {
            return;
        }
        self.inside.retain(|(v, _), _| !gone.contains(v));
        self.fishing_reported.retain(|(v, _), _| !gone.contains(v));
    }

    /// Open (vessel, zone) visits currently tracked (diagnostic).
    pub fn open_visits(&self) -> usize {
        self.inside.len()
    }

    /// Vessels currently inside the given zone.
    pub fn occupancy(&self, zone_name: &str) -> usize {
        let Some(zi) = self.zones.iter().position(|z| z.name == zone_name) else {
            return 0;
        };
        self.inside.keys().filter(|(_, z)| *z == zi).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::{BoundingBox, Position};

    fn square_zone(name: &str, protected: bool) -> NamedZone {
        NamedZone {
            name: name.into(),
            area: Polygon::rectangle(BoundingBox::new(43.0, 5.0, 43.2, 5.2)),
            protected,
        }
    }

    fn fix(id: u32, t_min: i64, lat: f64, lon: f64, sog: f64) -> Fix {
        Fix::new(id, Timestamp::from_mins(t_min), Position::new(lat, lon), sog, 90.0)
    }

    #[test]
    fn entry_dwell_exit() {
        let mut d = ZoneDetector::new(vec![square_zone("RESERVE", false)]);
        assert!(d.observe(&fix(1, 0, 42.9, 5.1, 10.0)).is_empty());
        let entry = d.observe(&fix(1, 5, 43.1, 5.1, 10.0));
        assert_eq!(entry.len(), 1);
        assert!(matches!(&entry[0].kind, EventKind::ZoneEntry { zone } if zone == "RESERVE"));
        assert_eq!(d.occupancy("RESERVE"), 1);
        assert!(d.observe(&fix(1, 10, 43.15, 5.1, 10.0)).is_empty(), "still inside");
        let exit = d.observe(&fix(1, 25, 43.3, 5.1, 10.0));
        assert_eq!(exit.len(), 1);
        match &exit[0].kind {
            EventKind::ZoneExit { zone, dwell_min } => {
                assert_eq!(zone, "RESERVE");
                assert!((dwell_min - 20.0).abs() < 1e-9);
            }
            k => panic!("wrong kind {k:?}"),
        }
        assert_eq!(d.occupancy("RESERVE"), 0);
    }

    #[test]
    fn illegal_fishing_once_per_visit() {
        let mut d = ZoneDetector::new(vec![square_zone("RESERVE", true)]);
        d.observe(&fix(1, 0, 43.1, 5.1, 10.0)); // entry at transit speed
        let slow1 = d.observe(&fix(1, 5, 43.11, 5.1, 3.0));
        assert_eq!(slow1.len(), 1);
        assert!(matches!(&slow1[0].kind, EventKind::IllegalFishing { .. }));
        // Continues fishing: no repeated alert.
        assert!(d.observe(&fix(1, 10, 43.12, 5.11, 2.5)).is_empty());
        // Leaves and comes back: a new visit can alert again.
        d.observe(&fix(1, 20, 42.9, 5.1, 8.0));
        d.observe(&fix(1, 30, 43.1, 5.1, 8.0));
        let again = d.observe(&fix(1, 35, 43.11, 5.1, 3.0));
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn transit_through_protected_zone_is_not_fishing() {
        let mut d = ZoneDetector::new(vec![square_zone("RESERVE", true)]);
        d.observe(&fix(1, 0, 43.1, 5.05, 14.0));
        let inside = d.observe(&fix(1, 3, 43.1, 5.1, 14.0));
        assert!(inside.is_empty(), "fast transit is legal");
        // Moored inside (speed ~0) is not fishing either.
        let moored = d.observe(&fix(1, 6, 43.1, 5.12, 0.1));
        assert!(moored.is_empty());
    }

    #[test]
    fn unprotected_zone_never_fishing_alerts() {
        let mut d = ZoneDetector::new(vec![square_zone("ANCHORAGE", false)]);
        d.observe(&fix(1, 0, 43.1, 5.1, 3.0));
        assert!(d.observe(&fix(1, 5, 43.11, 5.1, 3.0)).is_empty());
    }

    #[test]
    fn evict_closes_visits_silently_and_rearms_entry() {
        let mut d = ZoneDetector::new(vec![square_zone("RESERVE", true)]);
        d.observe(&fix(1, 0, 43.1, 5.1, 10.0));
        assert_eq!(d.occupancy("RESERVE"), 1);
        d.evict(&HashSet::from([1]));
        assert_eq!(d.occupancy("RESERVE"), 0);
        assert_eq!(d.open_visits(), 0);
        // The vessel resurfaces inside: a fresh visit (entry + a new
        // fishing budget) rather than a resumed one.
        let back = d.observe(&fix(1, 300, 43.1, 5.1, 3.0));
        assert!(back.iter().any(|e| matches!(e.kind, EventKind::ZoneEntry { .. })));
    }

    #[test]
    fn multiple_vessels_and_zones() {
        let z1 = square_zone("A", false);
        let z2 = NamedZone {
            name: "B".into(),
            area: Polygon::rectangle(BoundingBox::new(44.0, 6.0, 44.2, 6.2)),
            protected: false,
        };
        let mut d = ZoneDetector::new(vec![z1, z2]);
        d.observe(&fix(1, 0, 43.1, 5.1, 10.0));
        d.observe(&fix(2, 0, 44.1, 6.1, 10.0));
        assert_eq!(d.occupancy("A"), 1);
        assert_eq!(d.occupancy("B"), 1);
        assert_eq!(d.occupancy("C"), 0);
    }
}
