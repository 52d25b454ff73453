//! The maritime event vocabulary.

use mda_geo::{Position, Timestamp, VesselId};

/// How urgent an event is for the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine (e.g. port arrival).
    Info,
    /// Worth a look (e.g. loitering).
    Warning,
    /// Requires action (e.g. collision risk, spoofing).
    Alert,
}

/// The kinds of events the engine recognises.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// AIS silence began (detected retrospectively or by timeout).
    GapStart,
    /// AIS transmission resumed after a gap of the given minutes.
    GapEnd {
        /// Gap duration in minutes.
        minutes: f64,
    },
    /// Reported movement is kinematically impossible (teleport).
    KinematicSpoofing {
        /// Implied speed in knots between consecutive reports.
        implied_speed_kn: f64,
    },
    /// One identity transmitted from two incompatible locations.
    IdentityConflict {
        /// Distance between the two claimed positions, km.
        separation_km: f64,
    },
    /// Vessel entered a named zone.
    ZoneEntry {
        /// Zone name.
        zone: String,
    },
    /// Vessel left a named zone.
    ZoneExit {
        /// Zone name.
        zone: String,
        /// Dwell time inside, minutes.
        dwell_min: f64,
    },
    /// Fishing-speed movement inside a protected area.
    IllegalFishing {
        /// Zone name.
        zone: String,
    },
    /// Vessel stayed within a small radius while underway.
    Loitering {
        /// Radius of the loiter disc, metres.
        radius_m: f64,
        /// Duration of the loiter, minutes.
        minutes: f64,
    },
    /// Two vessels in sustained close proximity at sea.
    Rendezvous {
        /// The other vessel.
        other: VesselId,
        /// Mean separation during the encounter, metres.
        distance_m: f64,
        /// Encounter duration, minutes.
        minutes: f64,
    },
    /// Projected close approach.
    CollisionRisk {
        /// The other vessel.
        other: VesselId,
        /// Distance at closest point of approach, metres.
        dcpa_m: f64,
        /// Time to closest point of approach, seconds.
        tcpa_s: f64,
    },
}

impl EventKind {
    /// Default severity of this kind.
    pub fn severity(&self) -> Severity {
        match self {
            EventKind::GapStart | EventKind::GapEnd { .. } => Severity::Warning,
            EventKind::KinematicSpoofing { .. } | EventKind::IdentityConflict { .. } => {
                Severity::Alert
            }
            EventKind::ZoneEntry { .. } | EventKind::ZoneExit { .. } => Severity::Info,
            EventKind::IllegalFishing { .. } => Severity::Alert,
            EventKind::Loitering { .. } => Severity::Warning,
            EventKind::Rendezvous { .. } => Severity::Warning,
            EventKind::CollisionRisk { .. } => Severity::Alert,
        }
    }

    /// The zone this event is scoped to, for the zone-shaped kinds
    /// (entry, exit, illegal fishing); `None` for every other kind.
    /// Subscription zone filters match on this.
    pub fn zone_name(&self) -> Option<&str> {
        match self {
            EventKind::ZoneEntry { zone }
            | EventKind::ZoneExit { zone, .. }
            | EventKind::IllegalFishing { zone } => Some(zone.as_str()),
            _ => None,
        }
    }

    /// Short machine-readable label (used as grouping key in reports).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::GapStart => "gap-start",
            EventKind::GapEnd { .. } => "gap-end",
            EventKind::KinematicSpoofing { .. } => "spoofing",
            EventKind::IdentityConflict { .. } => "identity-conflict",
            EventKind::ZoneEntry { .. } => "zone-entry",
            EventKind::ZoneExit { .. } => "zone-exit",
            EventKind::IllegalFishing { .. } => "illegal-fishing",
            EventKind::Loitering { .. } => "loitering",
            EventKind::Rendezvous { .. } => "rendezvous",
            EventKind::CollisionRisk { .. } => "collision-risk",
        }
    }
}

/// A recognised event.
#[derive(Debug, Clone, PartialEq)]
pub struct MaritimeEvent {
    /// Event time (event-time semantics, not arrival time).
    pub t: Timestamp,
    /// Primary vessel involved.
    pub vessel: VesselId,
    /// Where it happened.
    pub pos: Position,
    /// What happened.
    pub kind: EventKind,
}

impl MaritimeEvent {
    /// Severity shortcut.
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }

    /// The canonical `(t, vessel, kind)` ordering key.
    ///
    /// The sharded engine merges per-shard emission by stable-sorting
    /// on this key, which is what makes its output independent of the
    /// shard count: one vessel's events always come from one shard in
    /// a deterministic per-vessel order, and the key interleaves
    /// different vessels' events identically however they were
    /// partitioned.
    pub fn sort_key(&self) -> (Timestamp, VesselId, &'static str) {
        (self.t, self.vessel, self.kind.label())
    }
}

impl std::fmt::Display for MaritimeEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:?}] {} vessel {} at {} ({})",
            self.severity(),
            self.kind.label(),
            self.vessel,
            self.pos,
            self.t
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Alert);
    }

    #[test]
    fn kind_severities() {
        assert_eq!(EventKind::GapStart.severity(), Severity::Warning);
        assert_eq!(
            EventKind::CollisionRisk { other: 2, dcpa_m: 100.0, tcpa_s: 300.0 }.severity(),
            Severity::Alert
        );
        assert_eq!(EventKind::ZoneEntry { zone: "X".into() }.severity(), Severity::Info);
    }

    #[test]
    fn display_is_informative() {
        let e = MaritimeEvent {
            t: Timestamp::from_secs(60),
            vessel: 227000001,
            pos: Position::new(43.0, 5.0),
            kind: EventKind::Loitering { radius_m: 500.0, minutes: 45.0 },
        };
        let s = e.to_string();
        assert!(s.contains("loitering"));
        assert!(s.contains("227000001"));
    }
}
