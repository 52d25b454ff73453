//! World models: ports, lanes, zones and prebuilt scenario regions.

use mda_geo::{BoundingBox, Polygon, Position};

/// A port (named anchor point of traffic).
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name (also used as destination string in type-5 messages).
    pub name: String,
    /// Port position.
    pub pos: Position,
}

/// What a zone means to the event detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneKind {
    /// Fishing or navigation prohibited.
    ProtectedArea,
    /// Designated anchorage.
    Anchorage,
    /// Port approach area.
    PortApproach,
    /// Generic surveillance region of interest.
    Surveillance,
}

/// A named polygonal zone.
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    /// Zone name.
    pub name: String,
    /// Zone semantics.
    pub kind: ZoneKind,
    /// Zone geometry.
    pub area: Polygon,
}

/// A shipping lane: an ordered waypoint polyline between two ports.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    /// Index of the origin port in [`World::ports`].
    pub from: usize,
    /// Index of the destination port.
    pub to: usize,
    /// Waypoints from origin to destination (inclusive of both port
    /// positions).
    pub waypoints: Vec<Position>,
}

/// A complete scenario world.
#[derive(Debug, Clone)]
pub struct World {
    /// Region of interest.
    pub bounds: BoundingBox,
    /// Ports.
    pub ports: Vec<Port>,
    /// Lanes between ports.
    pub lanes: Vec<Lane>,
    /// Zones of interest.
    pub zones: Vec<Zone>,
}

impl World {
    /// Zones of a given kind.
    pub fn zones_of(&self, kind: ZoneKind) -> impl Iterator<Item = &Zone> {
        self.zones.iter().filter(move |z| z.kind == kind)
    }

    /// Find a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// A regional world modelled on the Gulf of Lion (NW Mediterranean):
    /// three ports, criss-crossing lanes, one protected area, one
    /// anchorage. All experiments except Figure 1 run here.
    pub fn gulf_of_lion() -> World {
        let marseille = Port { name: "MARSEILLE".into(), pos: Position::new(43.28, 5.33) };
        let toulon = Port { name: "TOULON".into(), pos: Position::new(43.08, 5.93) };
        let sete = Port { name: "SETE".into(), pos: Position::new(43.37, 3.69) };
        let offshore = Position::new(42.5, 4.8); // open-sea waypoint

        let lanes = vec![
            Lane {
                from: 0,
                to: 1,
                waypoints: vec![
                    marseille.pos,
                    Position::new(43.15, 5.40),
                    Position::new(43.02, 5.70),
                    toulon.pos,
                ],
            },
            Lane {
                from: 0,
                to: 2,
                waypoints: vec![
                    marseille.pos,
                    Position::new(43.10, 4.90),
                    Position::new(43.20, 4.20),
                    sete.pos,
                ],
            },
            Lane {
                from: 1,
                to: 2,
                waypoints: vec![
                    toulon.pos,
                    Position::new(42.85, 5.30),
                    offshore,
                    Position::new(43.00, 4.00),
                    sete.pos,
                ],
            },
        ];

        let protected = Zone {
            name: "CALANQUES-RESERVE".into(),
            kind: ZoneKind::ProtectedArea,
            area: Polygon::new(vec![
                Position::new(43.10, 5.35),
                Position::new(43.10, 5.60),
                Position::new(43.22, 5.60),
                Position::new(43.22, 5.35),
            ])
            .expect("4 vertices"),
        };
        let anchorage = Zone {
            name: "MARSEILLE-ANCHORAGE".into(),
            kind: ZoneKind::Anchorage,
            area: Polygon::circle(Position::new(43.24, 5.25), 4_000.0),
        };
        let approach = Zone {
            name: "MARSEILLE-APPROACH".into(),
            kind: ZoneKind::PortApproach,
            area: Polygon::circle(marseille.pos, 9_000.0),
        };

        World {
            bounds: BoundingBox::new(42.0, 3.0, 43.9, 6.5),
            ports: vec![marseille, toulon, sete],
            lanes,
            zones: vec![protected, anchorage, approach],
        }
    }

    /// A global world: major ports on all continents connected by
    /// long-haul trade lanes. Used by the Figure-1 coverage experiment.
    pub fn global_trade() -> World {
        let ports = [
            ("ROTTERDAM", 51.95, 4.05),
            ("NEW YORK", 40.50, -73.80),
            ("SANTOS", -24.05, -46.25),
            ("CAPE TOWN", -33.90, 18.30),
            ("SINGAPORE", 1.20, 103.80),
            ("SHANGHAI", 31.00, 122.20),
            ("TOKYO", 35.30, 139.90),
            ("LOS ANGELES", 33.60, -118.30),
            ("SYDNEY", -33.95, 151.30),
            ("DUBAI", 25.20, 55.20),
            ("MUMBAI", 18.85, 72.75),
            ("LAGOS", 6.30, 3.30),
        ]
        .iter()
        .map(|(n, lat, lon)| Port { name: (*n).into(), pos: Position::new(*lat, *lon) })
        .collect::<Vec<_>>();

        // Lanes as port-index pairs with optional via-waypoints; the
        // routes are stylised great-circle-ish polylines avoiding land
        // only approximately — adequate for coverage statistics.
        let route = |from: usize, to: usize, via: &[(f64, f64)]| {
            let mut waypoints = vec![ports[from].pos];
            waypoints.extend(via.iter().map(|(a, b)| Position::new(*a, *b)));
            waypoints.push(ports[to].pos);
            Lane { from, to, waypoints }
        };

        let lanes = vec![
            route(0, 1, &[(49.0, -10.0), (45.0, -40.0)]), // N Atlantic
            route(1, 2, &[(25.0, -65.0), (0.0, -40.0)]),  // Americas
            route(2, 3, &[(-30.0, -20.0)]),               // S Atlantic
            route(3, 4, &[(-35.0, 40.0), (-10.0, 80.0), (0.0, 95.0)]), // Indian Ocean
            route(4, 5, &[(5.0, 108.0), (20.0, 117.0)]),  // SCS
            route(5, 6, &[(32.0, 128.0)]),                // ECS
            route(6, 7, &[(40.0, 160.0), (40.0, -150.0)]), // N Pacific
            route(4, 8, &[(-10.0, 110.0), (-25.0, 130.0)]), // Australia
            route(9, 4, &[(22.0, 62.0), (8.0, 75.0)]),    // Gulf–Asia
            route(0, 9, &[(36.0, -6.0), (33.0, 15.0), (31.5, 32.3), (27.0, 34.0), (12.5, 45.0)]), // Suez
            route(10, 9, &[(20.0, 65.0)]), // Mumbai–Dubai
            route(11, 0, &[(15.0, -18.0), (36.0, -7.0)]), // W Africa–Europe
        ];

        World { bounds: BoundingBox::WORLD, ports, lanes, zones: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gulf_world_is_consistent() {
        let w = World::gulf_of_lion();
        assert_eq!(w.ports.len(), 3);
        assert!(!w.lanes.is_empty());
        for lane in &w.lanes {
            assert!(lane.from < w.ports.len() && lane.to < w.ports.len());
            assert!(lane.waypoints.len() >= 2);
            // Lane endpoints coincide with the port positions.
            assert_eq!(lane.waypoints[0], w.ports[lane.from].pos);
            assert_eq!(*lane.waypoints.last().unwrap(), w.ports[lane.to].pos);
            for p in &lane.waypoints {
                assert!(w.bounds.contains(*p), "waypoint {p} outside bounds");
            }
        }
        assert_eq!(w.zones_of(ZoneKind::ProtectedArea).count(), 1);
        assert!(w.port("MARSEILLE").is_some());
        assert!(w.port("ATLANTIS").is_none());
    }

    #[test]
    fn global_world_spans_oceans() {
        let w = World::global_trade();
        assert!(w.ports.len() >= 10);
        assert!(w.lanes.len() >= 10);
        let lon_span: Vec<f64> = w.ports.iter().map(|p| p.pos.lon).collect();
        assert!(lon_span.iter().cloned().fold(f64::INFINITY, f64::min) < -70.0);
        assert!(lon_span.iter().cloned().fold(f64::NEG_INFINITY, f64::max) > 130.0);
        for lane in &w.lanes {
            assert!(lane.waypoints.len() >= 2);
            for p in &lane.waypoints {
                assert!(p.is_valid());
            }
        }
    }
}
