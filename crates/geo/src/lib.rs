//! Geospatial and kinematic substrate for the maritime analytics workspace.
//!
//! Every other crate builds on the vocabulary defined here:
//!
//! - [`Position`] — WGS84 latitude/longitude in degrees.
//! - [`Timestamp`] / [`DurationMs`] — event time in integer milliseconds.
//! - [`Fix`] — a timestamped kinematic observation of a moving object
//!   (position, speed over ground, course over ground).
//! - Distance/bearing math on the sphere ([`distance`]), local metric
//!   projections ([`projection`]), and motion models ([`motion`]).
//! - Spatial shapes: [`bbox::BoundingBox`] and [`polygon::Polygon`].
//! - Compact storage codecs ([`codec`]): varints, zigzag deltas,
//!   fixed-point quantization and bit-exact float transport, shared by
//!   the sealed cold-tier trajectory segments.
//!
//! The crate is dependency-light on purpose: it is the bottom of the
//! workspace dependency graph and is exercised by property tests that
//! compare indexed queries against brute-force scans.
//!
//! ## Example
//!
//! ```
//! use mda_geo::distance::haversine_m;
//! use mda_geo::{Fix, Position, Timestamp};
//!
//! let marseille = Position::new(43.30, 5.37);
//! let toulon = Position::new(43.12, 5.93);
//! let d = haversine_m(marseille, toulon);
//! assert!((40_000.0..60_000.0).contains(&d), "Marseille-Toulon is ~49 km");
//!
//! let fix = Fix::new(1, Timestamp::from_secs(0), marseille, 12.0, 90.0);
//! assert!(fix.speed_mps() > 6.0);
//! ```

pub mod bbox;
pub mod codec;
pub mod distance;
pub mod motion;
pub mod polygon;
pub mod pos;
pub mod projection;
pub mod time;
pub mod units;

pub use bbox::BoundingBox;
pub use motion::{vessel_shard, Fix, VesselId};
pub use polygon::Polygon;
pub use pos::Position;
pub use time::{DurationMs, Timestamp};
