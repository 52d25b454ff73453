//! Multi-source tracking and fusion (paper §2.4).
//!
//! The information-fusion layer of the architecture: build vessel tracks
//! from heterogeneous sensors (AIS, coastal radar, VMS), associate new
//! contacts to tracks, and smooth kinematics.
//!
//! - [`kalman`] — constant-velocity Kalman filter over a local metric
//!   frame, with innovation gating (Mahalanobis distance).
//! - [`sensor`] — the common sensor-report vocabulary: identity-bearing
//!   (AIS/VMS) and anonymous (radar) contacts with per-source accuracy.
//! - [`associate`] — contact→track gating and greedy global-nearest-
//!   neighbour assignment.
//! - [`fusion`] — the [`fusion::Fuser`]: track lifecycle (tentative,
//!   confirmed, coasted, dropped), identity management, multi-source
//!   update, coverage accounting.
//!
//! ## Example
//!
//! ```
//! use mda_geo::{Fix, Position, Timestamp};
//! use mda_track::{Fuser, FuserConfig, SensorKind, SensorReport};
//!
//! let mut fuser = Fuser::new(FuserConfig::default());
//! for i in 0..5i64 {
//!     let fix = Fix::new(
//!         9,
//!         Timestamp::from_secs(i * 10),
//!         Position::new(43.0, 5.0 + 0.001 * i as f64),
//!         10.0,
//!         90.0,
//!     );
//!     fuser.ingest(&SensorReport::from_fix(SensorKind::AisTerrestrial, &fix));
//! }
//! assert!(fuser.tracks().count() >= 1);
//! ```

pub mod associate;
pub mod fusion;
pub mod kalman;
pub mod sensor;

pub use fusion::{Fuser, FuserConfig, Track, TrackState};
pub use kalman::{CvKalman, KalmanConfig};
pub use sensor::{SensorKind, SensorReport};
