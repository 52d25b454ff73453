//! Event time as integer milliseconds since the Unix epoch.
//!
//! The workspace uses logical event time everywhere (simulated clocks in
//! `mda-sim`, watermark-driven processing in `mda-stream`); wall-clock time
//! never appears in algorithm code, which keeps every experiment
//! deterministic and replayable.

use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A duration in milliseconds (may be negative as an intermediate value).
pub type DurationMs = i64;

/// Milliseconds in one second.
pub const SECOND: DurationMs = 1_000;
/// Milliseconds in one minute.
pub const MINUTE: DurationMs = 60 * SECOND;
/// Milliseconds in one hour.
pub const HOUR: DurationMs = 60 * MINUTE;
/// Milliseconds in one day.
pub const DAY: DurationMs = 24 * HOUR;

/// A point in event time, in milliseconds since the Unix epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The smallest representable timestamp.
    pub const MIN: Timestamp = Timestamp(i64::MIN);
    /// The largest representable timestamp.
    pub const MAX: Timestamp = Timestamp(i64::MAX);

    /// From whole seconds since the epoch.
    #[inline]
    pub const fn from_secs(s: i64) -> Self {
        Timestamp(s * 1_000)
    }

    /// From whole minutes since the epoch.
    #[inline]
    pub const fn from_mins(m: i64) -> Self {
        Timestamp(m * MINUTE)
    }

    /// Milliseconds since the epoch.
    #[inline]
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Seconds since the epoch as `f64` (for metric computations).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Elapsed time from `earlier` to `self` in milliseconds (negative if
    /// `self` precedes `earlier`).
    #[inline]
    pub fn since(self, earlier: Timestamp) -> DurationMs {
        self.0 - earlier.0
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: DurationMs) -> Timestamp {
        Timestamp(self.0.saturating_add(d))
    }

    /// Truncate to the start of the window of length `width_ms` that
    /// contains this instant (floor alignment; handles negative times).
    #[inline]
    pub fn window_start(self, width_ms: DurationMs) -> Timestamp {
        assert!(width_ms > 0, "window width must be positive");
        Timestamp(self.0.div_euclid(width_ms) * width_ms)
    }
}

impl Add<DurationMs> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: DurationMs) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl AddAssign<DurationMs> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: DurationMs) {
        self.0 += rhs;
    }
}

impl Sub<DurationMs> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: DurationMs) -> Timestamp {
        Timestamp(self.0 - rhs)
    }
}

impl SubAssign<DurationMs> for Timestamp {
    #[inline]
    fn sub_assign(&mut self, rhs: DurationMs) {
        self.0 -= rhs;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = DurationMs;
    #[inline]
    fn sub(self, rhs: Timestamp) -> DurationMs {
        self.0 - rhs.0
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(10);
        assert_eq!(t + 500, Timestamp(10_500));
        assert_eq!(t - 500, Timestamp(9_500));
        assert_eq!((t + MINUTE) - t, MINUTE);
        assert_eq!(t.since(Timestamp::from_secs(4)), 6 * SECOND);
    }

    #[test]
    fn window_alignment() {
        assert_eq!(Timestamp(12_345).window_start(10_000), Timestamp(10_000));
        assert_eq!(Timestamp(-1).window_start(10_000), Timestamp(-10_000));
        assert_eq!(Timestamp(0).window_start(10_000), Timestamp(0));
        assert_eq!(Timestamp(9_999).window_start(10_000), Timestamp(0));
    }

    #[test]
    fn ordering() {
        assert!(Timestamp(1) < Timestamp(2));
        assert!(Timestamp::MIN < Timestamp(0));
        assert!(Timestamp(0) < Timestamp::MAX);
    }

    #[test]
    fn mutating_ops() {
        let mut t = Timestamp(0);
        t += HOUR;
        t -= MINUTE;
        assert_eq!(t, Timestamp(HOUR - MINUTE));
    }
}
