//! The common sensor-report vocabulary for fusion.
//!
//! The paper's fusion discussion (§2.4) turns on the *asymmetries*
//! between maritime sources: AIS is identity-bearing, accurate (~10 m)
//! and frequent but cooperative (can be switched off or spoofed); coastal
//! radar is non-cooperative and cannot be turned off by the target, but
//! is anonymous and coarse; VMS is identity-bearing but sparse. These
//! structural properties live here, shared by the simulator and the
//! fuser.

use mda_geo::{Position, Timestamp, VesselId};

/// The kind of sensor that produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Terrestrial AIS receiver.
    AisTerrestrial,
    /// Satellite AIS (delayed, bursty).
    AisSatellite,
    /// Coastal surveillance radar (anonymous plots).
    Radar,
    /// Vessel Monitoring System (fisheries; sparse, identity-bearing).
    Vms,
}

impl SensorKind {
    /// Typical 1-sigma position accuracy in metres. AIS GPS accuracy is
    /// ~10 m (the figure quoted in §2.5); VTS radar is far coarser.
    pub fn accuracy_m(&self) -> f64 {
        match self {
            SensorKind::AisTerrestrial | SensorKind::AisSatellite => 10.0,
            SensorKind::Radar => 150.0,
            SensorKind::Vms => 30.0,
        }
    }

    /// Whether reports carry the transmitted identity.
    pub fn identity_bearing(&self) -> bool {
        !matches!(self, SensorKind::Radar)
    }

    /// Whether the target can prevent being observed (cooperative
    /// sensing). Radar keeps seeing dark vessels — the core of the C3
    /// experiment.
    pub fn cooperative(&self) -> bool {
        !matches!(self, SensorKind::Radar)
    }
}

/// One observation from one sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReport {
    /// Producing sensor kind.
    pub kind: SensorKind,
    /// Receiver event time.
    pub t: Timestamp,
    /// Observed position.
    pub pos: Position,
    /// Transmitted identity, if the sensor carries one (and the target
    /// transmitted truthfully — spoofed identities appear here too).
    pub claimed_id: Option<VesselId>,
    /// Speed over ground in knots, if measured.
    pub sog_kn: Option<f64>,
    /// Course over ground in degrees, if measured.
    pub cog_deg: Option<f64>,
    /// Measurement accuracy override (1-sigma metres); `None` uses the
    /// sensor-kind default.
    pub accuracy_m: Option<f64>,
}

impl SensorReport {
    /// Effective 1-sigma accuracy in metres.
    pub fn sigma_m(&self) -> f64 {
        self.accuracy_m.unwrap_or_else(|| self.kind.accuracy_m())
    }

    /// Convenience constructor for an AIS report from a fix.
    pub fn from_fix(kind: SensorKind, fix: &mda_geo::Fix) -> Self {
        Self {
            kind,
            t: fix.t,
            pos: fix.pos,
            claimed_id: Some(fix.id),
            sog_kn: Some(fix.sog_kn),
            cog_deg: Some(fix.cog_deg),
            accuracy_m: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensor_asymmetries() {
        assert!(SensorKind::AisTerrestrial.identity_bearing());
        assert!(!SensorKind::Radar.identity_bearing());
        assert!(!SensorKind::Radar.cooperative());
        assert!(SensorKind::Vms.cooperative());
        assert!(SensorKind::Radar.accuracy_m() > SensorKind::AisTerrestrial.accuracy_m());
    }

    #[test]
    fn report_sigma_override() {
        let fix =
            mda_geo::Fix::new(1, Timestamp::from_secs(0), Position::new(43.0, 5.0), 10.0, 90.0);
        let mut r = SensorReport::from_fix(SensorKind::AisTerrestrial, &fix);
        assert_eq!(r.sigma_m(), 10.0);
        r.accuracy_m = Some(99.0);
        assert_eq!(r.sigma_m(), 99.0);
        assert_eq!(r.claimed_id, Some(1));
        assert_eq!(r.sog_kn, Some(10.0));
    }
}
