//! Scenario assembly: reproducible multi-sensor maritime worlds.
//!
//! [`Scenario::generate`] produces a [`SimOutput`]: ground-truth tracks
//! for every vessel plus the observed streams (AIS with reception
//! effects and labelled corruption, radar plots, VMS reports), all
//! deterministic in the seed.

use crate::corruption::{carve_episodes, corrupt_static, CorruptionLabel, Episode, SpoofOffset};
use crate::kinematics::VesselMotion;
use crate::receivers::{
    ais_report_interval, vms_poll, AisReception, RadarPlot, RadarStation, VmsReport, VMS_PERIOD,
};
use crate::vessel::{Behavior, VesselSpec};
use crate::weather::WeatherField;
use crate::world::World;
use mda_ais::messages::{AisMessage, NavigationalStatus, PositionReport, ShipType};
use mda_geo::distance::destination;
use mda_geo::{DurationMs, Fix, Position, Timestamp, VesselId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Which prebuilt world a scenario runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Gulf of Lion regional world (all experiments except Figure 1).
    GulfOfLion,
    /// Global trade-lane world (Figure 1).
    Global,
}

/// Scenario parameters. Defaults encode the paper's quantitative
/// figures.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// RNG seed: same seed, same scenario.
    pub seed: u64,
    /// Number of vessels.
    pub n_vessels: usize,
    /// Scenario duration.
    pub duration: DurationMs,
    /// Ground-truth time step.
    pub step: DurationMs,
    /// Which world to use.
    pub region: Region,
    /// Fraction of ships that go dark at all (paper: 27%).
    pub dark_ship_fraction: f64,
    /// Fraction of time those ships are dark (paper: ≥10%).
    pub dark_time_fraction: f64,
    /// Fraction of ships that GPS-spoof for part of the run.
    pub spoof_fraction: f64,
    /// Fraction of ships that commit identity fraud.
    pub identity_fraud_fraction: f64,
    /// Static-message corruption rate (paper: ~5%).
    pub static_error_rate: f64,
    /// Generate coastal radar plots.
    pub with_radar: bool,
    /// Generate VMS reports for fishing vessels.
    pub with_vms: bool,
}

impl ScenarioConfig {
    /// A regional surveillance scenario with the paper's deception
    /// rates.
    pub fn regional(seed: u64, n_vessels: usize, duration: DurationMs) -> Self {
        Self {
            seed,
            n_vessels,
            duration,
            step: 10 * mda_geo::time::SECOND,
            region: Region::GulfOfLion,
            dark_ship_fraction: 0.27,
            dark_time_fraction: 0.15,
            spoof_fraction: 0.05,
            identity_fraud_fraction: 0.03,
            static_error_rate: 0.05,
            with_radar: true,
            with_vms: true,
        }
    }

    /// An honest regional scenario (no deception) for accuracy-focused
    /// experiments.
    pub fn regional_honest(seed: u64, n_vessels: usize, duration: DurationMs) -> Self {
        Self {
            dark_ship_fraction: 0.0,
            dark_time_fraction: 0.0,
            spoof_fraction: 0.0,
            identity_fraud_fraction: 0.0,
            static_error_rate: 0.0,
            ..Self::regional(seed, n_vessels, duration)
        }
    }

    /// The global satellite-coverage scenario of Figure 1.
    pub fn global(seed: u64, n_vessels: usize, duration: DurationMs) -> Self {
        Self {
            seed,
            n_vessels,
            duration,
            step: 60 * mda_geo::time::SECOND,
            region: Region::Global,
            dark_ship_fraction: 0.1,
            dark_time_fraction: 0.1,
            spoof_fraction: 0.0,
            identity_fraud_fraction: 0.0,
            static_error_rate: 0.05,
            with_radar: false,
            with_vms: false,
        }
    }
}

/// One received AIS message with provenance and ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct AisObservation {
    /// Transmission (event) time.
    pub t_sent: Timestamp,
    /// Reception time (delivery order of the stream).
    pub t_received: Timestamp,
    /// True if received via satellite (delayed path).
    pub via_satellite: bool,
    /// The decoded message as the receiver sees it.
    pub msg: AisMessage,
    /// Ground-truth corruption label.
    pub label: CorruptionLabel,
    /// The vessel that *actually* transmitted (differs from
    /// `msg.mmsi()` under identity fraud).
    pub truth_id: VesselId,
}

/// Everything a scenario produces.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The world the scenario ran in.
    pub world: World,
    /// The configuration used.
    pub config: ScenarioConfig,
    /// Vessel specifications.
    pub vessels: Vec<VesselSpec>,
    /// Ground-truth fixes per vessel, in time order.
    pub truth: BTreeMap<VesselId, Vec<Fix>>,
    /// Received AIS observations, sorted by reception time.
    pub ais: Vec<AisObservation>,
    /// Anonymous radar plots, sorted by time.
    pub radar: Vec<RadarPlot>,
    /// VMS reports, sorted by time.
    pub vms: Vec<VmsReport>,
    /// Ground-truth dark episodes per vessel.
    pub dark_episodes: BTreeMap<VesselId, Vec<Episode>>,
    /// Ground-truth spoofing episodes per vessel.
    pub spoof_episodes: BTreeMap<VesselId, Vec<(Episode, SpoofOffset)>>,
    /// Ground-truth identity-fraud episodes per vessel.
    pub fraud_episodes: BTreeMap<VesselId, Vec<Episode>>,
    /// The weather field active during the scenario.
    pub weather: WeatherField,
}

impl SimOutput {
    /// Kinematic fixes as the *receiver* would extract them from the AIS
    /// stream (claimed identity, reception order).
    pub fn ais_fixes(&self) -> Vec<Fix> {
        self.ais.iter().filter_map(|o| o.msg.to_fix(o.t_sent)).collect()
    }

    /// Total number of ground-truth fixes.
    pub fn truth_len(&self) -> usize {
        self.truth.values().map(Vec::len).sum()
    }
}

/// Scenario generator.
pub struct Scenario;

impl Scenario {
    /// Generate a full scenario from a configuration.
    pub fn generate(config: ScenarioConfig) -> SimOutput {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let world = match config.region {
            Region::GulfOfLion => World::gulf_of_lion(),
            Region::Global => World::global_trade(),
        };
        let vessels = Self::mint_fleet(&config, &world, &mut rng);

        // Deception episodes.
        let mut dark_episodes = BTreeMap::new();
        let mut spoof_episodes = BTreeMap::new();
        let mut fraud_episodes = BTreeMap::new();
        for v in &vessels {
            if v.deception.dark_fraction > 0.0 {
                dark_episodes.insert(
                    v.mmsi,
                    carve_episodes(
                        Timestamp(0),
                        config.duration,
                        v.deception.dark_fraction,
                        2,
                        &mut rng,
                    ),
                );
            }
            if v.deception.gps_spoofing {
                let eps = carve_episodes(Timestamp(0), config.duration, 0.2, 1, &mut rng);
                spoof_episodes.insert(
                    v.mmsi,
                    eps.into_iter().map(|e| (e, SpoofOffset::random(&mut rng))).collect::<Vec<_>>(),
                );
            }
            if v.deception.cloned_mmsi.is_some() {
                fraud_episodes.insert(
                    v.mmsi,
                    carve_episodes(Timestamp(0), config.duration, 0.25, 1, &mut rng),
                );
            }
        }

        // Receivers.
        let reception = match config.region {
            Region::GulfOfLion => AisReception::regional(vec![
                world.ports[0].pos,
                world.ports[1].pos,
                world.ports[2].pos,
            ]),
            Region::Global => AisReception::satellite_only(0.55),
        };
        let radars: Vec<RadarStation> = if config.with_radar {
            vec![
                RadarStation::coastal(world.ports[0].pos),
                RadarStation::coastal(world.ports[1].pos),
            ]
        } else {
            Vec::new()
        };

        // Simulate.
        let mut motions: Vec<VesselMotion> = vessels
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let phase = (i as f64 * 0.618_034) % 1.0; // golden-ratio stagger
                VesselMotion::new(v.mmsi, &v.behavior, &world, phase)
            })
            .collect();

        let mut truth: BTreeMap<VesselId, Vec<Fix>> = BTreeMap::new();
        let mut ais: Vec<AisObservation> = Vec::new();
        let mut radar: Vec<RadarPlot> = Vec::new();
        let mut vms: Vec<VmsReport> = Vec::new();
        let mut next_position_report: Vec<Timestamp> =
            vessels.iter().map(|_| Timestamp(rng.gen_range(0..10_000))).collect();
        let mut next_static_report: Vec<Timestamp> = vessels
            .iter()
            .map(|_| Timestamp(rng.gen_range(0..30 * mda_geo::time::MINUTE)))
            .collect();
        let mut next_vms: Vec<Timestamp> =
            vessels.iter().map(|_| Timestamp(rng.gen_range(0..VMS_PERIOD))).collect();

        let steps = config.duration / config.step;
        for si in 0..steps {
            let t = Timestamp(si * config.step);
            for (vi, motion) in motions.iter_mut().enumerate() {
                let spec = &vessels[vi];
                let fix = motion.step(t, config.step, &mut rng);
                truth.entry(spec.mmsi).or_default().push(fix);

                let is_dark = dark_episodes
                    .get(&spec.mmsi)
                    .map(|eps| eps.iter().any(|e| e.contains(t)))
                    .unwrap_or(false);

                // AIS position reports.
                if t >= next_position_report[vi] {
                    next_position_report[vi] = t + ais_report_interval(fix.sog_kn);
                    if !is_dark {
                        if let Some(obs) = Self::make_position_obs(
                            spec,
                            &fix,
                            &spoof_episodes,
                            &fraud_episodes,
                            &reception,
                            &mut rng,
                        ) {
                            ais.push(obs);
                        }
                    }
                }

                // AIS static reports (every ~30 min when transmitting).
                if t >= next_static_report[vi] {
                    next_static_report[vi] = t + 30 * mda_geo::time::MINUTE;
                    if !is_dark {
                        if let Some(obs) = Self::make_static_obs(
                            spec,
                            &fix,
                            config.static_error_rate,
                            &reception,
                            &mut rng,
                        ) {
                            ais.push(obs);
                        }
                    }
                }

                // VMS (fishing vessels only; works while "dark" on AIS).
                if config.with_vms && spec.ship_type == ShipType::Fishing && t >= next_vms[vi] {
                    next_vms[vi] = t + VMS_PERIOD;
                    vms.push(vms_poll(&fix, &mut rng));
                }
            }

            // Radar scans (aligned to scan periods).
            for station in &radars {
                if t.millis() % station.scan_period == 0 {
                    for motion in &motions {
                        if let Some(pos) = station.observe(motion.position(), &mut rng) {
                            radar.push(RadarPlot { t, pos, truth_id: motion_id(motion) });
                        }
                    }
                }
            }
        }

        ais.sort_by_key(|o| o.t_received);
        SimOutput {
            world,
            config,
            vessels,
            truth,
            ais,
            radar,
            vms,
            dark_episodes,
            spoof_episodes,
            fraud_episodes,
            weather: WeatherField::new(config.seed),
        }
    }

    fn mint_fleet(config: &ScenarioConfig, world: &World, rng: &mut StdRng) -> Vec<VesselSpec> {
        let n = config.n_vessels;
        let mut vessels = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let roll = rng.gen_range(0.0..1.0);
            let (ship_type, behavior) = if roll < 0.45 {
                let lane = rng.gen_range(0..world.lanes.len());
                let st = if rng.gen_bool(0.6) { ShipType::Cargo } else { ShipType::Tanker };
                (
                    st,
                    Behavior::LaneTransit {
                        lane,
                        speed_kn: rng.gen_range(10.0..18.0),
                        dwell_min: rng.gen_range(45..180),
                    },
                )
            } else if roll < 0.65 {
                let lane = rng.gen_range(0..world.lanes.len());
                (
                    ShipType::Passenger,
                    Behavior::LaneTransit {
                        lane,
                        speed_kn: rng.gen_range(18.0..26.0),
                        dwell_min: rng.gen_range(20..60),
                    },
                )
            } else if roll < 0.9 && config.region == Region::GulfOfLion {
                let ground = Position::new(rng.gen_range(42.3..43.0), rng.gen_range(3.8..5.8));
                (
                    ShipType::Fishing,
                    Behavior::Fishing {
                        ground,
                        radius_m: rng.gen_range(2_000.0..6_000.0),
                        transit_kn: rng.gen_range(7.0..11.0),
                        fishing_kn: rng.gen_range(2.0..4.5),
                        home_port: rng.gen_range(0..world.ports.len()),
                    },
                )
            } else if config.region == Region::Global {
                let lane = rng.gen_range(0..world.lanes.len());
                (
                    ShipType::Cargo,
                    Behavior::LaneTransit {
                        lane,
                        speed_kn: rng.gen_range(12.0..20.0),
                        dwell_min: rng.gen_range(120..600),
                    },
                )
            } else {
                let center = Position::new(rng.gen_range(42.3..43.2), rng.gen_range(3.5..6.0));
                (
                    ShipType::Other,
                    Behavior::Loiter { center, radius_m: rng.gen_range(1_000.0..4_000.0) },
                )
            };
            vessels.push(VesselSpec::mint(i + 1, ship_type, behavior, rng));
        }

        // Assign deception profiles.
        let n_dark = (n as f64 * config.dark_ship_fraction).round() as usize;
        let n_spoof = (n as f64 * config.spoof_fraction).round() as usize;
        let n_fraud = (n as f64 * config.identity_fraud_fraction).round() as usize;
        for vessel in vessels.iter_mut().take(n_dark.min(n)) {
            vessel.deception.dark_fraction = config.dark_time_fraction;
        }
        for i in 0..n_spoof.min(n) {
            let idx = n.saturating_sub(1 + i);
            vessels[idx].deception.gps_spoofing = true;
        }
        for i in 0..n_fraud.min(n.saturating_sub(1)) {
            let idx = n / 2 + i;
            if idx < n {
                // Steal the identity of the "next" vessel.
                let victim = vessels[(idx + 1) % n].mmsi;
                vessels[idx].deception.cloned_mmsi = Some(victim);
            }
        }
        vessels
    }

    fn make_position_obs(
        spec: &VesselSpec,
        fix: &Fix,
        spoof_episodes: &BTreeMap<VesselId, Vec<(Episode, SpoofOffset)>>,
        fraud_episodes: &BTreeMap<VesselId, Vec<Episode>>,
        reception: &AisReception,
        rng: &mut StdRng,
    ) -> Option<AisObservation> {
        // GPS noise ~10 m (the accuracy figure of §2.5).
        let mut pos = destination(fix.pos, rng.gen_range(0.0..360.0), rng.gen_range(0.0..15.0));
        let mut label = CorruptionLabel::Clean;
        let mut mmsi = spec.mmsi;

        if let Some(eps) = spoof_episodes.get(&spec.mmsi) {
            if let Some((_, off)) = eps.iter().find(|(e, _)| e.contains(fix.t)) {
                pos = off.apply(pos);
                label = CorruptionLabel::Spoofed;
            }
        }
        if let Some(eps) = fraud_episodes.get(&spec.mmsi) {
            if eps.iter().any(|e| e.contains(fix.t)) {
                if let Some(cloned) = spec.deception.cloned_mmsi {
                    mmsi = cloned;
                    label = CorruptionLabel::IdentityFraud;
                }
            }
        }

        let (t_received, via_satellite) = reception.receive(fix.t, fix.pos, rng)?;
        let status = if fix.sog_kn < 0.5 {
            NavigationalStatus::Moored
        } else if spec.ship_type == ShipType::Fishing && fix.sog_kn < 5.0 {
            NavigationalStatus::EngagedInFishing
        } else {
            NavigationalStatus::UnderWayUsingEngine
        };
        let msg = AisMessage::Position(PositionReport {
            msg_type: 1,
            repeat: 0,
            mmsi,
            status,
            rot_deg_min: None,
            sog_kn: Some((fix.sog_kn * 10.0).round() / 10.0),
            position_accuracy: true,
            pos: Some(pos),
            cog_deg: Some((fix.cog_deg * 10.0).round() / 10.0),
            heading_deg: Some(fix.cog_deg.round() as u16 % 360),
            utc_second: ((fix.t.millis() / 1_000) % 60) as u8,
        });
        Some(AisObservation {
            t_sent: fix.t,
            t_received,
            via_satellite,
            msg,
            label,
            truth_id: spec.mmsi,
        })
    }

    fn make_static_obs(
        spec: &VesselSpec,
        fix: &Fix,
        error_rate: f64,
        reception: &AisReception,
        rng: &mut StdRng,
    ) -> Option<AisObservation> {
        let mut sv = spec.static_voyage("MARSEILLE");
        let label = corrupt_static(&mut sv, error_rate, rng);
        let (t_received, via_satellite) = reception.receive(fix.t, fix.pos, rng)?;
        Some(AisObservation {
            t_sent: fix.t,
            t_received,
            via_satellite,
            msg: AisMessage::StaticVoyage(sv),
            label,
            truth_id: spec.mmsi,
        })
    }
}

fn motion_id(m: &VesselMotion) -> VesselId {
    // VesselMotion does not expose its id publicly; reconstruct from the
    // fix it would produce. Cheap accessor to avoid a pub field.
    m.id()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::time::HOUR;

    fn small() -> SimOutput {
        Scenario::generate(ScenarioConfig::regional(42, 20, 2 * HOUR))
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Scenario::generate(ScenarioConfig::regional(7, 10, HOUR));
        let b = Scenario::generate(ScenarioConfig::regional(7, 10, HOUR));
        assert_eq!(a.ais.len(), b.ais.len());
        assert_eq!(a.radar.len(), b.radar.len());
        assert_eq!(a.ais.first().map(|o| o.t_received), b.ais.first().map(|o| o.t_received));
        let c = Scenario::generate(ScenarioConfig::regional(8, 10, HOUR));
        assert_ne!(a.ais.len(), c.ais.len());
    }

    #[test]
    fn output_is_arrival_sorted_and_nonempty() {
        let out = small();
        assert!(!out.ais.is_empty());
        assert!(!out.radar.is_empty());
        assert!(!out.vms.is_empty());
        for w in out.ais.windows(2) {
            assert!(w[0].t_received <= w[1].t_received);
        }
        assert_eq!(out.truth.len(), 20);
        assert!(out.truth_len() > 10_000);
    }

    #[test]
    fn satellite_messages_arrive_late_and_out_of_event_order() {
        let out = small();
        let sat: Vec<_> = out.ais.iter().filter(|o| o.via_satellite).collect();
        assert!(!sat.is_empty(), "some traffic must be offshore");
        for o in &sat {
            assert!(o.t_received - o.t_sent >= 5 * mda_geo::time::MINUTE);
        }
        // The merged stream is NOT event-time sorted (disorder exists).
        let disordered = out.ais.windows(2).any(|w| w[0].t_sent > w[1].t_sent);
        assert!(disordered, "satellite batching must create event-time disorder");
    }

    #[test]
    fn deception_rates_roughly_match_config() {
        let out = Scenario::generate(ScenarioConfig::regional(3, 100, HOUR));
        let dark_ships = out.dark_episodes.len();
        assert!((20..=35).contains(&dark_ships), "dark ships {dark_ships}");
        assert_eq!(out.spoof_episodes.len(), 5);
        assert_eq!(out.fraud_episodes.len(), 3);

        // Static error rate ~5%.
        let statics: Vec<_> =
            out.ais.iter().filter(|o| matches!(o.msg, AisMessage::StaticVoyage(_))).collect();
        let bad = statics.iter().filter(|o| o.label == CorruptionLabel::StaticError).count();
        let rate = bad as f64 / statics.len().max(1) as f64;
        assert!((0.01..0.12).contains(&rate), "static error rate {rate}");
    }

    #[test]
    fn dark_vessels_stop_transmitting_but_truth_continues() {
        let out = small();
        let (dark_id, eps) = out.dark_episodes.iter().next().expect("some dark vessel");
        let ep = eps[0];
        assert!(ep.duration() > 0);
        // No AIS position transmission during the episode...
        let tx_during = out
            .ais
            .iter()
            .filter(|o| o.truth_id == *dark_id && matches!(o.msg, AisMessage::Position(_)))
            .filter(|o| ep.contains(o.t_sent))
            .count();
        assert_eq!(tx_during, 0, "dark vessel transmitted positions");
        // ...while ground truth continues.
        let truth_during = out.truth[dark_id].iter().filter(|f| ep.contains(f.t)).count();
        assert!(truth_during > 0);
    }

    #[test]
    fn identity_fraud_changes_claimed_mmsi() {
        let out = Scenario::generate(ScenarioConfig::regional(5, 40, 3 * HOUR));
        let fraudulent: Vec<_> =
            out.ais.iter().filter(|o| o.label == CorruptionLabel::IdentityFraud).collect();
        assert!(!fraudulent.is_empty(), "fraud episodes must produce messages");
        for o in &fraudulent {
            assert_ne!(o.msg.mmsi(), o.truth_id, "claimed MMSI differs from truth");
        }
    }

    #[test]
    fn spoofed_positions_are_far_from_truth() {
        let out = Scenario::generate(ScenarioConfig::regional(5, 40, 3 * HOUR));
        let spoofed: Vec<_> =
            out.ais.iter().filter(|o| o.label == CorruptionLabel::Spoofed).collect();
        assert!(!spoofed.is_empty());
        for o in spoofed.iter().take(20) {
            let truth_fix =
                out.truth[&o.truth_id].iter().min_by_key(|f| (f.t - o.t_sent).abs()).unwrap();
            let d =
                mda_geo::distance::haversine_m(o.msg.to_fix(o.t_sent).unwrap().pos, truth_fix.pos);
            assert!(d > 15_000.0, "spoof displacement only {d} m");
        }
    }

    #[test]
    fn global_scenario_spans_world() {
        let out = Scenario::generate(ScenarioConfig::global(11, 60, 2 * HOUR));
        assert!(out.radar.is_empty());
        let fixes = out.ais_fixes();
        assert!(!fixes.is_empty());
        let lons: Vec<f64> = fixes.iter().map(|f| f.pos.lon).collect();
        let min = lons.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = lons.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 90.0, "coverage should span oceans: {min}..{max}");
        // Everything arrives via satellite there.
        assert!(out.ais.iter().all(|o| o.via_satellite));
    }

    #[test]
    fn vms_only_from_fishing_vessels() {
        let out = small();
        let fishing: std::collections::HashSet<u32> = out
            .vessels
            .iter()
            .filter(|v| v.ship_type == ShipType::Fishing)
            .map(|v| v.mmsi)
            .collect();
        assert!(!out.vms.is_empty());
        for r in &out.vms {
            assert!(fishing.contains(&r.id));
        }
    }
}
