//! The load generator's inputs: pinned sizes, and feeds made from a
//! seed — AIS as AIVDM **bytes**, radar and VMS as the structs their
//! receivers deliver — in arrival order.
//!
//! The benchmark owns these generators (it does not reuse
//! `mda_bench::c*`, whose workloads have drifted between PRs). A name
//! plus a size tag plus a seed is one workload, forever; the
//! fingerprints in [`PINNED`] make a silent change fail the run.

use mda_ais::messages::{AisMessage, NavigationalStatus, PositionReport};
use mda_events::NamedZone;
use mda_geo::time::{HOUR, MINUTE, SECOND};
use mda_geo::{BoundingBox, Fix, Position, Timestamp, VesselId};
use mda_serve::frame::crc32;
use mda_sim::receivers::{RadarPlot, VmsReport};
use mda_sim::weather::WeatherField;
use mda_sim::{Scenario, ScenarioConfig, ZoneKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed every pinned fingerprint belongs to, and the default
/// `--seed`.
pub const DEFAULT_SEED: u64 = 20_170_321;

/// A pinned workload size. `full` is what `BENCHMARK.json` measures;
/// `smoke` runs all four workloads in well under 20 s for the
/// self-test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `smoke` or `full`.
    pub tag: &'static str,
    /// Vessels of the regional scenario (`feed-replay`, `serve-*`).
    pub vessels: usize,
    /// Its length, hours.
    pub hours: i64,
    /// Length of the satellite-wave feed (`feed-durable`), hours.
    pub wave_hours: i64,
    /// Rate multiplier of the wave feed over c17's 80/140 fixes a minute.
    pub wave_scale: i64,
    /// Requests of a post-ingest query battery.
    pub battery: usize,
    /// Distinct requests of one `serve-archive` round (must exceed
    /// [`CACHE_CAPACITY`]).
    pub round: usize,
    /// Rounds of one `serve-archive` pass.
    pub rounds: usize,
    /// Arrivals `serve-live` ingests closed-loop before its clock
    /// starts, so the first paced arrival already meets a published
    /// watermark and a populated archive.
    pub live_warmup: usize,
    /// Arrivals one `serve-live` pass then ingests at the pinned rate.
    pub live_arrivals: usize,
    /// The open-loop rate of `serve-live`, observations per second —
    /// about a quarter of what `feed-replay` sustained on the 2-core
    /// box when the size was pinned. An absolute constant: a faster
    /// pipeline must not silently get a harder workload.
    pub live_rate: f64,
}

/// Self-test size.
pub const SMOKE: Size = Size {
    tag: "smoke",
    vessels: 30,
    hours: 1,
    wave_hours: 2,
    wave_scale: 1,
    battery: 1_000,
    round: 1_100,
    rounds: 1,
    live_warmup: 9_000,
    live_arrivals: 2_000,
    live_rate: 4_000.0,
};

/// Measured size.
pub const FULL: Size = Size {
    tag: "full",
    vessels: 400,
    hours: 2,
    wave_hours: 6,
    wave_scale: 4,
    battery: 6_000,
    round: 2_048,
    rounds: 4,
    live_warmup: 150_000,
    live_arrivals: 60_000,
    live_rate: 30_000.0,
};

/// Answer-cache capacity every server of the benchmark runs with —
/// pinned here, so a change of the program's default does not change
/// what `serve-archive` bypasses.
pub const CACHE_CAPACITY: usize = 1_024;

/// `(workload, size tag, fingerprint)` at [`DEFAULT_SEED`]: CRC-32 of
/// the feed bytes, of the arrival metadata, and of the request list.
/// After a *deliberate* change to a generator or a size, run the
/// workload once and copy the fingerprint it reports in here.
pub const PINNED: [(&str, &str, &str); 8] = [
    ("feed-replay", "smoke", "b3ca06e4-fe8c8fd6-517cb4fc"),
    ("feed-replay", "full", "151957b3-68c91778-ea347a83"),
    ("feed-durable", "smoke", "8637d54f-ef6b467c-7a9d8458"),
    ("feed-durable", "full", "0afca6f1-3f8fa1a7-46b5ed34"),
    ("serve-live", "smoke", "b3ca06e4-fe8c8fd6-4dc21db9"),
    ("serve-live", "full", "151957b3-68c91778-04e1da3d"),
    ("serve-archive", "smoke", "b3ca06e4-fe8c8fd6-5c8c5c07"),
    ("serve-archive", "full", "151957b3-68c91778-4b248d80"),
];

/// What one arrival carries.
#[derive(Debug, Clone)]
pub enum Payload {
    /// An AIS message: its sentence lines are `bytes[lines.0..lines.1]`
    /// of the feed (one `\n`-terminated line per fragment), plus what a
    /// receiver knows beside the sentence.
    Ais {
        /// Transmission (event) time.
        t_sent: Timestamp,
        /// Received over the delayed satellite path.
        via_satellite: bool,
        /// The vessel that really transmitted (simulation truth; the
        /// pipeline does not read it).
        truth_id: VesselId,
        /// Byte range of the sentence lines.
        lines: (u32, u32),
    },
    /// A coastal radar plot.
    Radar(RadarPlot),
    /// A VMS report.
    Vms(VmsReport),
}

/// One arrival of the merged feed.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Reception time — the order of the stream.
    pub at: Timestamp,
    /// What arrived.
    pub payload: Payload,
}

/// A generated feed in arrival order.
#[derive(Debug, Clone)]
pub struct Feed {
    /// All AIVDM sentence lines.
    pub bytes: Vec<u8>,
    /// The arrivals.
    pub arrivals: Vec<Arrival>,
    /// Sentence lines in `bytes`.
    pub sentences: u64,
    /// AIS messages that span more than one sentence.
    pub multi_fragment: u64,
    /// Newest event time in the feed.
    pub end: Timestamp,
}

/// The static world a feed plays in.
#[derive(Debug, Clone)]
pub struct World {
    /// Region of interest.
    pub bounds: BoundingBox,
    /// Zones installed in the event engine.
    pub zones: Vec<NamedZone>,
    /// Weather for enrichment, when the scenario has one.
    pub weather: Option<WeatherField>,
    /// Every vessel identity of the feed, ascending.
    pub vessels: Vec<VesselId>,
}

impl Feed {
    fn empty() -> Self {
        Self {
            bytes: Vec::new(),
            arrivals: Vec::new(),
            sentences: 0,
            multi_fragment: 0,
            end: Timestamp::MIN,
        }
    }

    fn push_ais(
        &mut self,
        at: Timestamp,
        t_sent: Timestamp,
        via_satellite: bool,
        truth_id: VesselId,
        msg: &AisMessage,
    ) {
        let n = self.arrivals.len();
        let (bits, fill) = mda_ais::encode_payload(msg);
        let channel = if n % 2 == 0 { 'A' } else { 'B' };
        let lines = mda_ais::to_sentences(&bits, fill, channel, (n % 10) as u8);
        let start = self.bytes.len() as u32;
        for line in &lines {
            self.bytes.extend_from_slice(line.as_bytes());
            self.bytes.push(b'\n');
        }
        self.sentences += lines.len() as u64;
        self.multi_fragment += u64::from(lines.len() > 1);
        self.end = self.end.max(t_sent);
        let lines = (start, self.bytes.len() as u32);
        self.arrivals
            .push(Arrival { at, payload: Payload::Ais { t_sent, via_satellite, truth_id, lines } });
    }

    /// CRC-32 of the sentence bytes and of the arrival metadata.
    pub fn fingerprint(&self) -> (u32, u32) {
        let mut meta = Vec::with_capacity(self.arrivals.len() * 24);
        for a in &self.arrivals {
            meta.extend_from_slice(&a.at.0.to_le_bytes());
            match &a.payload {
                Payload::Ais { t_sent, via_satellite, lines, .. } => {
                    meta.push(u8::from(*via_satellite));
                    meta.extend_from_slice(&t_sent.0.to_le_bytes());
                    meta.extend_from_slice(&lines.1.to_le_bytes());
                }
                Payload::Radar(p) => {
                    meta.push(2);
                    meta.extend_from_slice(&p.t.0.to_le_bytes());
                    meta.extend_from_slice(&p.pos.lat.to_bits().to_le_bytes());
                    meta.extend_from_slice(&p.pos.lon.to_bits().to_le_bytes());
                }
                Payload::Vms(v) => {
                    meta.push(3);
                    meta.extend_from_slice(&v.t.0.to_le_bytes());
                    meta.extend_from_slice(&v.id.to_le_bytes());
                    meta.extend_from_slice(&v.pos.lat.to_bits().to_le_bytes());
                    meta.extend_from_slice(&v.pos.lon.to_bits().to_le_bytes());
                }
            }
        }
        (crc32(&self.bytes), crc32(&meta))
    }
}

/// The regional AIS + radar + VMS scenario of `seed`, merged by
/// arrival time exactly as `MaritimePipeline::run_scenario` merges it,
/// with every AIS message encoded to AIVDM sentences.
pub fn regional(seed: u64, size: &Size) -> (Feed, World) {
    let sim = Scenario::generate(ScenarioConfig::regional(seed, size.vessels, size.hours * HOUR));
    enum Src {
        Ais(usize),
        Radar(usize),
        Vms(usize),
    }
    let mut order: Vec<(Timestamp, Src)> =
        Vec::with_capacity(sim.ais.len() + sim.radar.len() + sim.vms.len());
    order.extend(sim.ais.iter().enumerate().map(|(i, o)| (o.t_received, Src::Ais(i))));
    order.extend(sim.radar.iter().enumerate().map(|(i, p)| (p.t, Src::Radar(i))));
    order.extend(sim.vms.iter().enumerate().map(|(i, v)| (v.t, Src::Vms(i))));
    order.sort_by_key(|(t, _)| *t);

    let mut feed = Feed::empty();
    for (at, src) in order {
        match src {
            Src::Ais(i) => {
                let o = &sim.ais[i];
                feed.push_ais(at, o.t_sent, o.via_satellite, o.truth_id, &o.msg);
            }
            Src::Radar(i) => {
                feed.end = feed.end.max(sim.radar[i].t);
                feed.arrivals.push(Arrival { at, payload: Payload::Radar(sim.radar[i]) });
            }
            Src::Vms(i) => {
                feed.end = feed.end.max(sim.vms[i].t);
                feed.arrivals.push(Arrival { at, payload: Payload::Vms(sim.vms[i]) });
            }
        }
    }
    let zones = sim
        .world
        .zones
        .iter()
        .map(|z| NamedZone {
            name: z.name.clone(),
            area: z.area.clone(),
            protected: z.kind == ZoneKind::ProtectedArea,
        })
        .collect();
    let world = World {
        bounds: sim.world.bounds,
        zones,
        weather: Some(sim.weather.clone()),
        vessels: sim.vessels.iter().map(|v| v.mmsi).collect(),
    };
    (feed, world)
}

/// The regime-switching satellite-wave fixes of c17, in arrival order,
/// as `(arrival, fix)`.
///
/// Time runs in 120-minute periods: 40 quiet minutes of terrestrial
/// trickle (≤ 90 s disorder), then an 80-minute wave in which 13 of
/// every 14 fixes are satellite fixes of a 4-vessel port hotspot whose
/// lateness ramps 5 → 41 min at 0.6 min/min, holds 14 minutes, then
/// collapses ×0.55 a minute. `scale` multiplies c17's 80 (quiet) and
/// 140 (wave) fixes a minute; the fleet stays c17's 4 + 120 vessels.
fn wave_fixes(hours: i64, seed: u64, scale: i64) -> Vec<(Timestamp, Fix)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fixes = Vec::new();
    let mut sat_turn = 0u32;
    let mut terr_turn = 0u32;
    for m in 0..hours * 60 {
        let phase = m % 120;
        let late_ms = if phase < 40 {
            0
        } else if phase < 100 {
            ((5.0 + 0.6 * (phase - 40) as f64) * MINUTE as f64) as i64
        } else if phase < 114 {
            41 * MINUTE
        } else {
            (41.0 * MINUTE as f64 * 0.55f64.powi((phase - 113) as i32)) as i64
        };
        let slots: i64 = scale * if late_ms == 0 { 80 } else { 140 };
        let step = MINUTE / slots;
        for j in 0..slots {
            let arrival = Timestamp(m * MINUTE + j * step);
            let satellite = late_ms > 0 && j % 14 >= 1;
            let (id, t) = if satellite {
                let id = 1 + sat_turn % 4;
                sat_turn += 1;
                // Per-(vessel, minute) jitter: each hotspot track stays
                // near-monotone within a minute while the ramp still
                // reorders it across minutes.
                let jitter = (i64::from(id) * 7 + m * 13) % 41 - 20;
                (id, arrival.saturating_add(-(late_ms + jitter * SECOND)))
            } else {
                let id = 10 + terr_turn % 120;
                terr_turn += 1;
                (id, arrival.saturating_add(-rng.gen_range(0..90 * SECOND)))
            };
            let hour = t.millis() as f64 / HOUR as f64;
            let pos =
                Position::new(42.3 + 0.012 * f64::from(id % 100), (3.2 + 0.05 * hour).min(6.4));
            fixes.push((arrival, Fix::new(id, t, pos, 8.0, 90.0)));
        }
    }
    fixes
}

/// The `feed-durable` feed: [`wave_fixes`] with every fix encoded as a
/// class-A position report.
pub fn waves(seed: u64, size: &Size) -> (Feed, World) {
    let mut feed = Feed::empty();
    for (arrival, fix) in wave_fixes(size.wave_hours, seed, size.wave_scale) {
        let msg = AisMessage::Position(PositionReport {
            msg_type: 1,
            repeat: 0,
            mmsi: fix.id,
            status: NavigationalStatus::UnderWayUsingEngine,
            rot_deg_min: None,
            sog_kn: Some(fix.sog_kn),
            position_accuracy: true,
            pos: Some(fix.pos),
            cog_deg: Some(fix.cog_deg),
            heading_deg: None,
            utc_second: (fix.t.millis().rem_euclid(MINUTE) / SECOND) as u8,
        });
        feed.push_ais(arrival, fix.t, fix.id <= 4, fix.id, &msg);
    }
    let world = World {
        bounds: BoundingBox::new(42.0, 3.0, 44.0, 6.5),
        zones: Vec::new(),
        weather: None,
        vessels: (1..=4).chain(10..130).collect(),
    };
    (feed, world)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feeds_are_a_pure_function_of_the_seed() {
        let (a, wa) = regional(5, &SMOKE);
        let (b, _) = regional(5, &SMOKE);
        let (c, _) = regional(6, &SMOKE);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(a.multi_fragment > 0, "static messages span two sentences");
        assert!(a.arrivals.windows(2).all(|w| w[0].at <= w[1].at), "arrival order");
        assert_eq!(wa.vessels.len(), SMOKE.vessels);
        assert_eq!(waves(5, &SMOKE).0.fingerprint(), waves(5, &SMOKE).0.fingerprint());
    }

    #[test]
    fn wave_feed_is_regime_switching_and_outruns_a_static_delay() {
        let fixes = wave_fixes(2, 3, 2);
        assert_eq!(fixes.len(), 2 * (40 * 80 + 80 * 140));
        let hotspot = fixes.iter().filter(|(_, f)| f.id <= 4).count();
        assert_eq!(hotspot, 2 * 80 * 130, "13 of every 14 wave fixes are satellite");
        let mut frontier = Timestamp::MIN;
        let mut worst = 0;
        for (_, f) in &fixes {
            frontier = frontier.max(f.t);
            worst = worst.max(frontier.since(f.t));
        }
        assert!(worst > 40 * MINUTE && worst < 50 * MINUTE, "worst lateness {worst} ms");
    }
}
