//! Synthetic vessel registries with realistic conflicts.
//!
//! §4's example: "ship information from the MarineTraffic database may
//! conflict with that from Lloyd's: the length may differ slightly, or
//! the flag may be different due to a lack of update in one source."
//! [`generate_registries`] produces two views of the same fleet with
//! exactly those discrepancy modes (plus name-formatting noise), and
//! [`find_conflicts`]/[`resolve`] implement the §4 recipe: detect,
//! then resolve using source-quality knowledge.

use rand::Rng;

/// Which registry a record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceId {
    /// A crowd-sourced live database (MarineTraffic-like): fresher but
    /// noisier.
    CrowdSourced,
    /// An authoritative register (Lloyd's-like): cleaner but staler.
    Authoritative,
}

/// One registry record describing a vessel.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryRecord {
    /// Producing source.
    pub source: SourceId,
    /// MMSI if the source knows it.
    pub mmsi: Option<u32>,
    /// IMO number if known.
    pub imo: Option<u32>,
    /// Ship name as this source spells it.
    pub name: String,
    /// Call sign if known.
    pub callsign: Option<String>,
    /// Length overall, metres.
    pub length_m: f64,
    /// Flag state.
    pub flag: String,
    /// Ground-truth fleet index (never used by the algorithms; only for
    /// scoring link discovery).
    pub truth_index: usize,
}

/// A detected conflict between two matched records.
#[derive(Debug, Clone, PartialEq)]
pub enum Conflict {
    /// Lengths differ by more than the tolerance (metres, absolute
    /// difference).
    Length(f64),
    /// Flags differ.
    Flag(String, String),
    /// Names differ beyond formatting.
    Name(String, String),
}

/// Generate two registry views of a synthetic fleet of `n` vessels.
///
/// The crowd-sourced view always has the MMSI but sometimes lacks the
/// IMO, spells names with extra spacing/abbreviation, and measures
/// length with ±2 m noise. The authoritative view always has the IMO,
/// sometimes lacks the MMSI, and its flag can be stale (changed
/// registration not yet recorded) with probability `stale_flag_rate`.
pub fn generate_registries(
    n: usize,
    stale_flag_rate: f64,
    rng: &mut impl Rng,
) -> (Vec<RegistryRecord>, Vec<RegistryRecord>) {
    let flags = ["FRANCE", "MALTA", "PANAMA", "LIBERIA", "GREECE"];
    let mut crowd = Vec::with_capacity(n);
    let mut auth = Vec::with_capacity(n);
    for i in 0..n {
        let mmsi = 227_000_001 + i as u32;
        let imo = mda_ais_imo(i as u32);
        let base_name = format!("{} {}", NAME_STEMS[i % NAME_STEMS.len()], i);
        let length = rng.gen_range(25.0..250.0f64);
        let flag = flags[i % flags.len()];

        let crowd_name = if rng.gen_bool(0.3) {
            // Formatting noise: double spaces / prefix.
            format!("MV  {base_name}")
        } else {
            base_name.clone()
        };
        crowd.push(RegistryRecord {
            source: SourceId::CrowdSourced,
            mmsi: Some(mmsi),
            imo: if rng.gen_bool(0.7) { Some(imo) } else { None },
            name: crowd_name,
            callsign: Some(format!("FC{i:04}")),
            length_m: (length + rng.gen_range(-2.0..2.0)).round(),
            flag: flag.to_string(),
            truth_index: i,
        });

        let stale = rng.gen_bool(stale_flag_rate);
        auth.push(RegistryRecord {
            source: SourceId::Authoritative,
            mmsi: if rng.gen_bool(0.8) { Some(mmsi) } else { None },
            imo: Some(imo),
            name: base_name,
            callsign: if rng.gen_bool(0.9) { Some(format!("FC{i:04}")) } else { None },
            length_m: length.round(),
            flag: if stale { flags[(i + 1) % flags.len()].to_string() } else { flag.to_string() },
            truth_index: i,
        });
    }
    (crowd, auth)
}

const NAME_STEMS: [&str; 16] = [
    "ASTER", "BOREAL", "CORMORAN", "DAUPHIN", "ETOILE", "FLAMANT", "GOELAND", "HERMINE", "IBIS",
    "JASON", "KRAKEN", "LIBECCIO", "MISTRAL", "NEPTUNE", "ORION", "PELICAN",
];

fn mda_ais_imo(stem: u32) -> u32 {
    mda_ais::quality::imo_from_stem(910_000 + stem)
}

/// Normalise a name for comparison: collapse whitespace, strip common
/// prefixes, upper-case.
pub fn normalise_name(name: &str) -> String {
    let upper = name.to_ascii_uppercase();
    let tokens: Vec<&str> =
        upper.split_whitespace().filter(|t| !matches!(*t, "MV" | "MS" | "MT" | "SS")).collect();
    tokens.join(" ")
}

/// Detect conflicts between two records assumed to denote one vessel.
pub fn find_conflicts(a: &RegistryRecord, b: &RegistryRecord) -> Vec<Conflict> {
    let mut out = Vec::new();
    let dl = (a.length_m - b.length_m).abs();
    if dl > 3.0 {
        out.push(Conflict::Length(dl));
    }
    if a.flag != b.flag {
        out.push(Conflict::Flag(a.flag.clone(), b.flag.clone()));
    }
    if normalise_name(&a.name) != normalise_name(&b.name) {
        out.push(Conflict::Name(a.name.clone(), b.name.clone()));
    }
    out
}

/// Resolve a matched pair into one record using source-quality rules:
/// identity fields from whichever source has them (preferring the
/// authoritative register), length from the authoritative register,
/// flag from the *crowd-sourced* source (fresher, per the staleness
/// model), names normalised.
pub fn resolve(crowd: &RegistryRecord, auth: &RegistryRecord) -> RegistryRecord {
    RegistryRecord {
        source: SourceId::Authoritative,
        mmsi: auth.mmsi.or(crowd.mmsi),
        imo: auth.imo.or(crowd.imo),
        name: normalise_name(&auth.name),
        callsign: auth.callsign.clone().or_else(|| crowd.callsign.clone()),
        length_m: auth.length_m,
        flag: crowd.flag.clone(),
        truth_index: auth.truth_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn registries_describe_same_fleet_differently() {
        let mut rng = StdRng::seed_from_u64(1);
        let (crowd, auth) = generate_registries(50, 0.1, &mut rng);
        assert_eq!(crowd.len(), 50);
        assert_eq!(auth.len(), 50);
        // Crowd always has MMSI; authoritative always has IMO.
        assert!(crowd.iter().all(|r| r.mmsi.is_some()));
        assert!(auth.iter().all(|r| r.imo.is_some()));
        // Some records differ in name formatting.
        let noisy = crowd.iter().filter(|r| r.name.starts_with("MV")).count();
        assert!(noisy > 5, "formatting noise expected, got {noisy}");
    }

    #[test]
    fn stale_flags_at_requested_rate() {
        let mut rng = StdRng::seed_from_u64(2);
        let (crowd, auth) = generate_registries(400, 0.15, &mut rng);
        let stale = crowd.iter().zip(&auth).filter(|(c, a)| c.flag != a.flag).count();
        let rate = stale as f64 / 400.0;
        assert!((0.10..0.20).contains(&rate), "stale rate {rate}");
    }

    #[test]
    fn name_normalisation() {
        assert_eq!(normalise_name("MV  ASTER 1"), "ASTER 1");
        assert_eq!(normalise_name("aster 1"), "ASTER 1");
        assert_eq!(normalise_name(" MT NEPTUNE  9 "), "NEPTUNE 9");
    }

    #[test]
    fn conflicts_detected_and_resolved() {
        let mut rng = StdRng::seed_from_u64(3);
        let (crowd, auth) = generate_registries(100, 0.2, &mut rng);
        let mut any_flag_conflict = false;
        for (c, a) in crowd.iter().zip(&auth) {
            let conflicts = find_conflicts(c, a);
            if conflicts.iter().any(|x| matches!(x, Conflict::Flag(_, _))) {
                any_flag_conflict = true;
            }
            let resolved = resolve(c, a);
            assert!(resolved.mmsi.is_some());
            assert!(resolved.imo.is_some());
            assert_eq!(resolved.flag, c.flag, "flag taken from the fresh source");
            assert_eq!(resolved.length_m, a.length_m, "length from the register");
            assert!(!resolved.name.starts_with("MV"));
        }
        assert!(any_flag_conflict);
    }

    #[test]
    fn identical_records_have_no_conflicts() {
        let r = RegistryRecord {
            source: SourceId::CrowdSourced,
            mmsi: Some(1),
            imo: Some(2),
            name: "ASTER 1".into(),
            callsign: None,
            length_m: 100.0,
            flag: "FRANCE".into(),
            truth_index: 0,
        };
        let mut b = r.clone();
        b.source = SourceId::Authoritative;
        assert!(find_conflicts(&r, &b).is_empty());
        // Small length differences are tolerated.
        b.length_m = 102.0;
        assert!(find_conflicts(&r, &b).is_empty());
        b.length_m = 110.0;
        assert_eq!(find_conflicts(&r, &b).len(), 1);
    }
}
