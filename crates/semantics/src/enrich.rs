//! Streaming semantic enrichment: fixes → annotated triples.
//!
//! The "automatic, real-time semantic annotation and linking of
//! maritime data" challenge of §2.6: every incoming fix is joined with
//! its zone containment and the coarse weather product, and the results
//! are written into the live knowledge graph as annotated triples. The
//! C8 experiment measures this path's throughput (triples/second).

use crate::store::{Annotation, Triple, TripleStore};
use crate::term::{Interner, TermId};
use mda_geo::{Fix, Polygon};

/// Well-known predicate terms, interned once.
#[derive(Debug, Clone, Copy)]
pub struct Vocabulary {
    /// `:inZone` — vessel is inside a zone.
    pub in_zone: TermId,
    /// `:weather` — weather regime at the vessel.
    pub weather: TermId,
    /// `:movingState` — stopped / fishing-speed / transit.
    pub moving_state: TermId,
}

impl Vocabulary {
    /// Intern the vocabulary.
    pub fn new(interner: &mut Interner) -> Self {
        Self {
            in_zone: interner.intern(":inZone"),
            weather: interner.intern(":weather"),
            moving_state: interner.intern(":movingState"),
        }
    }
}

/// Coarse weather regimes used as graph terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeatherRegime {
    /// Under 8 m/s wind.
    Calm,
    /// 8–14 m/s.
    Moderate,
    /// Above 14 m/s.
    Rough,
}

impl WeatherRegime {
    /// Classify a wind speed.
    pub fn from_wind(wind_mps: f64) -> Self {
        if wind_mps < 8.0 {
            WeatherRegime::Calm
        } else if wind_mps < 14.0 {
            WeatherRegime::Moderate
        } else {
            WeatherRegime::Rough
        }
    }

    /// Graph term name.
    pub fn term(&self) -> &'static str {
        match self {
            WeatherRegime::Calm => ":calm",
            WeatherRegime::Moderate => ":moderate",
            WeatherRegime::Rough => ":rough",
        }
    }
}

/// The streaming enricher.
pub struct Enricher {
    vocab: Vocabulary,
    zones: Vec<(String, TermId, Polygon)>,
    regime_terms: [TermId; 3],
    state_terms: [TermId; 3],
    triples_emitted: u64,
    fixes_seen: u64,
}

impl Enricher {
    /// Build an enricher over named zones.
    pub fn new(interner: &mut Interner, zones: Vec<(String, Polygon)>) -> Self {
        let vocab = Vocabulary::new(interner);
        let zones = zones
            .into_iter()
            .map(|(name, poly)| {
                let id = interner.intern(&format!(":zone/{name}"));
                (name, id, poly)
            })
            .collect();
        let regime_terms =
            [interner.intern(":calm"), interner.intern(":moderate"), interner.intern(":rough")];
        let state_terms = [
            interner.intern(":stopped"),
            interner.intern(":fishingSpeed"),
            interner.intern(":transit"),
        ];
        Self { vocab, zones, regime_terms, state_terms, triples_emitted: 0, fixes_seen: 0 }
    }

    /// Enrich one fix: writes triples into `store`, returns how many.
    ///
    /// `vessel_term` must be the interned term of the vessel; `wind_mps`
    /// comes from the weather join upstream.
    pub fn enrich(
        &mut self,
        store: &mut TripleStore,
        vessel_term: TermId,
        fix: &Fix,
        wind_mps: f64,
    ) -> usize {
        self.fixes_seen += 1;
        let ann = Annotation { t: fix.t, pos: Some(fix.pos) };
        let mut emitted = 0;

        for (_, zone_term, poly) in &self.zones {
            if poly.contains(fix.pos) {
                store.insert_annotated(
                    Triple { s: vessel_term, p: self.vocab.in_zone, o: *zone_term },
                    ann,
                );
                emitted += 1;
            }
        }

        let regime = match WeatherRegime::from_wind(wind_mps) {
            WeatherRegime::Calm => self.regime_terms[0],
            WeatherRegime::Moderate => self.regime_terms[1],
            WeatherRegime::Rough => self.regime_terms[2],
        };
        store.insert_annotated(Triple { s: vessel_term, p: self.vocab.weather, o: regime }, ann);
        emitted += 1;

        let state = if fix.sog_kn < 0.7 {
            self.state_terms[0]
        } else if fix.sog_kn <= 5.5 {
            self.state_terms[1]
        } else {
            self.state_terms[2]
        };
        store
            .insert_annotated(Triple { s: vessel_term, p: self.vocab.moving_state, o: state }, ann);
        emitted += 1;

        self.triples_emitted += emitted as u64;
        emitted
    }

    /// `(fixes processed, triples emitted)`.
    pub fn counts(&self) -> (u64, u64) {
        (self.fixes_seen, self.triples_emitted)
    }

    /// The vocabulary terms (for building queries).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::{BoundingBox, Position, Timestamp};

    fn setup() -> (Interner, Enricher, TripleStore) {
        let mut interner = Interner::new();
        let zones = vec![(
            "RESERVE".to_string(),
            Polygon::rectangle(BoundingBox::new(42.5, 4.5, 42.7, 4.8)),
        )];
        let enricher = Enricher::new(&mut interner, zones);
        (interner, enricher, TripleStore::new())
    }

    fn fix(t_s: i64, lat: f64, lon: f64, sog: f64) -> Fix {
        Fix::new(9, Timestamp::from_secs(t_s), Position::new(lat, lon), sog, 0.0)
    }

    #[test]
    fn fix_inside_zone_emits_three_triples() {
        let (mut i, mut e, mut store) = setup();
        let v = i.intern(":vessel/9");
        let n = e.enrich(&mut store, v, &fix(0, 42.6, 4.6, 3.0), 5.0);
        assert_eq!(n, 3, "zone + weather + state");
        let zone = i.get(":zone/RESERVE").unwrap();
        let in_zone = i.get(":inZone").unwrap();
        assert_eq!(store.matching(Some(v), Some(in_zone), Some(zone)).len(), 1);
        // Annotation present.
        let t = store.matching(Some(v), Some(in_zone), None)[0];
        assert!(store.annotation(&t).is_some());
    }

    #[test]
    fn fix_outside_zone_emits_two() {
        let (mut i, mut e, mut store) = setup();
        let v = i.intern(":vessel/9");
        let n = e.enrich(&mut store, v, &fix(0, 43.5, 5.5, 12.0), 16.0);
        assert_eq!(n, 2);
        let weather = i.get(":weather").unwrap();
        let rough = i.get(":rough").unwrap();
        assert_eq!(store.matching(Some(v), Some(weather), Some(rough)).len(), 1);
        let state = i.get(":movingState").unwrap();
        let transit = i.get(":transit").unwrap();
        assert_eq!(store.matching(Some(v), Some(state), Some(transit)).len(), 1);
    }

    #[test]
    fn weather_regimes() {
        assert_eq!(WeatherRegime::from_wind(3.0), WeatherRegime::Calm);
        assert_eq!(WeatherRegime::from_wind(10.0), WeatherRegime::Moderate);
        assert_eq!(WeatherRegime::from_wind(20.0), WeatherRegime::Rough);
    }

    #[test]
    fn counts_accumulate() {
        let (mut i, mut e, mut store) = setup();
        let v = i.intern(":vessel/9");
        for k in 0..10 {
            e.enrich(&mut store, v, &fix(k * 10, 42.6, 4.6, 3.0), 5.0);
        }
        let (fixes, triples) = e.counts();
        assert_eq!(fixes, 10);
        assert_eq!(triples, 30);
        // Store deduplicates identical facts; annotation refreshed.
        assert_eq!(store.len(), 3);
    }
}
