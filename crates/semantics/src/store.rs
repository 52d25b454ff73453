//! An in-memory triple store with spatio-temporal annotations.
//!
//! Triples are `(subject, predicate, object)` over interned terms with
//! SPO/POS/OSP ordered indexes, so any single-pattern lookup is a range
//! scan. A triple may carry an [`Annotation`] (event time and position),
//! which is what makes the store *trajectory-oriented*: spatio-temporal
//! filters run on the annotation without string round-trips.

use crate::term::TermId;
use mda_geo::{BoundingBox, Position, Timestamp};
use std::collections::BTreeSet;

/// A triple of interned terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject.
    pub s: TermId,
    /// Predicate.
    pub p: TermId,
    /// Object.
    pub o: TermId,
}

/// Optional spatio-temporal annotation of a triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Annotation {
    /// Event time of the fact.
    pub t: Timestamp,
    /// Where the fact holds, if localisable.
    pub pos: Option<Position>,
}

/// The triple store.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    spo: BTreeSet<(TermId, TermId, TermId)>,
    pos_idx: BTreeSet<(TermId, TermId, TermId)>, // (p, o, s)
    osp: BTreeSet<(TermId, TermId, TermId)>,     // (o, s, p)
    annotations: std::collections::HashMap<Triple, Annotation>,
}

impl TripleStore {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a triple; returns `false` if it was already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        let new = self.spo.insert((t.s, t.p, t.o));
        if new {
            self.pos_idx.insert((t.p, t.o, t.s));
            self.osp.insert((t.o, t.s, t.p));
        }
        new
    }

    /// Insert a triple with an annotation.
    pub fn insert_annotated(&mut self, t: Triple, a: Annotation) -> bool {
        let new = self.insert(t);
        self.annotations.insert(t, a);
        new
    }

    /// The annotation of a triple, if any.
    pub fn annotation(&self, t: &Triple) -> Option<&Annotation> {
        self.annotations.get(t)
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// True if the triple is present.
    pub fn contains(&self, t: &Triple) -> bool {
        self.spo.contains(&(t.s, t.p, t.o))
    }

    /// All triples matching a pattern with optional components, using
    /// the most selective index available.
    pub fn matching(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<Triple> {
        let mut out = Vec::new();
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.spo.contains(&(s, p, o)) {
                    out.push(Triple { s, p, o });
                }
            }
            (Some(s), p, o) => {
                for &(ts, tp, to) in self
                    .spo
                    .range((s, TermId(0), TermId(0))..=(s, TermId(u32::MAX), TermId(u32::MAX)))
                {
                    if p.map(|x| x == tp).unwrap_or(true) && o.map(|x| x == to).unwrap_or(true) {
                        out.push(Triple { s: ts, p: tp, o: to });
                    }
                }
            }
            (None, Some(p), o) => {
                for &(tp, to, ts) in self
                    .pos_idx
                    .range((p, TermId(0), TermId(0))..=(p, TermId(u32::MAX), TermId(u32::MAX)))
                {
                    if o.map(|x| x == to).unwrap_or(true) {
                        out.push(Triple { s: ts, p: tp, o: to });
                    }
                }
            }
            (None, None, Some(o)) => {
                for &(to, ts, tp) in self
                    .osp
                    .range((o, TermId(0), TermId(0))..=(o, TermId(u32::MAX), TermId(u32::MAX)))
                {
                    out.push(Triple { s: ts, p: tp, o: to });
                }
            }
            (None, None, None) => {
                out.extend(self.spo.iter().map(|&(s, p, o)| Triple { s, p, o }));
            }
        }
        out
    }

    /// Triples matching the pattern whose annotation falls inside the
    /// optional time range and bounding box. Triples without an
    /// annotation never match a spatio-temporal filter.
    pub fn matching_st(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        time: Option<(Timestamp, Timestamp)>,
        area: Option<&BoundingBox>,
    ) -> Vec<Triple> {
        self.matching(s, p, o)
            .into_iter()
            .filter(|t| {
                if time.is_none() && area.is_none() {
                    return true;
                }
                let Some(a) = self.annotations.get(t) else { return false };
                if let Some((lo, hi)) = time {
                    if a.t < lo || a.t > hi {
                        return false;
                    }
                }
                if let Some(bb) = area {
                    match a.pos {
                        Some(p) if bb.contains(p) => {}
                        _ => return false,
                    }
                }
                true
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Interner;

    fn setup() -> (TripleStore, Interner, Vec<TermId>) {
        let mut i = Interner::new();
        let ids: Vec<TermId> = ["v1", "v2", "inZone", "type", "reserve", "cargo", "port"]
            .iter()
            .map(|n| i.intern(n))
            .collect();
        let mut s = TripleStore::new();
        // v1 inZone reserve; v1 type cargo; v2 inZone port.
        s.insert(Triple { s: ids[0], p: ids[2], o: ids[4] });
        s.insert(Triple { s: ids[0], p: ids[3], o: ids[5] });
        s.insert(Triple { s: ids[1], p: ids[2], o: ids[6] });
        (s, i, ids)
    }

    #[test]
    fn insert_dedup() {
        let (mut s, _, ids) = setup();
        assert_eq!(s.len(), 3);
        assert!(!s.insert(Triple { s: ids[0], p: ids[2], o: ids[4] }));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn pattern_lookups_use_all_indexes() {
        let (s, _, ids) = setup();
        // By subject.
        assert_eq!(s.matching(Some(ids[0]), None, None).len(), 2);
        // By predicate.
        assert_eq!(s.matching(None, Some(ids[2]), None).len(), 2);
        // By object.
        assert_eq!(s.matching(None, None, Some(ids[4])).len(), 1);
        // By predicate+object.
        assert_eq!(s.matching(None, Some(ids[2]), Some(ids[6])).len(), 1);
        // Exact.
        assert_eq!(s.matching(Some(ids[1]), Some(ids[2]), Some(ids[6])).len(), 1);
        // Everything.
        assert_eq!(s.matching(None, None, None).len(), 3);
        // Miss.
        assert!(s.matching(Some(ids[1]), Some(ids[3]), None).is_empty());
    }

    #[test]
    fn annotations_and_st_filters() {
        let (mut s, mut i, ids) = setup();
        let t = Triple { s: ids[1], p: i.intern("at"), o: i.intern("cell-42") };
        s.insert_annotated(
            t,
            Annotation { t: Timestamp::from_secs(100), pos: Some(Position::new(43.0, 5.0)) },
        );
        assert!(s.annotation(&t).is_some());

        // Time filter hits.
        let hits = s.matching_st(
            Some(ids[1]),
            None,
            None,
            Some((Timestamp::from_secs(50), Timestamp::from_secs(150))),
            None,
        );
        assert_eq!(hits.len(), 1);
        // Time filter misses.
        let misses = s.matching_st(
            Some(ids[1]),
            None,
            None,
            Some((Timestamp::from_secs(200), Timestamp::from_secs(300))),
            None,
        );
        assert!(misses.is_empty());
        // Spatial filter.
        let in_box =
            s.matching_st(None, None, None, None, Some(&BoundingBox::new(42.0, 4.0, 44.0, 6.0)));
        assert_eq!(in_box.len(), 1);
        let out_box =
            s.matching_st(None, None, None, None, Some(&BoundingBox::new(0.0, 0.0, 1.0, 1.0)));
        assert!(out_box.is_empty());
    }

    #[test]
    fn unannotated_triples_fail_st_filters() {
        let (s, _, ids) = setup();
        let hits =
            s.matching_st(Some(ids[0]), None, None, Some((Timestamp::MIN, Timestamp::MAX)), None);
        assert!(hits.is_empty(), "no annotation, no spatio-temporal match");
    }
}
