//! Open-world probabilistic relations.
//!
//! §4, on Windward's figure that 27% of ships go dark: "the AIS database
//! clearly violates the closed-world assumption ... querying for
//! rendez-vous events from an AIS database will return only those events
//! reflected by the AIS data. Considering that anything which is not in
//! the AIS database remains possible is thus crucial."
//!
//! [`OpenWorldRelation`] stores probabilistic tuples *plus an
//! incompleteness budget*: an estimate of how much of the world the
//! relation does not cover (e.g. the fraction of vessel-hours spent
//! dark). Closed-world queries sum the matching tuples; open-world
//! queries return a [`ProbInterval`] whose upper bound admits that the
//! unobserved part of the world may also satisfy the query.

use crate::interval::ProbInterval;

/// One probabilistic tuple: a value with its marginal probability of
/// being true/present.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbTuple<T> {
    /// The payload (an event, an observation...).
    pub value: T,
    /// Probability that the tuple holds.
    pub p: f64,
}

/// A probabilistic relation with an explicit incompleteness estimate.
#[derive(Debug, Clone)]
pub struct OpenWorldRelation<T> {
    tuples: Vec<ProbTuple<T>>,
    /// Expected number of real-world facts *missing* from the relation
    /// that could match an arbitrary query (the "dark" budget). Zero
    /// recovers the closed-world assumption.
    missing_budget: f64,
}

impl<T> OpenWorldRelation<T> {
    /// New relation with a given missing-fact budget.
    pub fn new(missing_budget: f64) -> Self {
        assert!(missing_budget >= 0.0);
        Self { tuples: Vec::new(), missing_budget }
    }

    /// Insert a tuple with probability `p` (clamped to `[0,1]`).
    pub fn insert(&mut self, value: T, p: f64) {
        self.tuples.push(ProbTuple { value, p: p.clamp(0.0, 1.0) });
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The incompleteness budget.
    pub fn missing_budget(&self) -> f64 {
        self.missing_budget
    }

    /// Update the incompleteness budget (e.g. from observed gap
    /// statistics).
    pub fn set_missing_budget(&mut self, budget: f64) {
        assert!(budget >= 0.0);
        self.missing_budget = budget;
    }

    /// Closed-world expected count of tuples matching `pred`.
    pub fn expected_count_closed(&self, pred: impl Fn(&T) -> bool) -> f64 {
        self.tuples.iter().filter(|t| pred(&t.value)).map(|t| t.p).sum()
    }

    /// Open-world expected count: `[closed, closed + missing_budget]`.
    /// The lower bound assumes every missing fact fails the query; the
    /// upper bound assumes every one satisfies it.
    pub fn expected_count_open(&self, pred: impl Fn(&T) -> bool) -> (f64, f64) {
        let closed = self.expected_count_closed(pred);
        (closed, closed + self.missing_budget)
    }

    /// Closed-world probability that *at least one* tuple matches
    /// (tuple independence assumed).
    pub fn exists_closed(&self, pred: impl Fn(&T) -> bool) -> f64 {
        let none: f64 = self.tuples.iter().filter(|t| pred(&t.value)).map(|t| 1.0 - t.p).product();
        1.0 - none
    }

    /// Open-world existence probability as an interval. The upper bound
    /// treats the missing budget as that many unobserved candidate facts
    /// each matching with probability `p_match_if_missing`.
    pub fn exists_open(&self, pred: impl Fn(&T) -> bool, p_match_if_missing: f64) -> ProbInterval {
        let closed = self.exists_closed(pred);
        let p = p_match_if_missing.clamp(0.0, 1.0);
        // Probability none of the ~budget missing facts match.
        let none_missing = (1.0 - p).powf(self.missing_budget);
        let upper = 1.0 - (1.0 - closed) * none_missing;
        ProbInterval::new(closed, upper)
    }

    /// Iterate over the stored tuples.
    pub fn iter(&self) -> impl Iterator<Item = &ProbTuple<T>> {
        self.tuples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Rendezvous {
        a: u32,
        b: u32,
        zone: &'static str,
    }

    fn relation() -> OpenWorldRelation<Rendezvous> {
        // Two observed candidate rendezvous; an estimated 3 more pairs of
        // vessel-encounters happened while the participants were dark.
        let mut r = OpenWorldRelation::new(3.0);
        r.insert(Rendezvous { a: 1, b: 2, zone: "open-sea" }, 0.9);
        r.insert(Rendezvous { a: 3, b: 4, zone: "open-sea" }, 0.4);
        r.insert(Rendezvous { a: 5, b: 6, zone: "port" }, 1.0);
        r
    }

    #[test]
    fn closed_world_counts() {
        let r = relation();
        let open_sea = r.expected_count_closed(|t| t.zone == "open-sea");
        assert!((open_sea - 1.3).abs() < 1e-12);
        assert_eq!(r.expected_count_closed(|t| t.zone == "reef"), 0.0);
    }

    #[test]
    fn open_world_interval_widens_by_budget() {
        let r = relation();
        let (lo, hi) = r.expected_count_open(|t| t.zone == "open-sea");
        assert!((lo - 1.3).abs() < 1e-12);
        assert!((hi - 4.3).abs() < 1e-12);
    }

    #[test]
    fn closed_world_misses_what_open_world_admits() {
        // The scenario of §4: nothing matching in the database, but the
        // dark budget keeps the event possible.
        let r = relation();
        let closed = r.exists_closed(|t| t.zone == "reef");
        assert_eq!(closed, 0.0, "closed world says impossible");
        let open = r.exists_open(|t| t.zone == "reef", 0.2);
        assert_eq!(open.lo, 0.0);
        assert!(open.hi > 0.4, "open world keeps it possible: {open}");
    }

    #[test]
    fn exists_closed_combines_independent_tuples() {
        let r = relation();
        let p = r.exists_closed(|t| t.zone == "open-sea");
        // 1 - (1-0.9)(1-0.4) = 0.94.
        assert!((p - 0.94).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_recovers_closed_world() {
        let mut r = relation();
        r.set_missing_budget(0.0);
        let i = r.exists_open(|t| t.zone == "open-sea", 0.5);
        assert!((i.width()).abs() < 1e-12, "no second-order uncertainty left");
        let (lo, hi) = r.expected_count_open(|_| true);
        assert_eq!(lo, hi);
    }

    #[test]
    fn certain_tuple_saturates_existence() {
        let r = relation();
        let i = r.exists_open(|t| t.zone == "port", 0.1);
        assert!((i.lo - 1.0).abs() < 1e-12);
        assert!((i.hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_relation() {
        let r: OpenWorldRelation<u32> = OpenWorldRelation::new(2.0);
        assert!(r.is_empty());
        assert_eq!(r.exists_closed(|_| true), 0.0);
        let i = r.exists_open(|_| true, 0.3);
        assert!(i.hi > 0.5, "two missing facts at 0.3 each: {i}");
    }
}
