//! Second-order uncertainty: probability intervals.
//!
//! §4: "Considering second-order uncertainty seems also unavoidable if
//! one wants to properly account for the imperfection of data ... but
//! also if one wants to communicate to the user faithful information."
//! A [`ProbInterval`] `[lo, hi]` says: the probability is somewhere in
//! this range — the width *is* the second-order uncertainty, and it is
//! what the operator picture shows next to every alert.

/// A closed probability interval `[lo, hi] ⊆ [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbInterval {
    /// Lower probability.
    pub lo: f64,
    /// Upper probability.
    pub hi: f64,
}

impl ProbInterval {
    /// A precise probability (zero-width interval).
    pub fn precise(p: f64) -> Self {
        let p = p.clamp(0.0, 1.0);
        Self { lo: p, hi: p }
    }

    /// Construct, clamping into `[0,1]` and ordering the endpoints.
    pub fn new(lo: f64, hi: f64) -> Self {
        let lo = lo.clamp(0.0, 1.0);
        let hi = hi.clamp(0.0, 1.0);
        if lo <= hi {
            Self { lo, hi }
        } else {
            Self { lo: hi, hi: lo }
        }
    }

    /// Total ignorance `[0, 1]`.
    pub fn vacuous() -> Self {
        Self { lo: 0.0, hi: 1.0 }
    }

    /// Interval width — the second-order uncertainty.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint (a point summary when a single number is demanded).
    pub fn midpoint(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    /// True if `p` lies inside the interval.
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo - 1e-12 && p <= self.hi + 1e-12
    }

    /// Complement: probability of the negated event.
    pub fn not(&self) -> Self {
        Self { lo: 1.0 - self.hi, hi: 1.0 - self.lo }
    }

    /// Conservative conjunction of *independent* events: the exact
    /// product interval.
    pub fn and_independent(&self, other: &Self) -> Self {
        Self::new(self.lo * other.lo, self.hi * other.hi)
    }

    /// Conservative disjunction of independent events.
    pub fn or_independent(&self, other: &Self) -> Self {
        Self::new(
            1.0 - (1.0 - self.lo) * (1.0 - other.lo),
            1.0 - (1.0 - self.hi) * (1.0 - other.hi),
        )
    }

    /// Fréchet conjunction with *unknown* dependence: the widest interval
    /// compatible with any joint distribution.
    pub fn and_frechet(&self, other: &Self) -> Self {
        Self::new((self.lo + other.lo - 1.0).max(0.0), self.hi.min(other.hi))
    }

    /// Fréchet disjunction with unknown dependence.
    pub fn or_frechet(&self, other: &Self) -> Self {
        Self::new(self.lo.max(other.lo), (self.hi + other.hi).min(1.0))
    }

    /// Intersection of two interval estimates of the *same* quantity
    /// (e.g. two sources bounding the same event); `None` when they are
    /// incompatible.
    pub fn intersect(&self, other: &Self) -> Option<Self> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi + 1e-12 {
            Some(Self { lo, hi: hi.max(lo) })
        } else {
            None
        }
    }
}

impl std::fmt::Display for ProbInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.3}, {:.3}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_clamps_and_orders() {
        let i = ProbInterval::new(0.8, 0.2);
        assert_eq!((i.lo, i.hi), (0.2, 0.8));
        let c = ProbInterval::new(-0.5, 1.5);
        assert_eq!((c.lo, c.hi), (0.0, 1.0));
        assert_eq!(ProbInterval::precise(0.3).width(), 0.0);
    }

    #[test]
    fn complement_flips() {
        let i = ProbInterval::new(0.2, 0.5);
        let n = i.not();
        assert!((n.lo - 0.5).abs() < 1e-12 && (n.hi - 0.8).abs() < 1e-12);
        // Double negation.
        let nn = n.not();
        assert!((nn.lo - i.lo).abs() < 1e-12 && (nn.hi - i.hi).abs() < 1e-12);
    }

    #[test]
    fn independent_combinators() {
        let a = ProbInterval::new(0.5, 0.7);
        let b = ProbInterval::new(0.4, 0.6);
        let and = a.and_independent(&b);
        assert!((and.lo - 0.2).abs() < 1e-12 && (and.hi - 0.42).abs() < 1e-12);
        let or = a.or_independent(&b);
        assert!((or.lo - 0.7).abs() < 1e-12 && (or.hi - 0.88).abs() < 1e-12);
    }

    #[test]
    fn frechet_is_wider_than_independent() {
        let a = ProbInterval::new(0.5, 0.7);
        let b = ProbInterval::new(0.4, 0.6);
        let ind = a.and_independent(&b);
        let fre = a.and_frechet(&b);
        assert!(fre.lo <= ind.lo + 1e-12);
        assert!(fre.hi >= ind.hi - 1e-12);
        // Fréchet bounds for these: [max(0,0.5+0.4-1), min(0.7,0.6)].
        assert_eq!(fre.lo, 0.0);
        assert_eq!(fre.hi, 0.6);
    }

    #[test]
    fn intersection_of_compatible_sources() {
        let a = ProbInterval::new(0.2, 0.6);
        let b = ProbInterval::new(0.4, 0.9);
        let i = a.intersect(&b).unwrap();
        assert_eq!((i.lo, i.hi), (0.4, 0.6));
        assert!(i.width() < a.width(), "fusion narrows uncertainty");
    }

    #[test]
    fn incompatible_sources_yield_none() {
        let a = ProbInterval::new(0.0, 0.2);
        let b = ProbInterval::new(0.7, 1.0);
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn vacuous_absorbs_nothing() {
        let v = ProbInterval::vacuous();
        let a = ProbInterval::new(0.3, 0.5);
        let i = v.intersect(&a).unwrap();
        assert_eq!((i.lo, i.hi), (0.3, 0.5), "ignorance adds no constraint");
        assert!(v.contains(0.0) && v.contains(1.0));
    }

    #[test]
    fn midpoint_and_display() {
        let i = ProbInterval::new(0.25, 0.75);
        assert_eq!(i.midpoint(), 0.5);
        assert_eq!(i.to_string(), "[0.250, 0.750]");
    }
}
