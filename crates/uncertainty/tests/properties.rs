//! Property tests for the uncertainty frameworks.

use mda_uncertainty::interval::ProbInterval;
use proptest::prelude::*;

fn arb_interval() -> impl Strategy<Value = ProbInterval> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| ProbInterval::new(a, b))
}

proptest! {
    #[test]
    fn interval_ops_stay_in_unit_box(a in arb_interval(), b in arb_interval()) {
        for i in [
            a.not(),
            a.and_independent(&b),
            a.or_independent(&b),
            a.and_frechet(&b),
            a.or_frechet(&b),
        ] {
            prop_assert!(i.lo >= -1e-12 && i.hi <= 1.0 + 1e-12);
            prop_assert!(i.lo <= i.hi + 1e-12);
        }
    }

    #[test]
    fn frechet_contains_independent(a in arb_interval(), b in arb_interval()) {
        let ind = a.and_independent(&b);
        let fre = a.and_frechet(&b);
        prop_assert!(fre.lo <= ind.lo + 1e-9);
        prop_assert!(fre.hi >= ind.hi - 1e-9);
        let ind_or = a.or_independent(&b);
        let fre_or = a.or_frechet(&b);
        prop_assert!(fre_or.lo <= ind_or.lo + 1e-9);
        prop_assert!(fre_or.hi >= ind_or.hi - 1e-9);
    }

    #[test]
    fn intersection_narrows(a in arb_interval(), b in arb_interval()) {
        if let Some(i) = a.intersect(&b) {
            prop_assert!(i.width() <= a.width() + 1e-12);
            prop_assert!(i.width() <= b.width() + 1e-12);
            prop_assert!(i.lo >= a.lo - 1e-12 && i.hi <= a.hi + 1e-12);
        }
    }
}
