//! Deterministic EMA-driven adaptive control of the streaming hot path.
//!
//! A fixed reorder delay, seal cadence and event-ring capacity are
//! tuned for one arrival regime; real AIS feeds swing between
//! terrestrial trickle (seconds of disorder) and satellite dumps
//! (half-hour-late batches, port-hotspot skew). The
//! [`AdaptiveController`] closes the loop: it watches **event-time
//! observables only** — the observed lateness distribution, per-shard
//! arrival skew, hot-tier seal backlog and the recognised-event rate —
//! smooths each through a fast/slow EMA pair, and moves three knobs
//! between configured clamp bounds:
//!
//! - **reorder delay** — headroom over the smoothed lateness level,
//!   quantized to [`ControlConfig::delay_step`];
//! - **seal cadence** — the base cadence divided by the arrival burst
//!   ratio (fast EMA over slow EMA), so bursts seal the hot tier more
//!   eagerly and quiet regimes stop thrashing the shard locks;
//! - **event-ring capacity** — headroom over the smoothed events-per-
//!   boundary rate, rounded up to a power of two.
//!
//! ## Determinism discipline
//!
//! The controller is a **pure function of the observation stream**: no
//! wall clock, no randomness, no load feedback. Observations are event
//! times and shard ids — identical for every writer/shard/reader count
//! — and knob moves commit only at aligned tick boundaries of the
//! **arrival frontier**, so the knob trajectory is bit-for-bit
//! reproducible and invariant under the writer count. EMA arithmetic
//! is plain IEEE-754 `f64` in a fixed evaluation order.
//!
//! The frontier — never the watermark — is the commit clock: a
//! watermark-clocked schedule self-throttles, because widening the
//! delay by Δ holds the watermark (and the next watermark-aligned
//! boundary) still for exactly Δ of frontier time, blacking out
//! control precisely while lateness is ramping. The frontier is the
//! one event-time clock that cannot stall under the controller's own
//! knob moves.

use mda_geo::{DurationMs, Timestamp};

/// A fast/slow exponential-moving-average pair over one observable.
///
/// The fast EMA reacts to bursts; the slow EMA tracks the regime; the
/// controller sizes knobs off [`EmaPair::level`] (their maximum) so a
/// burst widens tolerances immediately while decay back is gradual.
///
/// ```
/// use mda_stream::control::EmaPair;
///
/// let mut ema = EmaPair::new(0.5, 0.05);
/// ema.observe(100.0);
/// assert_eq!(ema.level(), 100.0, "first observation seeds both EMAs");
/// ema.observe(0.0);
/// assert!(ema.fast() < ema.slow(), "fast EMA decays quicker");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EmaPair {
    fast_alpha: f64,
    slow_alpha: f64,
    fast: f64,
    slow: f64,
    seeded: bool,
}

impl EmaPair {
    /// A pair with the given smoothing factors (each in `(0, 1]`).
    pub fn new(fast_alpha: f64, slow_alpha: f64) -> Self {
        assert!(fast_alpha > 0.0 && fast_alpha <= 1.0, "fast alpha in (0,1]");
        assert!(slow_alpha > 0.0 && slow_alpha <= 1.0, "slow alpha in (0,1]");
        Self { fast_alpha, slow_alpha, fast: 0.0, slow: 0.0, seeded: false }
    }

    /// Fold one observation in. The first observation seeds both EMAs
    /// exactly (no cold-start bias toward zero).
    pub fn observe(&mut self, x: f64) {
        if self.seeded {
            self.fast += self.fast_alpha * (x - self.fast);
            self.slow += self.slow_alpha * (x - self.slow);
        } else {
            self.fast = x;
            self.slow = x;
            self.seeded = true;
        }
    }

    /// The burst-tracking (fast) EMA.
    pub fn fast(&self) -> f64 {
        self.fast
    }

    /// The regime-tracking (slow) EMA.
    pub fn slow(&self) -> f64 {
        self.slow
    }

    /// The level knobs are sized off: `max(fast, slow)` — react to
    /// bursts instantly, relax back at the slow constant.
    pub fn level(&self) -> f64 {
        self.fast.max(self.slow)
    }

    /// The burst ratio `fast / slow` (1.0 until seeded or while the
    /// slow EMA is zero).
    pub fn burst_ratio(&self) -> f64 {
        if self.seeded && self.slow > 0.0 {
            self.fast / self.slow
        } else {
            1.0
        }
    }
}

/// Clamp bounds and gains of the [`AdaptiveController`].
#[derive(Debug, Clone, Copy)]
pub struct ControlConfig {
    /// Reorder-delay clamp `(min, max)`, ms of event time.
    pub delay_bounds: (DurationMs, DurationMs),
    /// Reorder-delay quantization step, ms (knob moves are multiples).
    pub delay_step: DurationMs,
    /// Headroom multiplier over the smoothed lateness level.
    pub delay_headroom: f64,
    /// Seal-cadence clamp `(min, max)`, ms of event time.
    pub seal_bounds: (DurationMs, DurationMs),
    /// Seal cadence at burst ratio 1.0 (steady state), ms.
    pub seal_base: DurationMs,
    /// Seal-cadence quantization step, ms.
    pub seal_step: DurationMs,
    /// Event-ring capacity clamp `(min, max)`, events.
    pub ring_bounds: (usize, usize),
    /// Headroom multiplier over the smoothed events-per-boundary rate.
    pub ring_headroom: f64,
    /// Fast EMA smoothing factor, `(0, 1]`.
    pub fast_alpha: f64,
    /// Slow EMA smoothing factor, `(0, 1]`.
    pub slow_alpha: f64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        use mda_geo::time::MINUTE;
        Self {
            delay_bounds: (10 * MINUTE, 70 * MINUTE),
            delay_step: MINUTE,
            delay_headroom: 1.25,
            seal_bounds: (10 * MINUTE, 60 * MINUTE),
            seal_base: 30 * MINUTE,
            seal_step: MINUTE,
            ring_bounds: (1_024, 1 << 20),
            ring_headroom: 8.0,
            fast_alpha: 0.25,
            slow_alpha: 0.05,
        }
    }
}

impl ControlConfig {
    fn validate(&self) {
        assert!(
            0 < self.delay_bounds.0 && self.delay_bounds.0 <= self.delay_bounds.1,
            "delay bounds ordered and positive"
        );
        assert!(self.delay_step > 0, "delay step positive");
        assert!(self.delay_headroom >= 1.0, "delay headroom covers the observed lateness");
        assert!(
            0 < self.seal_bounds.0 && self.seal_bounds.0 <= self.seal_bounds.1,
            "seal bounds ordered and positive"
        );
        assert!(self.seal_step > 0, "seal step positive");
        assert!(self.seal_base > 0, "seal base positive");
        assert!(
            0 < self.ring_bounds.0 && self.ring_bounds.0 <= self.ring_bounds.1,
            "ring bounds ordered and positive"
        );
        assert!(self.ring_headroom > 0.0, "ring headroom positive");
        assert!(self.fast_alpha > 0.0 && self.fast_alpha <= 1.0, "fast alpha in (0,1]");
        assert!(self.slow_alpha > 0.0 && self.slow_alpha <= 1.0, "slow alpha in (0,1]");
    }
}

/// The controller's three outputs, always inside the configured clamp
/// bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Reorder-buffer / watermark disorder tolerance, ms.
    pub delay: DurationMs,
    /// Seal-schedule cadence, ms of event time between hot→cold sweeps.
    pub seal_every: DurationMs,
    /// Bounded event-ring capacity, events.
    pub ring_capacity: usize,
}

/// Smoothed observable levels, for reports and dashboards.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControlGauges {
    /// Fast-EMA observed lateness, ms.
    pub lateness_fast_ms: f64,
    /// Slow-EMA observed lateness, ms.
    pub lateness_slow_ms: f64,
    /// Fast-EMA per-shard arrival skew (1.0 = perfectly even).
    pub skew_fast: f64,
    /// Slow-EMA per-shard arrival skew.
    pub skew_slow: f64,
    /// Fast-EMA arrivals per commit boundary.
    pub rate_fast: f64,
    /// Slow-EMA arrivals per commit boundary.
    pub rate_slow: f64,
    /// Fast-EMA recognised events per commit boundary.
    pub events_fast: f64,
    /// Slow-EMA recognised events per commit boundary.
    pub events_slow: f64,
    /// Hot-tier fix count at the last commit (seal backlog).
    pub hot_backlog: u64,
    /// Knob commits so far.
    pub commits: u64,
}

/// Arrival-side observation accumulator.
///
/// Lives on the thread that accepts arrivals (the pipeline's router)
/// so the per-arrival path never takes a lock: lateness EMAs update in
/// place, per-shard counts accumulate, and
/// [`AdaptiveController::absorb`] drains the window into the committing
/// side at a deterministic point (an epoch start).
#[derive(Debug, Clone)]
pub struct ArrivalWindow {
    max_seen: Option<Timestamp>,
    lateness: EmaPair,
    shard_counts: Vec<u64>,
    arrivals: u64,
}

impl ArrivalWindow {
    /// A window over `shards` routing shards (the *store* shard count,
    /// which is writer-count invariant — never the lane count).
    pub fn new(shards: usize, fast_alpha: f64, slow_alpha: f64) -> Self {
        Self {
            max_seen: None,
            lateness: EmaPair::new(fast_alpha, slow_alpha),
            shard_counts: vec![0; shards.max(1)],
            arrivals: 0,
        }
    }

    /// Observe one identity-bearing arrival: its event time (lateness
    /// versus the running maximum) and its owning shard.
    pub fn observe(&mut self, t: Timestamp, shard: usize) {
        let late_ms = match self.max_seen {
            Some(m) if t < m => (m - t) as f64,
            _ => {
                self.max_seen = Some(match self.max_seen {
                    Some(m) => m.max(t),
                    None => t,
                });
                0.0
            }
        };
        self.lateness.observe(late_ms);
        let slot = shard % self.shard_counts.len();
        self.shard_counts[slot] += 1;
        self.arrivals += 1;
    }

    /// Arrivals accumulated since the last absorb.
    pub fn pending(&self) -> u64 {
        self.arrivals
    }
}

/// The knob-committing side: smooths absorbed observations and turns
/// them into clamped [`Knobs`] at aligned tick boundaries.
///
/// ```
/// use mda_geo::time::MINUTE;
/// use mda_geo::Timestamp;
/// use mda_stream::control::{AdaptiveController, ArrivalWindow, ControlConfig, Knobs};
///
/// let cfg = ControlConfig::default();
/// let initial = Knobs { delay: 40 * MINUTE, seal_every: 30 * MINUTE, ring_capacity: 65_536 };
/// let mut ctl = AdaptiveController::new(cfg, initial);
/// let mut window = ArrivalWindow::new(8, cfg.fast_alpha, cfg.slow_alpha);
/// // A near-in-order trickle: the delay knob contracts toward its floor.
/// for i in 0..500i64 {
///     window.observe(Timestamp::from_secs(i), (i % 8) as usize);
/// }
/// ctl.absorb(&mut window);
/// let knobs = ctl.commit(Timestamp::from_secs(500), 0, 0);
/// assert_eq!(knobs.delay, cfg.delay_bounds.0);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    cfg: ControlConfig,
    lateness: EmaPair,
    skew: EmaPair,
    rate: EmaPair,
    events: EmaPair,
    /// Counts drained from the arrival window, awaiting the next commit.
    pending_counts: Vec<u64>,
    pending_arrivals: u64,
    last_emitted: u64,
    hot_backlog: u64,
    commits: u64,
    knobs: Knobs,
    trace: Vec<(Timestamp, Knobs)>,
}

impl AdaptiveController {
    /// A controller starting from `initial` knob values (clamped into
    /// the configured bounds).
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent [`ControlConfig`] (unordered bounds,
    /// zero steps, out-of-range alphas).
    pub fn new(cfg: ControlConfig, initial: Knobs) -> Self {
        cfg.validate();
        let knobs = Knobs {
            delay: initial.delay.clamp(cfg.delay_bounds.0, cfg.delay_bounds.1),
            seal_every: initial.seal_every.clamp(cfg.seal_bounds.0, cfg.seal_bounds.1),
            ring_capacity: initial.ring_capacity.clamp(cfg.ring_bounds.0, cfg.ring_bounds.1),
        };
        Self {
            cfg,
            lateness: EmaPair::new(cfg.fast_alpha, cfg.slow_alpha),
            skew: EmaPair::new(cfg.fast_alpha, cfg.slow_alpha),
            rate: EmaPair::new(cfg.fast_alpha, cfg.slow_alpha),
            events: EmaPair::new(cfg.fast_alpha, cfg.slow_alpha),
            pending_counts: Vec::new(),
            pending_arrivals: 0,
            last_emitted: 0,
            hot_backlog: 0,
            commits: 0,
            knobs,
            trace: Vec::new(),
        }
    }

    /// The configuration this controller clamps against.
    pub fn config(&self) -> &ControlConfig {
        &self.cfg
    }

    /// Drain an [`ArrivalWindow`] into the committing side: the
    /// lateness EMA pair is adopted wholesale (it already smooths per
    /// arrival) and the per-shard counts accumulate until the next
    /// commit. Call at a deterministic point only — a tick boundary or
    /// an epoch start — never on arrival jitter.
    pub fn absorb(&mut self, window: &mut ArrivalWindow) {
        self.lateness = window.lateness;
        if self.pending_counts.len() != window.shard_counts.len() {
            self.pending_counts = vec![0; window.shard_counts.len()];
        }
        for (acc, c) in self.pending_counts.iter_mut().zip(&mut window.shard_counts) {
            *acc += std::mem::take(c);
        }
        self.pending_arrivals += std::mem::take(&mut window.arrivals);
    }

    /// Commit the knobs for aligned tick boundary `boundary`.
    ///
    /// `hot_backlog` is the hot-tier fix count at the boundary (the
    /// seal backlog gauge) and `emitted_total` the cumulative
    /// recognised-event count — both pure functions of the event-time
    /// stream up to the boundary, so feeding them keeps the controller
    /// deterministic.
    pub fn commit(&mut self, boundary: Timestamp, hot_backlog: u64, emitted_total: u64) -> Knobs {
        // Per-shard skew and arrival rate of the window since the last
        // commit (skipped when nothing arrived: an empty boundary holds
        // the regime rather than observing a phantom perfectly-even 0).
        if self.pending_arrivals > 0 {
            let busiest = *self.pending_counts.iter().max().expect("non-empty counts");
            let shards = self.pending_counts.len() as f64;
            self.skew.observe(busiest as f64 * shards / self.pending_arrivals as f64);
            self.rate.observe(self.pending_arrivals as f64);
            self.pending_counts.iter_mut().for_each(|c| *c = 0);
            self.pending_arrivals = 0;
        }
        let emitted = emitted_total.saturating_sub(self.last_emitted);
        self.last_emitted = emitted_total;
        self.events.observe(emitted as f64);
        self.hot_backlog = hot_backlog;
        self.commits += 1;

        // Delay: headroom over the smoothed lateness level, rounded up
        // to the step so the knob moves in coarse, cache-friendly jumps.
        let want = (self.cfg.delay_headroom * self.lateness.level()).ceil() as DurationMs;
        let delay = quantize_up(want, self.cfg.delay_step)
            .clamp(self.cfg.delay_bounds.0, self.cfg.delay_bounds.1);

        // Seal cadence: bursts (fast arrival EMA over slow) shrink the
        // cadence so the hot tier rotates before it bloats; skewed
        // arrivals concentrate the backlog on few shards, so skew
        // tightens it further.
        let pressure = (self.rate.burst_ratio() * self.skew.level().max(1.0)).max(1e-9);
        let want = (self.cfg.seal_base as f64 / pressure).ceil() as DurationMs;
        let seal_every = quantize_up(want, self.cfg.seal_step)
            .clamp(self.cfg.seal_bounds.0, self.cfg.seal_bounds.1);

        // Ring capacity: headroom over the smoothed events-per-boundary
        // rate, next power of two (ring reallocation is rare and cheap).
        let want = (self.cfg.ring_headroom * self.events.level()).ceil();
        let want = if want >= usize::MAX as f64 { usize::MAX } else { want as usize };
        let ring_capacity = want
            .max(1)
            .checked_next_power_of_two()
            .unwrap_or(usize::MAX)
            .clamp(self.cfg.ring_bounds.0, self.cfg.ring_bounds.1);

        self.knobs = Knobs { delay, seal_every, ring_capacity };
        self.trace.push((boundary, self.knobs));
        self.knobs
    }

    /// The knobs as of the last commit (the initial values before one).
    pub fn knobs(&self) -> Knobs {
        self.knobs
    }

    /// Smoothed observable levels for reporting.
    pub fn gauges(&self) -> ControlGauges {
        ControlGauges {
            lateness_fast_ms: self.lateness.fast(),
            lateness_slow_ms: self.lateness.slow(),
            skew_fast: self.skew.fast(),
            skew_slow: self.skew.slow(),
            rate_fast: self.rate.fast(),
            rate_slow: self.rate.slow(),
            events_fast: self.events.fast(),
            events_slow: self.events.slow(),
            hot_backlog: self.hot_backlog,
            commits: self.commits,
        }
    }

    /// Every committed `(boundary, knobs)` pair in commit order — the
    /// knob trajectory the determinism batteries compare bit-for-bit.
    pub fn trace(&self) -> &[(Timestamp, Knobs)] {
        &self.trace
    }
}

/// Round `x` up to the next multiple of `step` (`step > 0`).
fn quantize_up(x: DurationMs, step: DurationMs) -> DurationMs {
    if x <= 0 {
        return step;
    }
    match x % step {
        0 => x,
        r => x + (step - r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_geo::time::{MINUTE, SECOND};

    fn controller() -> (AdaptiveController, ArrivalWindow) {
        let cfg = ControlConfig::default();
        let initial = Knobs { delay: 40 * MINUTE, seal_every: 30 * MINUTE, ring_capacity: 65_536 };
        (
            AdaptiveController::new(cfg, initial),
            ArrivalWindow::new(8, cfg.fast_alpha, cfg.slow_alpha),
        )
    }

    #[test]
    fn quantize_rounds_up_to_step() {
        assert_eq!(quantize_up(0, MINUTE), MINUTE);
        assert_eq!(quantize_up(1, MINUTE), MINUTE);
        assert_eq!(quantize_up(MINUTE, MINUTE), MINUTE);
        assert_eq!(quantize_up(MINUTE + 1, MINUTE), 2 * MINUTE);
    }

    #[test]
    fn initial_knobs_are_clamped() {
        let cfg = ControlConfig::default();
        let ctl = AdaptiveController::new(
            cfg,
            Knobs { delay: 0, seal_every: i64::MAX, ring_capacity: 0 },
        );
        assert_eq!(ctl.knobs().delay, cfg.delay_bounds.0);
        assert_eq!(ctl.knobs().seal_every, cfg.seal_bounds.1);
        assert_eq!(ctl.knobs().ring_capacity, cfg.ring_bounds.0);
    }

    #[test]
    fn ordered_stream_contracts_delay_to_floor() {
        let (mut ctl, mut window) = controller();
        for i in 0..2_000i64 {
            window.observe(Timestamp::from_secs(i), (i % 8) as usize);
        }
        ctl.absorb(&mut window);
        let knobs = ctl.commit(Timestamp::from_mins(34), 0, 0);
        assert_eq!(knobs.delay, ctl.config().delay_bounds.0, "in-order stream needs no slack");
    }

    #[test]
    fn late_batches_widen_delay_with_headroom() {
        let (mut ctl, mut window) = controller();
        // A satellite dump: every arrival ~30 min behind the frontier.
        window.observe(Timestamp::from_mins(60), 0);
        for i in 0..500i64 {
            window.observe(Timestamp::from_mins(30) + (i % 60) * SECOND, (i % 8) as usize);
        }
        ctl.absorb(&mut window);
        let knobs = ctl.commit(Timestamp::from_mins(61), 0, 0);
        assert!(
            knobs.delay >= 30 * MINUTE,
            "delay {} must cover the ~30 min observed lateness",
            knobs.delay
        );
        assert!(knobs.delay <= ctl.config().delay_bounds.1);
        assert_eq!(knobs.delay % ctl.config().delay_step, 0, "quantized");
    }

    #[test]
    fn bursts_tighten_seal_cadence() {
        let (mut ctl, mut window) = controller();
        // Establish a quiet regime...
        for b in 0..20i64 {
            for i in 0..10i64 {
                window.observe(Timestamp::from_mins(b) + i * SECOND, (i % 8) as usize);
            }
            ctl.absorb(&mut window);
            ctl.commit(Timestamp::from_mins(b + 1), 0, 0);
        }
        let steady = ctl.knobs().seal_every;
        // ...then a 50× burst concentrated on one shard.
        for _ in 0..5_000 {
            window.observe(Timestamp::from_mins(21), 3);
        }
        ctl.absorb(&mut window);
        let bursty = ctl.commit(Timestamp::from_mins(22), 0, 0).seal_every;
        assert!(bursty < steady, "burst must tighten sealing: {bursty} !< {steady}");
        assert!(bursty >= ctl.config().seal_bounds.0);
    }

    #[test]
    fn ring_capacity_tracks_event_rate() {
        let (mut ctl, _) = controller();
        let mut emitted = 0u64;
        for b in 0..30i64 {
            emitted += 20_000;
            ctl.commit(Timestamp::from_mins(b), 0, emitted);
        }
        let knobs = ctl.knobs();
        assert!(knobs.ring_capacity >= 131_072, "20k events/boundary × 8 headroom, pow2");
        assert!(
            knobs.ring_capacity.is_power_of_two()
                || knobs.ring_capacity == ctl.config().ring_bounds.1
        );
        // Quiet again: capacity relaxes only at the slow constant.
        for b in 30..40i64 {
            ctl.commit(Timestamp::from_mins(b), 0, emitted);
        }
        assert!(ctl.knobs().ring_capacity >= ctl.config().ring_bounds.0);
    }

    #[test]
    fn knob_trajectory_is_a_pure_function_of_observations() {
        let run = || {
            let (mut ctl, mut window) = controller();
            for b in 0..50i64 {
                for i in 0..40i64 {
                    // Mildly disordered arrivals.
                    let t = Timestamp::from_mins(b) + ((i * 37) % 60) * SECOND - (i % 5) * MINUTE;
                    window.observe(t, ((i * 13) % 8) as usize);
                }
                ctl.absorb(&mut window);
                ctl.commit(Timestamp::from_mins(b + 1), (b * 100) as u64, (b * 17) as u64);
            }
            ctl.trace().to_vec()
        };
        assert_eq!(run(), run(), "identical streams must yield identical knob trajectories");
    }

    #[test]
    fn absorb_splits_do_not_change_counts() {
        // Absorbing every arrival vs once per batch must leave the same
        // pending state (the lateness EMA is per-arrival either way).
        let cfg = ControlConfig::default();
        let initial = Knobs { delay: 40 * MINUTE, seal_every: 30 * MINUTE, ring_capacity: 1 << 16 };
        let mut a = AdaptiveController::new(cfg, initial);
        let mut b = AdaptiveController::new(cfg, initial);
        let mut wa = ArrivalWindow::new(4, cfg.fast_alpha, cfg.slow_alpha);
        let mut wb = ArrivalWindow::new(4, cfg.fast_alpha, cfg.slow_alpha);
        for i in 0..100i64 {
            wa.observe(Timestamp::from_secs(i * 3 % 71), (i % 4) as usize);
            wb.observe(Timestamp::from_secs(i * 3 % 71), (i % 4) as usize);
            a.absorb(&mut wa);
        }
        b.absorb(&mut wb);
        assert_eq!(
            a.commit(Timestamp::from_mins(5), 7, 9),
            b.commit(Timestamp::from_mins(5), 7, 9),
            "absorb granularity must not affect the committed knobs"
        );
    }
}
