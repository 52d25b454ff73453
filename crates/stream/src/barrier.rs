//! Tick-boundary barrier protocol for multi-writer shard-affine ingest.
//!
//! N writer lanes each own a disjoint shard set end-to-end; the only
//! cross-shard points left (fleet-index merge, snapshot publication)
//! happen at aligned tick boundaries. [`TickBarrier`] turns each
//! boundary into an explicit quiesce-merge-resume protocol:
//!
//! 1. every lane deposits its per-shard contribution and calls
//!    [`TickBarrier::wait`];
//! 2. the **leader** (the last lane to arrive) runs the serialized
//!    merge/publish step while every follower stays parked;
//! 3. the leader calls [`TickBarrier::release`] and all lanes resume.
//!
//! The barrier is generation-counted and reusable, so one barrier
//! serves every boundary of a run. It is panic-safe the same way
//! [`run_with_readers`](crate::runner::run_with_readers) is: a lane
//! that unwinds mid-protocol [abandons](TickBarrier::abandon) the
//! barrier, waking every parked sibling into a panic instead of a
//! deadlocked [`std::thread::scope`] join. [`run_lanes`] packages the
//! spawn/guard/join choreography and hands every lane a [`Shared`]
//! handle, whose [`Shared::cross`] is one such crossing. A single lane
//! has nobody to meet: it runs on the caller's thread and owns the
//! shared state outright.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Panic message used when a lane finds the barrier abandoned. Kept as
/// a constant so [`run_lanes`] can prefer re-raising the *original*
/// panic over the secondary ones it provokes in sibling lanes.
const ABANDONED: &str = "tick barrier abandoned by a panicking writer lane";

/// What a lane is, for the phase it just entered, after
/// [`TickBarrier::wait`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneRole {
    /// Last to arrive: run the serialized merge step, then call
    /// [`TickBarrier::release`]. Exactly one lane per phase.
    Leader,
    /// Parked until the leader released the phase; resume lane-local
    /// work.
    Follower,
}

#[derive(Debug)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    /// A leader has been elected for the current phase and has not yet
    /// released it.
    leader_pending: bool,
    broken: bool,
}

/// A reusable, leader-electing, poisonable barrier over a fixed number
/// of writer lanes. See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct TickBarrier {
    state: Mutex<BarrierState>,
    cvar: Condvar,
    parties: usize,
}

impl TickBarrier {
    /// Barrier over `parties` lanes (`parties >= 1`).
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one lane");
        Self {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                leader_pending: false,
                broken: false,
            }),
            cvar: Condvar::new(),
            parties,
        }
    }

    /// Arrive at the phase boundary. The last lane to arrive returns
    /// [`LaneRole::Leader`] *while every other lane stays parked*; the
    /// leader must call [`TickBarrier::release`] to let them through.
    ///
    /// # Panics
    ///
    /// Panics (with a fixed message) if the barrier was
    /// [abandoned](TickBarrier::abandon) — the lane should unwind so
    /// its scope can observe the original failure instead of
    /// deadlocking.
    pub fn wait(&self) -> LaneRole {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.broken {
            drop(s);
            panic!("{ABANDONED}");
        }
        debug_assert!(!s.leader_pending, "wait() re-entered while a leader phase is open");
        s.arrived += 1;
        if s.arrived == self.parties {
            s.leader_pending = true;
            return LaneRole::Leader;
        }
        let gen = s.generation;
        while s.generation == gen && !s.broken {
            s = self.cvar.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        // A generation bump doubles as the all-clear: if the break
        // happened in a *later* phase this lane already got through.
        if s.broken && s.generation == gen {
            drop(s);
            panic!("{ABANDONED}");
        }
        LaneRole::Follower
    }

    /// Close the current phase (leader only): reset arrivals, bump the
    /// generation and wake every parked follower.
    pub fn release(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.broken {
            return;
        }
        debug_assert!(s.leader_pending, "release() without a pending leader");
        s.arrived = 0;
        s.leader_pending = false;
        s.generation = s.generation.wrapping_add(1);
        drop(s);
        self.cvar.notify_all();
    }

    /// Poison the barrier: every parked lane (and every future
    /// [`TickBarrier::wait`]) panics instead of waiting forever. Called
    /// by [`run_lanes`]'s per-lane guard when a lane unwinds, mirroring
    /// the `StopOnDrop` release in
    /// [`run_with_readers`](crate::runner::run_with_readers).
    pub fn abandon(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.broken = true;
        drop(s);
        self.cvar.notify_all();
    }
}

/// Abandons the barrier on drop unless disarmed — the lane-side half of
/// the panic-safety contract (dropped during unwind ⇒ siblings wake).
struct AbandonOnDrop<'a> {
    barrier: &'a TickBarrier,
    armed: bool,
}

impl Drop for AbandonOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.barrier.abandon();
        }
    }
}

/// True if a panic payload is the barrier's own secondary
/// "abandoned" panic rather than the original failure.
fn is_abandon_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<&str>().is_some_and(|s| *s == ABANDONED)
        || payload.downcast_ref::<String>().is_some_and(|s| s == ABANDONED)
}

/// A lane's handle on the state its [`run_lanes`] call shares.
pub enum Shared<'a, S> {
    /// The lone lane, on the caller's thread: it owns the state
    /// outright and has no other lane to meet.
    Inline(&'a mut S),
    /// One of several lane threads: the state sits behind the mutex,
    /// and the lanes meet at the barrier.
    Threaded(&'a Mutex<S>, &'a TickBarrier),
}

fn lock<S>(state: &Mutex<S>) -> MutexGuard<'_, S> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<S> Shared<'_, S> {
    /// Run `f` on the shared state (briefly locked when threaded; never
    /// call it while inside another `with` or `cross` closure).
    pub fn with<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        match self {
            Shared::Inline(state) => f(state),
            Shared::Threaded(state, _) => f(&mut lock(state)),
        }
    }

    /// One barrier crossing: every lane runs its `deposit`, then the
    /// last lane to arrive runs `lead` while all others stay parked,
    /// and only then do the lanes resume.
    ///
    /// # Panics
    ///
    /// Panics if another lane abandoned the barrier (see
    /// [`TickBarrier::wait`]).
    pub fn cross(&mut self, deposit: impl FnOnce(&mut S), lead: impl FnOnce(&mut S)) {
        match self {
            Shared::Inline(state) => {
                deposit(state);
                lead(state);
            }
            Shared::Threaded(state, barrier) => {
                deposit(&mut lock(state));
                if barrier.wait() == LaneRole::Leader {
                    lead(&mut lock(state));
                    barrier.release();
                }
            }
        }
    }
}

/// Run `f` once per lane and return the results in lane order. `f`
/// receives the lane index, exclusive access to that lane's state, and
/// the lane's [`Shared`] handle on `shared`.
///
/// A single lane runs inline on the calling thread — no spawn, no
/// barrier, no lock. Several lanes run on one scoped thread each,
/// sharing a [`TickBarrier`] over `lanes.len()` parties, and are all
/// joined before this returns.
///
/// If any lane panics, the barrier is abandoned (no deadlocked scope),
/// every other lane unwinds at its next crossing, and the *original*
/// panic is re-raised after all lanes have been joined.
pub fn run_lanes<T, S, R>(
    lanes: &mut [T],
    shared: &mut Mutex<S>,
    f: impl Fn(usize, &mut T, Shared<'_, S>) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    S: Send,
    R: Send,
{
    if let [lane] = lanes {
        let state = shared.get_mut().unwrap_or_else(PoisonError::into_inner);
        return vec![f(0, lane, Shared::Inline(state))];
    }
    if lanes.is_empty() {
        return Vec::new();
    }
    let barrier = TickBarrier::new(lanes.len());
    let results: Vec<thread::Result<R>> = thread::scope(|scope| {
        let (barrier, shared, f) = (&barrier, &*shared, &f);
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(w, lane)| {
                scope.spawn(move || {
                    let mut guard = AbandonOnDrop { barrier, armed: true };
                    let out = f(w, lane, Shared::Threaded(shared, barrier));
                    guard.armed = false;
                    out
                })
            })
            .collect();
        // Join (not propagate) so every lane finishes before any panic
        // resurfaces — the scope must never be left waiting on a lane
        // parked at an abandoned barrier.
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut original = None;
    let mut secondary = None;
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(p) if is_abandon_payload(p.as_ref()) => {
                secondary.get_or_insert(p);
            }
            Err(p) => {
                original.get_or_insert(p);
            }
        }
    }
    if let Some(p) = original.or(secondary) {
        std::panic::resume_unwind(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn single_party_is_always_leader() {
        let b = TickBarrier::new(1);
        for _ in 0..3 {
            assert_eq!(b.wait(), LaneRole::Leader);
            b.release();
        }
    }

    #[test]
    fn one_leader_per_phase_across_generations() {
        const LANES: usize = 4;
        const ROUNDS: u64 = 25;
        let serialized = AtomicBool::new(false);
        let mut states = vec![(); LANES];
        // (deposits, leader runs)
        let mut shared = Mutex::new((0u64, 0u64));
        run_lanes(&mut states, &mut shared, |_w, _s, mut shared| {
            for _ in 0..ROUNDS {
                shared.cross(
                    |s| s.0 += 1,
                    |s| {
                        // No two leader sections may overlap.
                        assert!(!serialized.swap(true, Ordering::SeqCst));
                        s.1 += 1;
                        assert!(serialized.swap(false, Ordering::SeqCst));
                    },
                );
            }
        });
        assert_eq!(shared.into_inner().unwrap(), (LANES as u64 * ROUNDS, ROUNDS));
    }

    #[test]
    fn followers_stay_parked_until_release() {
        // The leader holds the phase open while it mutates shared
        // state; a follower resuming before the mutation is complete
        // and visible would be a protocol violation.
        let mut states = vec![(); 3];
        let mut checkpoint = Mutex::new(0u64);
        run_lanes(&mut states, &mut checkpoint, |_w, _s, mut shared| {
            for round in 1..=10u64 {
                shared.cross(|_| {}, |c| *c = round);
                assert_eq!(shared.with(|c| *c), round);
                // Nobody may lead the next round before every lane has
                // checked this one.
                shared.cross(|_| {}, |_| {});
            }
        });
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload.downcast_ref::<&str>().copied().unwrap_or_default()
    }

    #[test]
    fn panicking_lane_releases_parked_siblings() {
        let mut states = vec![(); 4];
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_lanes(&mut states, &mut Mutex::new(()), |w, _s, mut shared| {
                for round in 0..5 {
                    if w == 2 && round == 3 {
                        panic!("injected lane fault");
                    }
                    shared.cross(|()| {}, |()| {});
                }
            });
        }));
        // The test *finishing* is the real assertion (no deadlock);
        // the propagated payload must be the injected one, not the
        // secondary abandoned-barrier panic.
        let payload = result.expect_err("lane panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "injected lane fault");
    }

    #[test]
    fn panicking_leader_releases_parked_followers() {
        let mut states = vec![(); 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_lanes(&mut states, &mut Mutex::new(()), |_w, _s, mut shared| {
                for round in 0..4 {
                    shared.cross(
                        |()| {},
                        |()| {
                            if round == 2 {
                                panic!("leader died mid-merge");
                            }
                        },
                    );
                }
            });
        }));
        let payload = result.expect_err("leader panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "leader died mid-merge");
    }

    #[test]
    fn lanes_inside_run_with_readers_release_readers_on_panic() {
        // The composed shape the pipeline uses: reader loops poll while
        // writer lanes run. A lane panic must release both the barrier
        // (siblings) and the reader flag.
        use crate::runner::run_with_readers;
        let polls = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_with_readers(
                || {
                    let mut states = vec![(); 3];
                    run_lanes(&mut states, &mut Mutex::new(()), |w, _s, mut shared| {
                        for round in 0..6 {
                            if w == 1 && round == 4 {
                                panic!("lane fault under readers");
                            }
                            shared.cross(|()| {}, |()| {});
                        }
                    });
                },
                2,
                |_r, running| {
                    while running.load(Ordering::Acquire) {
                        polls.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                },
            );
        }));
        assert!(result.is_err(), "writer-side panic must surface");
        assert!(polls.load(Ordering::Relaxed) > 0, "readers ran before release");
    }

    #[test]
    fn empty_lane_set_runs_nothing() {
        let mut none: Vec<u32> = Vec::new();
        assert!(run_lanes(&mut none, &mut Mutex::new(()), |_, _, _| 1).is_empty());
    }

    #[test]
    fn single_lane_runs_inline_on_the_calling_thread() {
        let caller = thread::current().id();
        let mut one = vec![10u32];
        let mut shared = Mutex::new(Vec::new());
        let out = run_lanes(&mut one, &mut shared, |w, s, mut shared| {
            assert_eq!(thread::current().id(), caller, "a lone lane must not be spawned");
            assert!(matches!(shared, Shared::Inline(_)), "a lone lane owns the shared state");
            // A crossing is the two closures in sequence: nobody to
            // wait for, so nothing to park on.
            shared.cross(|log| log.push("deposit"), |log| log.push("lead"));
            *s + w as u32
        });
        assert_eq!(out, vec![10]);
        assert_eq!(shared.into_inner().unwrap(), ["deposit", "lead"]);
    }

    #[test]
    fn single_lane_panic_surfaces_with_its_original_payload() {
        let mut one = vec![()];
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_lanes(&mut one, &mut Mutex::new(()), |_, _, mut shared| {
                shared.cross(|()| {}, |()| panic!("inline lane fault"));
            });
        }));
        let payload = result.expect_err("lane panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "inline lane fault");
    }
}
