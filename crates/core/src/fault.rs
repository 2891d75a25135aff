//! Seeded, deterministic fault plans for chaos testing the sampling stack.
//!
//! A [`FaultPlan`] is the user-facing description of a fault schedule: fail
//! the Nth `BSAT` call, exhaust a budget with probability *p* per call,
//! poison a Gauss–Jordan seal, panic worker *k* at item *i*. It is threaded
//! through [`crate::SamplerBuilder::fault_plan`] into the samplers (where it
//! doubles as the solver's [`FaultHook`]) and into
//! [`crate::service::SamplerService`] (where the worker-panic primitive
//! lives). The default — no plan at all — is a no-op that costs one pointer
//! test on the solver's hot path; the bench gates in CI pin that.
//!
//! Every decision the plan makes is a pure function of its seed and its
//! call counters (SplitMix64 over `seed ^ counter`), never of wall-clock or
//! OS randomness, so a schedule replays identically run after run — the
//! chaos differential harness compares faulted runs against fault-free runs
//! bit for bit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use unigen_satsolver::{FaultHook, FaultSite};

use crate::mix::splitmix64;

/// A seeded, deterministic fault-injection schedule.
///
/// Build one with [`FaultPlan::seeded`] plus the fault primitives, install
/// it with [`crate::SamplerBuilder::fault_plan`], and read back what
/// happened with [`FaultPlan::faults_injected`]. All counters are shared
/// across clones of the sampler (the plan lives behind an `Arc`), so the
/// schedule is global to the sampler or service it is installed on.
///
/// # Example
///
/// ```
/// use unigen::FaultPlan;
///
/// let plan = FaultPlan::seeded(0xc4a05)
///     .fail_nth_bsat(2)
///     .poison_nth_gauss_seal(1);
/// assert_eq!(plan.faults_injected(), 0);
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    fail_nth_bsat: Option<u64>,
    exhaust_permille: u16,
    poison_nth_gauss_seal: Option<u64>,
    panic_worker: Option<(usize, usize)>,
    /// `BSAT` calls announced via [`FaultPlan::begin_bsat`].
    bsat_calls: AtomicU64,
    /// Gauss seals attempted (counted at the hook).
    gauss_seals: AtomicU64,
    /// Whether the *current* `BSAT` call is scheduled to fail; armed by
    /// `begin_bsat`, consumed by the first solve of that call.
    armed: AtomicBool,
    /// Whether the worker-panic primitive has already fired (one-shot).
    panic_fired: AtomicBool,
    /// Total faults injected so far, across all primitives.
    faults: AtomicU64,
}

impl FaultPlan {
    /// Creates an empty plan (injects nothing) with the given seed for the
    /// probabilistic primitive.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Schedules the `n`-th `BSAT` call (1-based, counted per
    /// [`FaultPlan::begin_bsat`]) to fail with an injected fault.
    pub fn fail_nth_bsat(mut self, n: u64) -> Self {
        self.fail_nth_bsat = Some(n);
        self
    }

    /// Schedules every `BSAT` call to fail with probability
    /// `permille / 1000`, decided by SplitMix64 over the plan's seed and
    /// the call index — deterministic for a fixed seed.
    pub fn exhaust_with_permille(mut self, permille: u16) -> Self {
        self.exhaust_permille = permille.min(1000);
        self
    }

    /// Schedules the `n`-th Gauss seal attempt (1-based) to be poisoned:
    /// the solver leaves the pending layers intact and returns
    /// `InterruptReason::GaussPoisoned`, which the samplers answer by
    /// retrying the cell with Gauss elimination off.
    pub fn poison_nth_gauss_seal(mut self, n: u64) -> Self {
        self.poison_nth_gauss_seal = Some(n);
        self
    }

    /// Schedules worker `worker` to panic when it executes batch item
    /// `item` (one-shot: the respawned worker retries the item without
    /// re-panicking, so the batch completes).
    pub fn panic_worker_at(mut self, worker: usize, item: usize) -> Self {
        self.panic_worker = Some((worker, item));
        self
    }

    /// Total faults injected so far (solver trips plus worker panics).
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// `BSAT` calls announced so far via [`FaultPlan::begin_bsat`].
    pub fn bsat_calls(&self) -> u64 {
        self.bsat_calls.load(Ordering::Relaxed)
    }

    /// Announces the start of one `BSAT` call (a whole hash-cell
    /// enumeration, not one underlying solve) and decides — from the call
    /// index and the plan seed alone — whether it is scheduled to fail.
    /// The samplers call this before every *fresh* cell enumeration;
    /// retries of a faulted call are deliberately not announced, so a
    /// retry runs fault-free and the recovery ladder converges.
    pub fn begin_bsat(&self) {
        let n = self.bsat_calls.fetch_add(1, Ordering::Relaxed) + 1;
        let mut fail = self.fail_nth_bsat == Some(n);
        if !fail && self.exhaust_permille > 0 {
            fail = splitmix64(self.seed ^ n) % 1000 < u64::from(self.exhaust_permille);
        }
        self.armed.store(fail, Ordering::Relaxed);
    }

    /// Returns `true` exactly once if this plan schedules `worker` to
    /// panic at `item` — consulted by the service before executing an
    /// item.
    pub fn should_panic_worker(&self, worker: usize, item: usize) -> bool {
        if self.panic_worker != Some((worker, item)) {
            return false;
        }
        let fired = self.panic_fired.swap(true, Ordering::Relaxed);
        if !fired {
            self.faults.fetch_add(1, Ordering::Relaxed);
        }
        !fired
    }
}

impl FaultHook for FaultPlan {
    fn trip(&self, site: FaultSite) -> bool {
        match site {
            // The first solve of an armed BSAT call takes the fault; warm
            // continuations within the same call run normally.
            FaultSite::SolveStart => {
                let tripped = self.armed.swap(false, Ordering::Relaxed);
                if tripped {
                    self.faults.fetch_add(1, Ordering::Relaxed);
                }
                tripped
            }
            // Budget-style faults are modelled at call entry; the
            // SearchStep site stays available for custom hooks.
            FaultSite::SearchStep => false,
            FaultSite::GaussSeal => {
                let n = self.gauss_seals.fetch_add(1, Ordering::Relaxed) + 1;
                let tripped = self.poison_nth_gauss_seal == Some(n);
                if tripped {
                    self.faults.fetch_add(1, Ordering::Relaxed);
                }
                tripped
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_trips() {
        let plan = FaultPlan::seeded(1);
        for _ in 0..10 {
            plan.begin_bsat();
            assert!(!plan.trip(FaultSite::SolveStart));
            assert!(!plan.trip(FaultSite::SearchStep));
            assert!(!plan.trip(FaultSite::GaussSeal));
        }
        assert!(!plan.should_panic_worker(0, 0));
        assert_eq!(plan.faults_injected(), 0);
    }

    #[test]
    fn nth_bsat_fails_exactly_once_and_only_when_armed() {
        let plan = FaultPlan::seeded(2).fail_nth_bsat(2);
        plan.begin_bsat();
        assert!(!plan.trip(FaultSite::SolveStart));
        plan.begin_bsat();
        assert!(plan.trip(FaultSite::SolveStart), "second call must fail");
        // The warm continuation (and an un-announced retry) runs clean.
        assert!(!plan.trip(FaultSite::SolveStart));
        plan.begin_bsat();
        assert!(!plan.trip(FaultSite::SolveStart));
        assert_eq!(plan.faults_injected(), 1);
    }

    #[test]
    fn permille_schedule_is_deterministic() {
        let decide = |seed: u64| {
            let plan = FaultPlan::seeded(seed).exhaust_with_permille(500);
            (0..64)
                .map(|_| {
                    plan.begin_bsat();
                    plan.trip(FaultSite::SolveStart)
                })
                .collect::<Vec<bool>>()
        };
        let a = decide(77);
        assert_eq!(a, decide(77), "same seed must replay identically");
        assert_ne!(a, decide(78), "different seeds should differ");
        let trips = a.iter().filter(|&&t| t).count();
        assert!((10..=54).contains(&trips), "p=0.5 over 64 calls: {trips}");
    }

    #[test]
    fn gauss_poison_and_worker_panic_are_one_shot() {
        let plan = FaultPlan::seeded(3)
            .poison_nth_gauss_seal(2)
            .panic_worker_at(1, 4);
        assert!(!plan.trip(FaultSite::GaussSeal));
        assert!(plan.trip(FaultSite::GaussSeal));
        assert!(!plan.trip(FaultSite::GaussSeal));
        assert!(!plan.should_panic_worker(0, 4));
        assert!(!plan.should_panic_worker(1, 3));
        assert!(plan.should_panic_worker(1, 4));
        assert!(!plan.should_panic_worker(1, 4), "panic is one-shot");
        assert_eq!(plan.faults_injected(), 2);
    }
}
