//! Refinement budgets: how much work an anytime pass may spend.
//!
//! The primary unit is the **step** — one candidate-move *evaluation*
//! (not one accepted move), counted identically on every machine. A run
//! bounded only by steps is therefore fully deterministic: the same
//! `(seed, Budget::steps(k))` pair always stops at the same evaluation
//! and yields byte-identical tours. An optional wall-clock cap can be
//! layered on top for latency-sensitive callers (the serve background
//! workers); the cap can only *truncate* a run earlier, so it trades the
//! cross-machine reproducibility of the exact stopping point for a hard
//! latency bound while every intermediate incumbent stays feasible.

use std::time::{Duration, Instant};

/// Work allowance for one [`Refiner::run`](crate::Refiner::run) call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    steps: u64,
    time_cap: Option<Duration>,
}

impl Budget {
    /// A deterministic budget of `steps` candidate-move evaluations.
    pub fn steps(steps: u64) -> Self {
        Self { steps, time_cap: None }
    }

    /// Add a wall-clock ceiling: the run stops at the earlier of the step
    /// limit and `cap`. Time-capped runs are *not* byte-reproducible
    /// across machines (the clock decides the stopping step); use a pure
    /// step budget when determinism matters.
    pub fn with_time_cap(mut self, cap: Duration) -> Self {
        self.time_cap = Some(cap);
        self
    }

    /// The step limit.
    pub fn step_limit(&self) -> u64 {
        self.steps
    }

    /// The wall-clock ceiling, when one is set.
    pub fn time_cap(&self) -> Option<Duration> {
        self.time_cap
    }

    pub(crate) fn meter(&self) -> Meter {
        Meter {
            used: 0,
            limit: self.steps,
            deadline: self.time_cap.map(|c| Instant::now() + c),
            out: self.steps == 0,
        }
    }
}

/// Running countdown for one `run` call. Spending is deterministic; the
/// deadline is consulted only every [`Meter::TIME_STRIDE`] steps so the
/// hot loop stays clock-free.
#[derive(Debug)]
pub(crate) struct Meter {
    used: u64,
    limit: u64,
    deadline: Option<Instant>,
    out: bool,
}

impl Meter {
    /// Clock-poll stride: a power of two so the check compiles to a mask.
    const TIME_STRIDE: u64 = 64;

    /// Consume one step. Returns `true` when the caller may evaluate one
    /// more move — exactly `limit` times under a pure step budget — and
    /// `false` once the budget is exhausted: the caller must stop
    /// evaluating moves (already-accepted moves stand; the incumbent is
    /// always consistent).
    pub(crate) fn spend(&mut self) -> bool {
        if self.out {
            return false;
        }
        if self.used.is_multiple_of(Self::TIME_STRIDE)
            && self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            self.out = true;
            return false;
        }
        self.used += 1;
        self.out = self.used >= self.limit;
        true
    }

    /// True when no further work may be done.
    pub(crate) fn exhausted(&self) -> bool {
        self.out
    }

    /// Steps consumed so far.
    pub(crate) fn used(&self) -> u64 {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_budget_counts_down() {
        let mut m = Budget::steps(3).meter();
        assert!(m.spend());
        assert!(m.spend());
        assert!(m.spend()); // the third step is the last one granted
        assert!(m.exhausted());
        assert!(!m.spend());
        assert_eq!(m.used(), 3);
    }

    #[test]
    fn zero_budget_is_exhausted_immediately() {
        let mut m = Budget::steps(0).meter();
        assert!(m.exhausted());
        assert!(!m.spend());
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn expired_time_cap_stops_at_stride() {
        let mut m = Budget::steps(u64::MAX).with_time_cap(Duration::ZERO).meter();
        let mut taken = 0u64;
        while m.spend() {
            taken += 1;
            assert!(taken <= Meter::TIME_STRIDE, "deadline never consulted");
        }
        assert!(m.exhausted());
    }

    #[test]
    fn accessors_round_trip() {
        let b = Budget::steps(7).with_time_cap(Duration::from_millis(5));
        assert_eq!(b.step_limit(), 7);
        assert_eq!(b.time_cap(), Some(Duration::from_millis(5)));
        assert_eq!(Budget::steps(7).time_cap(), None);
    }
}
