//! Anytime refinement of whole schedules (the `perpetuum-opt` adapter).
//!
//! Algorithm 2 routes every cumulative set `D_k` constructively — a
//! 2-approximation. [`refine`] takes a finished [`ScheduleSeries`] and a
//! [`Budget`] and runs the seeded local search of `perpetuum-opt`
//! (2-opt, Or-opt, cross-tour relocate/swap) over each distinct tour
//! set, through the same [`Metric`](perpetuum_graph::Metric)/`DistSource` abstraction the
//! planners use — large sparse instances never materialize a dense
//! matrix.
//!
//! Refinement is *schedule-safe by construction*: a tour set's sensor
//! union is invariant under every move kernel (only tour order and the
//! sensor→charger assignment inside the set change), and dispatch times
//! are untouched. Charge times — the only thing
//! [`feasibility::check_series`](crate::feasibility::check_series)
//! depends on — are therefore bit-identical before and after, so a
//! feasible plan stays feasible and an infeasible one is never silently
//! "repaired". The property tests in `tests/refine.rs` pin this.
//!
//! The step budget is divided between sets in proportion to
//! `dispatch-count × family size`, so sets that are driven often (the
//! low-`k` cumulative sets of the power-of-two grid) get the bulk of the
//! work — that is where a unit of tour-length gain multiplies into
//! service-cost gain. Sets no dispatch references are copied verbatim.

use crate::network::Network;
use crate::schedule::{ScheduleSeries, TourSet};
pub use perpetuum_opt::{Budget, RefineOutcome};
use perpetuum_opt::{Refiner, DEFAULT_CANDIDATES};

/// Family size below which exhaustive move scans beat k-NN candidate
/// lists (building a kd-tree for a handful of nodes is pure overhead).
const CANDIDATE_THRESHOLD: usize = 48;

/// Golden-ratio increment decorrelating per-set RNG streams.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// A step budget large enough for every tour family this repository
/// refines to reach a local optimum: callers that want to measure the
/// local optimum rather than an anytime snapshot pass
/// `Budget::steps(CONVERGENCE_STEPS)` and check `converged`.
pub const CONVERGENCE_STEPS: u64 = 1_000_000_000;

/// What a [`refine`] call achieved, in service-cost terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineReport {
    /// `service_cost()` of the input series.
    pub constructive_cost: f64,
    /// `service_cost()` of the refined series (≤ constructive).
    pub refined_cost: f64,
    /// Candidate-move evaluations spent across all sets.
    pub steps: u64,
    /// Moves accepted across all sets.
    pub accepted: u64,
    /// Local-search passes completed across all sets.
    pub passes: u64,
    /// True when every refined set reached a local optimum within its
    /// share of the budget.
    pub converged: bool,
}

impl RefineReport {
    /// Fraction of the constructive service cost removed, in `[0, 1)`.
    pub fn improvement_ratio(&self) -> f64 {
        if self.constructive_cost > 0.0 {
            1.0 - self.refined_cost / self.constructive_cost
        } else {
            0.0
        }
    }
}

/// Refine one tour set in place of its constructive routing. Returns the
/// refined set (same sensors, same depots, cost ≤ input) and the raw
/// optimizer outcome.
pub fn refine_tour_set(
    network: &Network,
    set: &TourSet,
    budget: &Budget,
    seed: u64,
) -> (TourSet, RefineOutcome) {
    let src = network.dist_source();
    let tours: Vec<Vec<usize>> = set.tours().iter().map(|t| t.nodes().to_vec()).collect();
    let family: usize = tours.iter().map(Vec::len).sum();
    let mut refiner = Refiner::new(tours, &src, seed);
    if family >= CANDIDATE_THRESHOLD {
        refiner.set_candidates(network.points(), DEFAULT_CANDIDATES);
    }
    let outcome = refiner.run(budget);
    let refined = TourSet::new(refiner.into_tours(), &src, |v| network.is_depot(v));
    debug_assert_eq!(refined.sensors(), set.sensors(), "refinement changed set membership");
    (refined, outcome)
}

/// Refine every dispatched tour set of `series` under a shared `budget`,
/// returning the upgraded series and a cost report. Dispatch times, set
/// ids and per-set sensor membership are preserved exactly; only tour
/// geometry improves. Deterministic for a fixed `(seed, budget)` step
/// budget (a wall-clock cap can truncate earlier).
pub fn refine(
    network: &Network,
    series: &ScheduleSeries,
    budget: &Budget,
    seed: u64,
) -> (ScheduleSeries, RefineReport) {
    let constructive_cost = series.service_cost();
    let sets = series.sets();

    // Budget weight: how often each set is driven × how big it is.
    let mut uses = vec![0u64; sets.len()];
    for d in series.dispatches() {
        uses[d.set] += 1;
    }
    let weights: Vec<u64> = sets
        .iter()
        .zip(&uses)
        .map(|(s, &u)| u * s.tours().iter().map(|t| t.len() as u64).sum::<u64>())
        .collect();
    let total_weight: u64 = weights.iter().sum();

    let mut out = ScheduleSeries::new();
    let mut report = RefineReport {
        constructive_cost,
        refined_cost: 0.0,
        steps: 0,
        accepted: 0,
        passes: 0,
        converged: true,
    };
    for (k, set) in sets.iter().enumerate() {
        if weights[k] == 0 || total_weight == 0 {
            out.add_set(set.clone());
            continue;
        }
        let share =
            (budget.step_limit() as u128 * weights[k] as u128 / total_weight as u128) as u64;
        let mut slice = Budget::steps(share);
        if let Some(cap) = budget.time_cap() {
            slice = slice.with_time_cap(cap.mul_f64(weights[k] as f64 / total_weight as f64));
        }
        let (refined, outcome) = refine_tour_set(
            network,
            set,
            &slice,
            seed.wrapping_add((k as u64).wrapping_mul(SEED_STRIDE)),
        );
        report.steps += outcome.steps;
        report.accepted += outcome.accepted;
        report.passes += outcome.passes;
        report.converged &= outcome.converged;
        out.add_set(refined);
    }
    for d in series.dispatches() {
        out.push_dispatch(d.time, d.set);
    }
    report.refined_cost = out.service_cost();
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mtd::{plan_min_total_distance, MtdConfig};
    use crate::network::Instance;
    use perpetuum_geom::Point2;

    fn scattered(n: usize, q: usize, seed: u64) -> Instance {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let sensors: Vec<Point2> =
            (0..n).map(|_| Point2::new(next() * 100.0, next() * 100.0)).collect();
        let depots: Vec<Point2> =
            (0..q).map(|_| Point2::new(next() * 100.0, next() * 100.0)).collect();
        let network = Network::new(sensors, depots);
        let cycles = vec![8.0; n];
        Instance::new(network, cycles, 40.0)
    }

    #[test]
    fn refine_cuts_cost_and_preserves_feasibility_surface() {
        let instance = scattered(60, 3, 9);
        let plan = plan_min_total_distance(&instance, &MtdConfig::default());
        let (refined, report) = refine(instance.network(), &plan, &Budget::steps(400_000), 42);
        assert!(report.refined_cost <= report.constructive_cost + 1e-9);
        assert!(report.improvement_ratio() > 0.0, "no gain on a random instance");
        // Same sets, same membership, same dispatch grid.
        assert_eq!(refined.sets().len(), plan.sets().len());
        for (a, b) in refined.sets().iter().zip(plan.sets()) {
            assert_eq!(a.sensors(), b.sensors());
            assert!(a.cost() <= b.cost() + 1e-9);
        }
        assert_eq!(refined.dispatches(), plan.dispatches());
    }

    #[test]
    fn zero_budget_is_an_exact_copy() {
        let instance = scattered(30, 2, 4);
        let plan = plan_min_total_distance(&instance, &MtdConfig::default());
        let (copy, report) = refine(instance.network(), &plan, &Budget::steps(0), 1);
        assert_eq!(report.refined_cost, report.constructive_cost);
        assert_eq!(report.accepted, 0);
        for (a, b) in copy.sets().iter().zip(plan.sets()) {
            assert_eq!(a.tours(), b.tours());
        }
    }

    #[test]
    fn undispatched_sets_are_copied_verbatim() {
        let instance = scattered(20, 2, 7);
        let plan = plan_min_total_distance(&instance, &MtdConfig::default());
        let mut series = ScheduleSeries::new();
        for set in plan.sets() {
            series.add_set(set.clone());
        }
        // Dispatch only set 0: all other sets must come back untouched.
        series.push_dispatch(0.0, 0);
        let (refined, _) = refine(instance.network(), &series, &Budget::steps(100_000), 5);
        for (k, (a, b)) in refined.sets().iter().zip(series.sets()).enumerate().skip(1) {
            assert_eq!(a.tours(), b.tours(), "undispatched set {k} was modified");
        }
    }
}
