//! **Algorithm 3 — `MinTotalDistance`** (Section V.B).
//!
//! The `2(K+2)`-approximation for the service cost minimization problem
//! with fixed maximum charging cycles:
//!
//! 1. round cycles to the geometric sequence `τ'_i = 2^k τ_1`
//!    ([`crate::rounding`]),
//! 2. dispatch the chargers at every multiple `j · τ_1 < T`; the `j`-th
//!    dispatch charges exactly the classes `V_k` with `2^k | j` — i.e. the
//!    cumulative set `D_{min(ν₂(j), K)}` where `ν₂` is the 2-adic valuation,
//! 3. route every dispatch with Algorithm 2 ([`crate::qtsp`]).
//!
//! Only `K + 1` *distinct* tour sets ever arise (`D_0 ⊂ D_1 ⊂ … ⊂ D_K`), so
//! the planner computes `K + 1` q-rooted TSP solutions and reuses them for
//! all `⌊T/τ_1⌋` dispatch times — exactly the paper's observation that the
//! scheduling sequence for one super-period `τ'_n = 2^K τ_1` is repeated
//! `⌈T/τ'_n⌉` times.

use crate::network::Instance;
use crate::qtsp::nested_tours;
use crate::rounding::{partition_cycles, CyclePartition};
use crate::schedule::{ScheduleSeries, TourSet};

/// The configuration argument of [`plan_min_total_distance`]. Algorithm 3
/// has no tunables left; the type stays so callers written against the
/// earlier signature still build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MtdConfig {}

/// 2-adic valuation ν₂(j): the exponent of the largest power of two
/// dividing `j`.
#[inline]
pub(crate) fn nu2(j: u64) -> usize {
    debug_assert!(j > 0);
    j.trailing_zeros() as usize
}

/// Runs Algorithm 3 and returns the full schedule series for the instance's
/// horizon, with dispatches in time order.
///
/// A network with zero sensors yields an empty series.
pub fn plan_min_total_distance(instance: &Instance, _cfg: &MtdConfig) -> ScheduleSeries {
    let mut series = ScheduleSeries::new();
    if instance.n() == 0 {
        return series;
    }
    let partition = partition_cycles(instance.cycles());
    let sets = build_cumulative_tour_sets(instance, &partition);
    let set_ids: Vec<usize> = sets.into_iter().map(|s| series.add_set(s)).collect();
    push_dispatch_timeline(
        &mut series,
        &set_ids,
        partition.tau1,
        partition.k_max(),
        0.0,
        instance.horizon(),
    );
    series
}

/// Routes the `K + 1` cumulative sensor sets `D_0 … D_K` with Algorithm 2,
/// top-down: each `D_k`'s forest starts from `D_{k+1}`'s
/// ([`crate::qtsp::nested_tours`]).
pub(crate) fn build_cumulative_tour_sets(
    instance: &Instance,
    partition: &CyclePartition,
) -> Vec<TourSet> {
    let network = instance.network();
    let n = network.n();
    let cums: Vec<Vec<usize>> = (0..=partition.k_max()).map(|k| partition.cumulative(k)).collect();
    let src = network.dist_source();
    nested_tours(&src, &cums, &network.depot_nodes(), |_, qt| TourSet::from_qtours(qt, |v| v >= n))
        .0
}

/// Emits dispatches at `start + j·τ_1` for `j = 1, 2, …` while strictly
/// before `end`, each referencing `set_ids[min(ν₂(j), K)]`.
///
/// Shared by Algorithm 3 (with `start = 0`) and the variable-cycle
/// replanner (with `start = t`, the replan time).
pub(crate) fn push_dispatch_timeline(
    series: &mut ScheduleSeries,
    set_ids: &[usize],
    tau1: f64,
    k_max: usize,
    start: f64,
    end: f64,
) {
    debug_assert_eq!(set_ids.len(), k_max + 1);
    let mut j: u64 = 1;
    loop {
        let t = start + j as f64 * tau1;
        if t >= end {
            break;
        }
        let k = nu2(j).min(k_max);
        series.push_dispatch(t, set_ids[k]);
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use perpetuum_geom::Point2;

    fn line_instance(cycles: Vec<f64>, horizon: f64) -> Instance {
        let n = cycles.len();
        let sensors: Vec<Point2> =
            (0..n).map(|i| Point2::new((i + 1) as f64 * 10.0, 0.0)).collect();
        let depots = vec![Point2::new(0.0, 0.0)];
        Instance::new(Network::new(sensors, depots), cycles, horizon)
    }

    #[test]
    fn nu2_values() {
        assert_eq!(nu2(1), 0);
        assert_eq!(nu2(2), 1);
        assert_eq!(nu2(3), 0);
        assert_eq!(nu2(4), 2);
        assert_eq!(nu2(12), 2);
        assert_eq!(nu2(64), 6);
    }

    #[test]
    fn uniform_cycles_single_set_every_tau() {
        // All cycles 2.0, T = 10: dispatches at 2, 4, 6, 8 (not 10).
        let inst = line_instance(vec![2.0; 3], 10.0);
        let s = plan_min_total_distance(&inst, &MtdConfig::default());
        let times: Vec<f64> = s.dispatches().iter().map(|d| d.time).collect();
        assert_eq!(times, vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(s.sets().len(), 1);
        // Every dispatch charges all three sensors.
        assert_eq!(s.total_charges(), 12);
    }

    #[test]
    fn two_class_dispatch_pattern() {
        // τ = [1, 2]: V_0 = {0}, V_1 = {1}; K = 1; T = 8.
        // j:      1    2    3    4    5    6    7
        // set:    D0   D1   D0   D1   D0   D1   D0
        let inst = line_instance(vec![1.0, 2.0], 8.0);
        let s = plan_min_total_distance(&inst, &MtdConfig::default());
        assert_eq!(s.dispatch_count(), 7);
        assert_eq!(s.charge_times(0), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s.charge_times(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn rounded_cycle_gaps_respected() {
        // τ = [1, 3, 5, 50]: rounded to [1, 2, 4, 32].
        let inst = line_instance(vec![1.0, 3.0, 5.0, 50.0], 64.0);
        let s = plan_min_total_distance(&inst, &MtdConfig::default());
        for (i, &rounded) in [1.0, 2.0, 4.0, 32.0].iter().enumerate() {
            let times = s.charge_times(i);
            assert!(!times.is_empty(), "sensor {i} never charged");
            // First charge at exactly the rounded cycle.
            assert_eq!(times[0], rounded, "sensor {i}");
            // All gaps equal the rounded cycle.
            for w in times.windows(2) {
                assert!((w[1] - w[0] - rounded).abs() < 1e-9, "sensor {i}");
            }
        }
    }

    #[test]
    fn feasible_by_construction() {
        let inst = line_instance(vec![1.0, 1.7, 2.9, 4.4, 13.0, 50.0], 100.0);
        let s = plan_min_total_distance(&inst, &MtdConfig::default());
        crate::feasibility::check_series(&inst, &s).unwrap();
    }

    #[test]
    fn no_dispatch_at_or_after_horizon() {
        let inst = line_instance(vec![2.0; 2], 6.0);
        let s = plan_min_total_distance(&inst, &MtdConfig::default());
        assert!(s.dispatches().iter().all(|d| d.time < 6.0));
        // τ' = 2, so dispatches at 2, 4 only.
        assert_eq!(s.dispatch_count(), 2);
    }

    #[test]
    fn short_horizon_needs_no_dispatches() {
        // T smaller than every cycle: initial full charge suffices.
        let inst = line_instance(vec![10.0, 20.0], 5.0);
        let s = plan_min_total_distance(&inst, &MtdConfig::default());
        assert_eq!(s.dispatch_count(), 0);
        assert_eq!(s.service_cost(), 0.0);
        crate::feasibility::check_series(&inst, &s).unwrap();
    }

    #[test]
    fn polish_only_reduces_cost() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sensors: Vec<Point2> = (0..40)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let cycles: Vec<f64> = (0..40).map(|_| rng.gen_range(1.0..50.0)).collect();
        let depots = vec![Point2::new(500.0, 500.0), Point2::new(100.0, 900.0)];
        let inst = Instance::new(Network::new(sensors, depots), cycles, 64.0);
        let plain = plan_min_total_distance(&inst, &MtdConfig::default());
        // The polish is the refiner, run to a local optimum over every set.
        let budget = crate::refine::Budget::steps(crate::refine::CONVERGENCE_STEPS);
        let (polished, report) = crate::refine::refine(inst.network(), &plain, &budget, 11);
        assert!(report.converged);
        assert!(polished.service_cost() <= plain.service_cost() + 1e-9);
        crate::feasibility::check_series(&inst, &polished).unwrap();
    }

    #[test]
    fn empty_network_empty_series() {
        let net = Network::new(vec![], vec![Point2::ORIGIN]);
        let inst = Instance::new(net, vec![], 10.0);
        let s = plan_min_total_distance(&inst, &MtdConfig::default());
        assert_eq!(s.dispatch_count(), 0);
    }
}
