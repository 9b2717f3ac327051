//! Lower bounds on the optimal service cost (Lemma 3).
//!
//! Lemma 3 of the paper: with `T = 2^m τ'_n` and the class partition
//! `V_0 … V_K`, the optimal `q`-rooted TSP cost `w(D*_k)` over
//! `R ∪ V_0 ∪ … ∪ V_k` satisfies `w(D*_k) ≤ OPT / (m · 2^{K−k})` — i.e.
//!
//! ```text
//! OPT ≥ max_k  m · 2^{K−k} · w(D*_k)
//! ```
//!
//! `w(D*_k)` itself is NP-hard, but Theorem 1 sandwiches it:
//! `w(D_k)/2 ≤ w(D*_k)` where `D_k` is our 2-approximate tour set, and the
//! `q`-rooted MSF weight is an even simpler valid lower bound
//! (`w(MSF_k) ≤ w(D*_k)`). Both give *certified* lower bounds on `OPT`, so
//! `cost(Algorithm 3) / bound` is a certified upper bound on the empirical
//! approximation ratio — the number the `ratio` experiment reports against
//! the paper's worst-case `2(K + 2)`.

use crate::network::Instance;
use crate::qmsf::q_rooted_msf_src;
use crate::rounding::partition_cycles;

/// A certified lower bound on the optimal service cost of an instance,
/// with the class index that achieved it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCostBound {
    /// The bound value (same unit as distances).
    pub bound: f64,
    /// The class `k` whose window argument produced the bound.
    pub achieving_class: usize,
    /// The number of complete `2^{K−k}`-windows that fit in the horizon
    /// for the achieving class.
    pub windows: u64,
}

/// Computes the Lemma 3 lower bound using the exact `q`-rooted MSF weight
/// as the (certified) stand-in for `w(D*_k)`.
///
/// For each class `k`, the horizon is partitioned into windows of length
/// `2^{k+1} τ_1`; in every complete window each sensor of `V_0 ∪ … ∪ V_k`
/// must be charged at least once (its maximum cycle is `< 2^{k+1} τ_1`),
/// so every window costs at least the optimal `q`-rooted cover of that
/// set, which the MSF weight lower-bounds.
///
/// Returns a zero bound when no class fits even one complete window.
///
/// ```
/// use perpetuum_core::bounds::lemma3_lower_bound;
/// use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
/// use perpetuum_core::network::{Instance, Network};
/// use perpetuum_geom::Point2;
///
/// let network = Network::new(
///     vec![Point2::new(10.0, 0.0), Point2::new(20.0, 0.0)],
///     vec![Point2::new(0.0, 0.0)],
/// );
/// let instance = Instance::new(network, vec![2.0, 4.0], 32.0);
/// let bound = lemma3_lower_bound(&instance);
/// let cost = plan_min_total_distance(&instance, &MtdConfig::default()).service_cost();
/// assert!(bound.bound > 0.0);
/// assert!(cost >= bound.bound); // certified: no plan can beat the bound
/// ```
pub fn lemma3_lower_bound(instance: &Instance) -> ServiceCostBound {
    let n = instance.n();
    if n == 0 {
        return ServiceCostBound { bound: 0.0, achieving_class: 0, windows: 0 };
    }
    let partition = partition_cycles(instance.cycles());
    let network = instance.network();
    let depots = network.depot_nodes();

    let mut best = ServiceCostBound { bound: 0.0, achieving_class: 0, windows: 0 };
    for k in 0..=partition.k_max() {
        let window = 2.0 * partition.tau1 * (1u64 << k) as f64;
        let windows = (instance.horizon() / window).floor() as u64;
        if windows == 0 {
            continue;
        }
        let terminals = partition.cumulative(k);
        let msf = q_rooted_msf_src(&network.dist_source(), &terminals, &depots);
        let bound = windows as f64 * msf.weight;
        if bound > best.bound {
            best = ServiceCostBound { bound, achieving_class: k, windows };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{plan_greedy_fixed, GreedyConfig};
    use crate::mtd::{plan_min_total_distance, MtdConfig};
    use crate::network::Network;
    use perpetuum_geom::Point2;
    use rand::{Rng, SeedableRng};

    fn random_instance(n: usize, seed: u64, horizon: f64) -> Instance {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sensors: Vec<Point2> = (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![Point2::new(500.0, 500.0), Point2::new(0.0, 0.0)];
        let cycles: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..50.0)).collect();
        Instance::new(Network::new(sensors, depots), cycles, horizon)
    }

    #[test]
    fn bound_is_positive_and_below_every_feasible_plan() {
        for seed in 0..6u64 {
            let inst = random_instance(20, seed, 200.0);
            let lb = lemma3_lower_bound(&inst);
            assert!(lb.bound > 0.0, "seed {seed}");
            // Every feasible plan we can build costs at least the bound.
            for cost in [
                plan_min_total_distance(&inst, &MtdConfig::default()).service_cost(),
                plan_greedy_fixed(&inst, &GreedyConfig::paper_default(1.0)).service_cost(),
            ] {
                assert!(
                    cost + 1e-6 >= lb.bound,
                    "seed {seed}: plan cost {cost} under the lower bound {}",
                    lb.bound
                );
            }
        }
    }

    #[test]
    fn empirical_ratio_well_under_worst_case() {
        // The paper's guarantee is 2(K+2); random instances should come in
        // far below it.
        for seed in 10..14u64 {
            let inst = random_instance(30, seed, 500.0);
            let lb = lemma3_lower_bound(&inst);
            let cost = plan_min_total_distance(&inst, &MtdConfig::default()).service_cost();
            let partition = partition_cycles(inst.cycles());
            let worst_case = 2.0 * (partition.k_max() as f64 + 2.0);
            let ratio = cost / lb.bound;
            assert!(
                ratio <= worst_case,
                "seed {seed}: empirical ratio {ratio} above the guarantee {worst_case}"
            );
        }
    }

    #[test]
    fn short_horizon_gives_zero_bound() {
        // Horizon shorter than the smallest window: no charging is forced.
        let inst = random_instance(10, 3, 1.5); // windows need ≥ 2·τ_1 = 2
        let lb = lemma3_lower_bound(&inst);
        assert_eq!(lb.bound, 0.0);
        assert_eq!(lb.windows, 0);
    }

    #[test]
    fn empty_instance() {
        let net = Network::new(vec![], vec![Point2::ORIGIN]);
        let inst = Instance::new(net, vec![], 10.0);
        assert_eq!(lemma3_lower_bound(&inst).bound, 0.0);
    }

    #[test]
    fn uniform_cycles_bound_matches_window_count() {
        // All cycles 2: single class, window 4, horizon 16 → 4 windows.
        let sensors = vec![Point2::new(10.0, 0.0), Point2::new(20.0, 0.0)];
        let depots = vec![Point2::ORIGIN];
        let inst = Instance::new(Network::new(sensors, depots), vec![2.0, 2.0], 16.0);
        let lb = lemma3_lower_bound(&inst);
        assert_eq!(lb.windows, 4);
        assert_eq!(lb.achieving_class, 0);
        // MSF weight: 0→10→20 chain = 20.
        assert!((lb.bound - 4.0 * 20.0).abs() < 1e-9);
    }
}
