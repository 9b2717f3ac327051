//! **`MinTotalDistance-var`** — replanning under variable maximum charging
//! cycles (Section VI.B).
//!
//! When the base station learns that sensor cycles have drifted out of the
//! applicability band `[τ̂', 2τ̂')` of the current plan, it recomputes:
//!
//! 1. run Algorithm 3 on the *updated* maximum cycles `τ̂_i(t)`, producing
//!    schedulings at `t + j·τ̂_1(t)`;
//! 2. that plan assumed all sensors full at `t`, which they are not — the
//!    set `V^a = { v_i : l̂_i(t) < τ̂'_i(t) }` cannot survive to their first
//!    scheduled charge. Repair: sensors with `l̂_i < τ̂_1` form an immediate
//!    extra scheduling `(C'_0, t)`; the remaining `V^a` sensors are split
//!    into classes `V^a_k` by residual lifetime (`2^k τ̂_1 ≤ l̂_i <
//!    2^(k+1) τ̂_1`) and, class by class, attached to the *nearest* of the
//!    first `2^k + 1` schedulings via a `q`-rooted MSF whose super-roots
//!    are the schedulings themselves (distance of a sensor to a super-root
//!    = nearest distance to any node already in that scheduling);
//! 3. the modified first `2^K + 1` schedulings are re-routed with
//!    Algorithm 2; all later schedulings reuse the unmodified Algorithm 3
//!    tour sets.

// BTreeMaps, not HashMaps: modified-set construction iterates these, and
// set insertion order must be deterministic for byte-identical replans.
use std::collections::BTreeMap;

use crate::mtd::{nu2, push_dispatch_timeline};
use crate::network::Network;
use crate::qmsf::{rooted_msf_points, RootedForest, SupersetTree};
use crate::qtsp::{nested_tours, route_from_superset, QTours};
use crate::rounding::{partition_cycles, power_class, CyclePartition};
use crate::schedule::{ScheduleSeries, TourSet};
use perpetuum_geom::Point2;
use perpetuum_graph::Metric;

/// Inputs to one replanning round at time `now`.
#[derive(Debug, Clone, Copy)]
pub struct VarInput<'a> {
    /// Network geometry.
    pub network: &'a Network,
    /// Updated maximum charging cycles `τ̂_i(now)`, one per sensor.
    pub max_cycles: &'a [f64],
    /// Estimated residual lifetimes `l̂_i(now)`, one per sensor.
    pub residuals: &'a [f64],
    /// Replan time `t`.
    pub now: f64,
    /// Monitoring period end `T`.
    pub horizon: f64,
}

/// Output of a replanning round.
#[derive(Debug, Clone)]
pub struct VarPlan {
    /// Dispatches from `now` (inclusive) to the horizon (exclusive), in
    /// time order.
    pub series: ScheduleSeries,
    /// The cycle `τ̂'_i` each sensor is charged at in this plan — the base
    /// station stores these for the next applicability test.
    pub assigned_cycles: Vec<f64>,
    /// Indices (into `series.sets()`) of the unmodified Algorithm-3 base
    /// tour sets `B_0 … B_K`, in class order — an incremental replanner can
    /// re-route one class and retarget exactly these sets' future
    /// dispatches. Empty for an empty network.
    pub base_set_ids: Vec<usize>,
}

/// How `V^a` sensors are attached to early schedulings — the
/// nearest-scheduling MSF of the paper versus a naive "charge all of `V^a`
/// immediately" repair (ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairStrategy {
    /// The paper's Section VI.B construction.
    #[default]
    NearestScheduling,
    /// Append all of `V^a` to the immediate scheduling `(C'_0, t)`.
    ChargeAllNow,
}

/// Runs one `MinTotalDistance-var` replanning round with the paper's
/// repair strategy.
pub fn replan_variable(input: &VarInput) -> VarPlan {
    replan_variable_with(input, RepairStrategy::NearestScheduling)
}

/// Replanning with an explicit [`RepairStrategy`] (for the repair
/// ablation bench).
pub fn replan_variable_with(input: &VarInput, repair: RepairStrategy) -> VarPlan {
    if input.network.n() == 0 {
        assert!(input.now < input.horizon, "replanning after the horizon");
        return VarPlan {
            series: ScheduleSeries::new(),
            assigned_cycles: Vec::new(),
            base_set_ids: Vec::new(),
        };
    }
    replan_variable_detailed(input, repair).plan
}

/// Everything a replanning round computed, beyond the plan itself: the
/// cycle partition and, per class `k`, the `q`-rooted forest and tours of
/// the unmodified base set `D_k`. [`crate::incremental::IncrementalPlanner`]
/// seeds its persistent per-class state from these instead of rebuilding
/// them from scratch.
#[derive(Debug)]
pub(crate) struct VarDetailed {
    /// The plan, bit-identical to [`replan_variable_with`].
    pub(crate) plan: VarPlan,
    /// The power-of-two cycle partition behind the plan.
    pub(crate) partition: CyclePartition,
    /// `(forest, tours)` of the base set `D_k`, indexed by class `k`.
    pub(crate) base_builds: Vec<(RootedForest, QTours)>,
    /// The forest of `D_K`, the set of all sensors, as the tree every
    /// nearest-depot forest over a subset of the sensors can start from.
    pub(crate) all_sensors: SupersetTree,
}

/// Like [`replan_variable_with`], but keeps the intermediate per-class
/// builds (see [`VarDetailed`]). Requires a non-empty network.
pub(crate) fn replan_variable_detailed(input: &VarInput, repair: RepairStrategy) -> VarDetailed {
    let network = input.network;
    let n = network.n();
    assert!(n > 0, "detailed replanning needs at least one sensor");
    assert_eq!(input.max_cycles.len(), n, "one max cycle per sensor");
    assert_eq!(input.residuals.len(), n, "one residual per sensor");
    assert!(input.now < input.horizon, "replanning after the horizon");

    let mut series = ScheduleSeries::new();

    let partition = partition_cycles(input.max_cycles);
    let tau1 = partition.tau1;
    let k_max = partition.k_max();
    assert!(k_max <= 30, "cycle spread τ_max/τ_min ≈ 2^{k_max} is beyond any sane instance");
    let period_slots: u64 = 1 << k_max; // 2^K dispatches per super-period

    // Cumulative base sets D_0 ⊂ … ⊂ D_K (sensor ids).
    let cums: Vec<Vec<usize>> = (0..=k_max).map(|k| partition.cumulative(k)).collect();

    // --- Repair bookkeeping -------------------------------------------------
    // `added[j]` — extra sensors attached to the j-th early scheduling
    // (j = 0 is the immediate extra scheduling at `now`).
    let mut added: BTreeMap<u64, Vec<usize>> = BTreeMap::new();

    // V^a: sensors whose residual cannot reach their first scheduled charge.
    let mut va: Vec<usize> =
        (0..n).filter(|&i| input.residuals[i] + 1e-12 < partition.rounded[i]).collect();

    match repair {
        RepairStrategy::ChargeAllNow => {
            if !va.is_empty() {
                added.insert(0, va);
            }
        }
        RepairStrategy::NearestScheduling => {
            // V^a_t: must be charged right now.
            let urgent: Vec<usize> =
                va.iter().copied().filter(|&i| input.residuals[i] < tau1).collect();
            if !urgent.is_empty() {
                added.insert(0, urgent);
            }
            va.retain(|&i| input.residuals[i] >= tau1);

            // Class V^a_k by residual lifetime.
            let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); k_max + 1];
            for &i in &va {
                let k = power_class(tau1, input.residuals[i]).min(k_max);
                by_class[k].push(i);
            }

            // Iteration k: attach V^a_k terminals to the nearest of the
            // schedulings j = 0 … 2^k: the exact super-root MSF over the
            // terminal positions, scheduling distance rows as root rows.
            let depot_nodes = network.depot_nodes();
            let src = network.dist_source();
            for (k, terminals) in by_class.iter().enumerate() {
                if terminals.is_empty() {
                    continue;
                }
                let term_nodes: Vec<usize> =
                    terminals.iter().map(|&i| network.sensor_node(i)).collect();
                let mut root_dist: Vec<Vec<f64>> = Vec::with_capacity((1usize << k) + 1);
                for j in 0..=(1u64 << k) {
                    root_dist.push(scheduling_distance_row(
                        &src,
                        network,
                        &term_nodes,
                        base_sensors_of(j, k_max, &cums),
                        added.get(&j).map(|v| v.as_slice()).unwrap_or(&[]),
                        &depot_nodes,
                    ));
                }
                let points = src.positions();
                let tpts: Vec<Point2> = term_nodes.iter().map(|&v| points[v]).collect();
                let forest = rooted_msf_points(&tpts, &root_dist);
                for (t_idx, &j) in forest.assignment.iter().enumerate() {
                    added.entry(j as u64).or_default().push(terminals[t_idx]);
                }
            }
        }
    }

    // --- Tour construction --------------------------------------------------
    // Base tour sets B_0 … B_K (unmodified Algorithm 3 schedulings), routed
    // top-down from D_K, the set of all sensors. The forest behind each set
    // is kept so the incremental planner can seed its persistent per-class
    // state from this exact build.
    let depot_nodes = network.depot_nodes();
    let src = network.dist_source();
    let cum_nodes: Vec<Vec<usize>> =
        cums.iter().map(|d| d.iter().map(|&i| network.sensor_node(i)).collect()).collect();
    let (base_builds, all_sensors) =
        nested_tours(&src, &cum_nodes, &depot_nodes, |forest, qt| (forest, qt));
    let base_ids: Vec<usize> = base_builds
        .iter()
        .map(|(_, qt)| series.add_set(TourSet::from_qtours(qt.clone(), |v| v >= n)))
        .collect();
    // A modified scheduling keeps nearest-depot costs, so its forest starts
    // from D_K's.
    let route = |sensors: &[usize]| -> TourSet {
        let nodes: Vec<usize> = sensors.iter().map(|&i| network.sensor_node(i)).collect();
        let (qt, _, _) = route_from_superset(&src, &nodes, &depot_nodes, Some(&all_sensors));
        TourSet::from_qtours(qt, |v| v >= n)
    };

    // Modified early schedulings.
    let mut modified_ids: BTreeMap<u64, usize> = BTreeMap::new();
    for (&j, extra) in &added {
        let mut sensors: Vec<usize> = base_sensors_of(j, k_max, &cums).to_vec();
        sensors.extend_from_slice(extra);
        sensors.sort_unstable();
        sensors.dedup();
        modified_ids.insert(j, series.add_set(route(&sensors)));
    }

    // --- Dispatch timeline ---------------------------------------------------
    if let Some(&id0) = modified_ids.get(&0) {
        series.push_dispatch(input.now, id0);
    }
    // First super-period: modified sets where present.
    let mut j: u64 = 1;
    loop {
        let t = input.now + j as f64 * tau1;
        if t >= input.horizon || j > period_slots {
            break;
        }
        let k = nu2(j).min(k_max);
        let id = modified_ids.get(&j).copied().unwrap_or(base_ids[k]);
        series.push_dispatch(t, id);
        j += 1;
    }
    // Remaining periods: pure Algorithm 3 pattern, continuing the count.
    if j > period_slots {
        let start = input.now + period_slots as f64 * tau1;
        push_dispatch_timeline(&mut series, &base_ids, tau1, k_max, start, input.horizon);
    }

    let plan =
        VarPlan { series, assigned_cycles: partition.rounded.clone(), base_set_ids: base_ids };
    VarDetailed { plan, partition, base_builds, all_sensors }
}

/// Base sensors of early scheduling `j` (`j = 0` is the extra immediate
/// scheduling, base-empty).
fn base_sensors_of(j: u64, k_max: usize, cums: &[Vec<usize>]) -> &[usize] {
    if j == 0 {
        &[]
    } else {
        &cums[nu2(j).min(k_max)]
    }
}

/// Distance from each terminal node to the nearest node of a scheduling
/// (its base sensors ∪ repair additions ∪ all depots).
fn scheduling_distance_row<M: Metric>(
    dist: &M,
    network: &Network,
    term_nodes: &[usize],
    base: &[usize],
    extra: &[usize],
    depot_nodes: &[usize],
) -> Vec<f64> {
    term_nodes
        .iter()
        .map(|&t| {
            let mut best = f64::INFINITY;
            for &d in depot_nodes {
                best = best.min(dist.get(t, d));
            }
            for &s in base.iter().chain(extra.iter()) {
                best = best.min(dist.get(t, network.sensor_node(s)));
            }
            best
        })
        .collect()
}

/// Checks a [`VarPlan`] against the replan inputs, assuming cycles stay at
/// `max_cycles` from `now` on: every sensor's first charge must come within
/// its residual lifetime, later gaps within its max cycle, and the tail gap
/// to the horizon within its max cycle. The test oracle for this module.
pub fn check_var_plan(input: &VarInput, plan: &VarPlan) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    for i in 0..input.max_cycles.len() {
        let times = plan.series.charge_times(input.network.sensor_node(i));
        let tau = input.max_cycles[i];
        let deadline = input.now + input.residuals[i];
        match times.first() {
            None => {
                if input.horizon > deadline + 1e-9 {
                    errors.push(format!(
                        "sensor {i}: never charged but dies at {deadline} < horizon"
                    ));
                }
                continue;
            }
            Some(&first) => {
                if first > deadline + 1e-9 {
                    errors.push(format!(
                        "sensor {i}: first charge {first} after death at {deadline}"
                    ));
                }
            }
        }
        for w in times.windows(2) {
            if w[1] - w[0] > tau + 1e-9 {
                errors.push(format!("sensor {i}: gap {} exceeds cycle {tau}", w[1] - w[0]));
            }
        }
        if input.horizon - times.last().unwrap() > tau + 1e-9 {
            errors.push(format!("sensor {i}: tail gap exceeds cycle {tau}"));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::Point2;
    use rand::{Rng, SeedableRng};

    fn grid_network(n: usize, q: usize, seed: u64) -> Network {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sensors: Vec<Point2> = (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let mut depots = vec![Point2::new(500.0, 500.0)];
        depots.extend(
            (1..q).map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0))),
        );
        Network::new(sensors, depots)
    }

    #[test]
    fn full_batteries_reduce_to_algorithm_3() {
        // residual == max cycle for everyone → V^a empty → same dispatch
        // pattern as plan_min_total_distance shifted by `now`.
        let network = grid_network(20, 3, 1);
        let cycles: Vec<f64> = (0..20).map(|i| 1.0 + (i % 7) as f64).collect();
        let input = VarInput {
            network: &network,
            max_cycles: &cycles,
            residuals: &cycles.clone(),
            now: 0.0,
            horizon: 50.0,
        };
        let plan = replan_variable(&input);
        check_var_plan(&input, &plan).unwrap();

        let inst = crate::network::Instance::new(network.clone(), cycles.clone(), 50.0);
        let mtd = crate::mtd::plan_min_total_distance(&inst, &crate::mtd::MtdConfig::default());
        assert_eq!(plan.series.dispatch_count(), mtd.dispatch_count());
        assert!((plan.series.service_cost() - mtd.service_cost()).abs() < 1e-6);
    }

    #[test]
    fn urgent_sensor_charged_immediately() {
        let network = grid_network(10, 2, 2);
        let cycles = vec![4.0; 10];
        let mut residuals = vec![4.0; 10];
        residuals[3] = 0.5; // dies before τ_1 = 4
        let input = VarInput {
            network: &network,
            max_cycles: &cycles,
            residuals: &residuals,
            now: 10.0,
            horizon: 40.0,
        };
        let plan = replan_variable(&input);
        let times = plan.series.charge_times(3);
        assert_eq!(times[0], 10.0, "urgent sensor must be charged at `now`");
        check_var_plan(&input, &plan).unwrap();
    }

    #[test]
    fn low_residual_sensors_attached_early() {
        let network = grid_network(12, 2, 3);
        // All cycles 8; some sensors have drained to residual 2.5 — they
        // belong to V^a_1 (2 ≤ 2.5 < 4 with τ_1 = 8? no: τ_1 = 8 means
        // V^a_t). Use mixed cycles so τ_1 = 1.
        let mut cycles = vec![8.0; 12];
        cycles[0] = 1.0; // forces τ_1 = 1
        let mut residuals = cycles.clone();
        residuals[5] = 2.5; // class 1: charged by scheduling j ≤ 2
        residuals[7] = 5.0; // class 2: charged by scheduling j ≤ 4
        let input = VarInput {
            network: &network,
            max_cycles: &cycles,
            residuals: &residuals,
            now: 0.0,
            horizon: 64.0,
        };
        let plan = replan_variable(&input);
        check_var_plan(&input, &plan).unwrap();
        let t5 = plan.series.charge_times(5);
        assert!(t5[0] <= 2.5 + 1e-9, "sensor 5 first charge {}", t5[0]);
        let t7 = plan.series.charge_times(7);
        assert!(t7[0] <= 5.0 + 1e-9, "sensor 7 first charge {}", t7[0]);
    }

    #[test]
    fn random_replans_always_feasible() {
        for seed in 0..12u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 400);
            let n = rng.gen_range(5..40);
            let network = grid_network(n, rng.gen_range(1..5), seed);
            let cycles: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..50.0)).collect();
            let residuals: Vec<f64> = cycles.iter().map(|&c| rng.gen_range(0.05..=c)).collect();
            let now = rng.gen_range(0.0..500.0);
            let input = VarInput {
                network: &network,
                max_cycles: &cycles,
                residuals: &residuals,
                now,
                horizon: now + rng.gen_range(10.0..500.0),
            };
            let plan = replan_variable(&input);
            check_var_plan(&input, &plan).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            // The naive repair must be feasible too.
            let naive = replan_variable_with(&input, RepairStrategy::ChargeAllNow);
            check_var_plan(&input, &naive).unwrap_or_else(|e| panic!("seed {seed} (naive): {e:?}"));
        }
    }

    #[test]
    fn every_set_equals_an_independent_algorithm_2_build() {
        // The base sets come from the nested builder and the modified early
        // schedulings from D_K's forest; each must equal Algorithm 2 run on
        // its own sensors, as the replan built them before either existed.
        for seed in 0..12u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 400);
            let n = rng.gen_range(5..40);
            let network = grid_network(n, rng.gen_range(1..5), seed);
            let cycles: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..50.0)).collect();
            let residuals: Vec<f64> = cycles.iter().map(|&c| rng.gen_range(0.05..=c)).collect();
            let now = rng.gen_range(0.0..500.0);
            let input = VarInput {
                network: &network,
                max_cycles: &cycles,
                residuals: &residuals,
                now,
                horizon: now + rng.gen_range(10.0..500.0),
            };
            let detailed = replan_variable_detailed(&input, RepairStrategy::NearestScheduling);
            let src = network.dist_source();
            let depots = network.depot_nodes();
            for (i, set) in detailed.plan.series.sets().iter().enumerate() {
                let alone = crate::qtsp::q_rooted_tsp_src(&src, set.sensors(), &depots);
                assert_eq!(set.cost().to_bits(), alone.cost.to_bits(), "seed {seed} set {i}");
                for (a, b) in set.tours().iter().zip(&alone.tours) {
                    assert_eq!(a.nodes(), b.nodes(), "seed {seed} set {i}");
                }
            }
            for (k, (forest, _)) in detailed.base_builds.iter().enumerate() {
                let fresh =
                    crate::qmsf::q_rooted_msf_src(&src, &detailed.partition.cumulative(k), &depots);
                assert_eq!(forest.trees, fresh.trees, "seed {seed} D_{k}");
            }
        }
    }

    #[test]
    fn nearest_repair_no_worse_than_naive_on_average() {
        // Not guaranteed per instance, but across a batch the nearest-
        // scheduling insertion should beat charging everything at once.
        let mut nearest_total = 0.0;
        let mut naive_total = 0.0;
        for seed in 0..10u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 900);
            let n = 30;
            let network = grid_network(n, 3, seed + 50);
            let mut cycles: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..50.0)).collect();
            cycles[0] = 1.0;
            let residuals: Vec<f64> = cycles.iter().map(|&c| rng.gen_range(0.5..=c)).collect();
            let input = VarInput {
                network: &network,
                max_cycles: &cycles,
                residuals: &residuals,
                now: 0.0,
                horizon: 100.0,
            };
            nearest_total += replan_variable(&input).series.service_cost();
            naive_total +=
                replan_variable_with(&input, RepairStrategy::ChargeAllNow).series.service_cost();
        }
        assert!(
            nearest_total <= naive_total * 1.05,
            "nearest {nearest_total} vs naive {naive_total}"
        );
    }

    #[test]
    fn assigned_cycles_are_rounded_cycles() {
        let network = grid_network(6, 2, 9);
        let cycles = vec![1.0, 1.5, 2.0, 3.0, 4.0, 50.0];
        let input = VarInput {
            network: &network,
            max_cycles: &cycles,
            residuals: &cycles.clone(),
            now: 0.0,
            horizon: 64.0,
        };
        let plan = replan_variable(&input);
        assert_eq!(plan.assigned_cycles, vec![1.0, 1.0, 2.0, 2.0, 4.0, 32.0]);
    }

    #[test]
    fn sparse_replan_never_builds_dense_matrix() {
        // The V^a repair runs the point-backed super-root MSF with
        // scheduling rows; every repair branch must still yield a feasible
        // plan.
        for seed in 0..6u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 700);
            let n = rng.gen_range(10..60);
            let sensors: Vec<Point2> = (0..n)
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let depots = vec![Point2::new(500.0, 500.0), Point2::new(100.0, 900.0)];
            let network = Network::new(sensors, depots);
            // Mixed cycles and drained residuals force every repair branch
            // (urgent + several V^a classes) through the sparse path.
            let mut cycles: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..50.0)).collect();
            cycles[0] = 1.0;
            let residuals: Vec<f64> = cycles.iter().map(|&c| rng.gen_range(0.05..=c)).collect();
            let input = VarInput {
                network: &network,
                max_cycles: &cycles,
                residuals: &residuals,
                now: 3.0,
                horizon: 120.0,
            };
            let plan = replan_variable(&input);
            check_var_plan(&input, &plan).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
    }

    #[test]
    fn base_set_ids_reference_the_cumulative_classes() {
        let network = grid_network(8, 2, 13);
        let cycles = vec![1.0, 1.0, 2.5, 3.0, 5.0, 9.0, 17.0, 40.0];
        let input = VarInput {
            network: &network,
            max_cycles: &cycles,
            residuals: &cycles.clone(),
            now: 0.0,
            horizon: 64.0,
        };
        let plan = replan_variable(&input);
        let partition = partition_cycles(&cycles);
        assert_eq!(plan.base_set_ids.len(), partition.k_max() + 1);
        for (k, &id) in plan.base_set_ids.iter().enumerate() {
            let covered = plan.series.sets()[id].sensors();
            assert_eq!(covered, partition.cumulative(k).as_slice(), "class {k}");
        }
    }

    #[test]
    fn empty_network_ok() {
        let network = Network::new(vec![], vec![Point2::ORIGIN]);
        let input = VarInput {
            network: &network,
            max_cycles: &[],
            residuals: &[],
            now: 0.0,
            horizon: 10.0,
        };
        let plan = replan_variable(&input);
        assert_eq!(plan.series.dispatch_count(), 0);
    }
}
