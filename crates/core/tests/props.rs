//! Property-based tests for the scheduling algorithms.
//!
//! These verify the paper's structural claims on randomly generated
//! instances: Lemma 1 (q-rooted MSF optimality via the lower-bound /
//! feasibility sandwich), Theorem 1 (2-approximation of the q-rooted TSP),
//! Equation 1 (rounding bound), Lemma 2 (feasibility of Algorithm 3), and
//! feasibility of both the greedy baseline and variable-cycle replans.

use perpetuum_core::feasibility::check_series;
use perpetuum_core::greedy::{plan_greedy_fixed, GreedyConfig};
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::network::{Instance, Network};
use perpetuum_core::qmsf::q_rooted_msf_src;
use perpetuum_core::qtsp::q_rooted_tsp_src;
use perpetuum_core::refine::{refine, Budget, CONVERGENCE_STEPS};
use perpetuum_core::rounding::partition_cycles;
use perpetuum_core::var::{check_var_plan, replan_variable, VarInput};
use perpetuum_geom::Point2;
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point2::new(x, y)).collect())
}

fn cycles(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1.0..50.0f64, n)
}

prop_compose! {
    fn instance()(sensors in points(1..24), depots in points(1..5))
        (cyc in cycles(sensors.len()), sensors in Just(sensors), depots in Just(depots))
        -> (Network, Vec<f64>)
    {
        (Network::new(sensors, depots), cyc)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qmsf_weight_lower_bounds_qtsp_cost((network, _) in instance()) {
        let terminals: Vec<usize> = (0..network.n()).collect();
        let roots = network.depot_nodes();
        let forest = q_rooted_msf_src(&network.dist_source(), &terminals, &roots);
        let tours = q_rooted_tsp_src(&network.dist_source(), &terminals, &roots);
        // Theorem 1 sandwich: w(MSF) ≤ w(tours) ≤ 2 w(MSF).
        prop_assert!(tours.cost + 1e-6 >= forest.weight);
        prop_assert!(tours.cost <= 2.0 * forest.weight + 1e-6);
        // Every tour starts at its own depot.
        for (l, t) in tours.tours.iter().enumerate() {
            prop_assert_eq!(t.start(), Some(roots[l]));
        }
        // Coverage is exact.
        prop_assert_eq!(tours.covered_nodes(|v| v >= network.n()), terminals);
    }

    #[test]
    fn rounding_eq1_and_divisibility((_, cyc) in instance()) {
        let p = partition_cycles(&cyc);
        for (i, &tau) in cyc.iter().enumerate() {
            // Equation (1): τ/2 < τ' ≤ τ.
            prop_assert!(p.rounded[i] <= tau + 1e-12);
            prop_assert!(p.rounded[i] > tau / 2.0 - 1e-12);
            // τ' is exactly 2^k τ_1.
            let ratio = p.rounded[i] / p.tau1;
            prop_assert!((ratio - ratio.round()).abs() < 1e-9);
            prop_assert!((ratio.round() as u64).is_power_of_two());
        }
    }

    #[test]
    fn mtd_plans_are_feasible((network, cyc) in instance(), horizon in 10.0..200.0f64) {
        let inst = Instance::new(network, cyc, horizon);
        let series = plan_min_total_distance(&inst, &MtdConfig::default());
        prop_assert!(check_series(&inst, &series).is_ok());
        // Dispatches strictly inside (0, T), in nondecreasing time order.
        let mut prev = 0.0;
        for d in series.dispatches() {
            prop_assert!(d.time > 0.0 && d.time < horizon);
            prop_assert!(d.time >= prev);
            prev = d.time;
        }
    }

    #[test]
    fn greedy_plans_are_feasible((network, cyc) in instance(), horizon in 10.0..200.0f64) {
        let tau_min = cyc.iter().cloned().fold(f64::INFINITY, f64::min);
        let inst = Instance::new(network, cyc, horizon);
        let series = plan_greedy_fixed(&inst, &GreedyConfig::paper_default(tau_min));
        prop_assert!(check_series(&inst, &series).is_ok());
    }

    #[test]
    fn mtd_charges_each_sensor_at_its_rounded_cadence(
        (network, cyc) in instance(),
        horizon in 50.0..150.0f64,
    ) {
        let inst = Instance::new(network, cyc.clone(), horizon);
        let p = partition_cycles(&cyc);
        let series = plan_min_total_distance(&inst, &MtdConfig::default());
        for i in 0..cyc.len() {
            let times = series.charge_times(i);
            for w in times.windows(2) {
                prop_assert!((w[1] - w[0] - p.rounded[i]).abs() < 1e-6,
                    "sensor {i} gap {} != rounded {}", w[1] - w[0], p.rounded[i]);
            }
        }
    }

    #[test]
    fn var_replans_are_feasible(
        (network, cyc) in instance(),
        fracs in prop::collection::vec(0.02..1.0f64, 24),
        now in 0.0..100.0f64,
        span in 10.0..200.0f64,
    ) {
        let residuals: Vec<f64> = cyc
            .iter()
            .zip(fracs.iter().cycle())
            .map(|(&c, &f)| c * f)
            .collect();
        let input = VarInput {
            network: &network,
            max_cycles: &cyc,
            residuals: &residuals,
            now,
            horizon: now + span,
        };
        let plan = replan_variable(&input);
        prop_assert!(check_var_plan(&input, &plan).is_ok());
        // Assigned cycles match Equation (1) against the inputs.
        for (i, &tau) in cyc.iter().enumerate() {
            prop_assert!(plan.assigned_cycles[i] <= tau + 1e-12);
            prop_assert!(plan.assigned_cycles[i] > tau / 2.0 - 1e-12);
        }
    }

    #[test]
    fn polish_preserves_feasibility_and_cost_bound(
        (network, cyc) in instance(),
        horizon in 20.0..100.0f64,
    ) {
        let inst = Instance::new(network, cyc, horizon);
        let plain = plan_min_total_distance(&inst, &MtdConfig::default());
        // The polish is the refiner run to a local optimum over every set.
        let (polished, report) =
            refine(inst.network(), &plain, &Budget::steps(CONVERGENCE_STEPS), 5);
        prop_assert!(report.converged);
        prop_assert!(check_series(&inst, &polished).is_ok());
        prop_assert!(polished.service_cost() <= plain.service_cost() + 1e-6);
    }
}
