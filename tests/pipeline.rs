//! Cross-crate integration tests: scenario generation → planning →
//! simulation → ground-truth feasibility.

use perpetuum::core::feasibility;
use perpetuum::core::greedy::{plan_greedy_fixed, GreedyConfig};
use perpetuum::core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum::core::network::Instance;
use perpetuum::core::qtsp::q_rooted_tsp_src;
use perpetuum::core::schedule::{ScheduleSeries, TourSet};
use perpetuum::sim::scenario::{Algo, Scenario};

fn small_fixed_scenario(n: usize) -> Scenario {
    Scenario { n, horizon: 120.0, ..Scenario::paper_fixed() }
}

#[test]
fn executed_charges_match_planned_charges_for_mtd() {
    let s = small_fixed_scenario(25);
    let topo = s.build_topology(1, 0);
    let r = s.run_once(Algo::Mtd, 1, 0);
    assert!(r.is_perpetual());

    let inst = Instance::new(topo.network.clone(), topo.init_cycles.clone(), s.horizon);
    let plan = plan_min_total_distance(&inst, &MtdConfig::default());
    for i in 0..25 {
        // The simulated policy reconstructs cycles from rates (τ → 1/τ → τ),
        // so dispatch times can differ by float ulps from the offline plan.
        let sim_times = &r.charge_log[i];
        let plan_times = plan.charge_times(i);
        assert_eq!(sim_times.len(), plan_times.len(), "sensor {i}");
        for (a, b) in sim_times.iter().zip(plan_times.iter()) {
            assert!((a - b).abs() < 1e-6, "sensor {i}: {a} vs {b}");
        }
    }
}

#[test]
fn simulated_runs_pass_ground_truth_feasibility() {
    let s = small_fixed_scenario(30);
    for algo in [Algo::Mtd, Algo::Greedy] {
        for idx in 0..3u64 {
            let topo = s.build_topology(9, idx);
            let r = s.run_once(algo, 9, idx);
            assert!(r.is_perpetual(), "{}: {:?}", algo.name(), r.deaths);
            feasibility::check_with(&topo.init_cycles, s.horizon, |i| r.charge_log[i].clone())
                .unwrap_or_else(|e| panic!("{} topo {idx}: {e:?}", algo.name()));
        }
    }
}

#[test]
fn mtd_never_costs_more_than_charge_everyone_every_tau_min() {
    // The naive strategy the paper's Section III.C dismisses: visit every
    // sensor every τ_min. Algorithm 3 must be no worse.
    let s = small_fixed_scenario(20);
    for idx in 0..3u64 {
        let topo = s.build_topology(4, idx);
        let inst = Instance::new(topo.network.clone(), topo.init_cycles.clone(), s.horizon);
        let mtd = plan_min_total_distance(&inst, &MtdConfig::default());

        // Naive plan: the all-sensor tour set dispatched at every multiple
        // of τ_min.
        let tau_min = topo.init_cycles.iter().cloned().fold(f64::INFINITY, f64::min);
        let all: Vec<usize> = (0..20).collect();
        let qt = q_rooted_tsp_src(&topo.network.dist_source(), &all, &topo.network.depot_nodes());
        let mut naive = ScheduleSeries::new();
        let set = naive.add_set(TourSet::from_qtours(qt, |v| v >= 20));
        let mut t = tau_min;
        while t < s.horizon {
            naive.push_dispatch(t, set);
            t += tau_min;
        }
        feasibility::check_series(&inst, &naive).expect("naive plan is feasible");

        assert!(
            mtd.service_cost() <= naive.service_cost() + 1e-6,
            "topo {idx}: MTD {} vs naive {}",
            mtd.service_cost(),
            naive.service_cost()
        );
    }
}

#[test]
fn greedy_offline_and_online_agree_across_topologies() {
    let s = small_fixed_scenario(15);
    for idx in 0..3u64 {
        let topo = s.build_topology(12, idx);
        let r = s.run_once(Algo::Greedy, 12, idx);
        let inst = Instance::new(topo.network.clone(), topo.init_cycles.clone(), s.horizon);
        let offline = plan_greedy_fixed(&inst, &GreedyConfig::paper_default(s.tau_min));
        assert!((r.service_cost - offline.service_cost()).abs() < 1e-6, "topo {idx}");
    }
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let s = Scenario { n: 20, horizon: 150.0, ..Scenario::paper_variable() };
    for algo in [Algo::MtdVar, Algo::Greedy] {
        let a = s.run_once(algo, 33, 0);
        let b = s.run_once(algo, 33, 0);
        assert_eq!(a.service_cost, b.service_cost, "{}", algo.name());
        assert_eq!(a.dispatches, b.dispatches);
        assert_eq!(a.charge_log, b.charge_log);
    }
}

#[test]
fn different_seeds_give_different_topologies_but_same_qualitative_order() {
    let s = small_fixed_scenario(40);
    let mut mtd_total = 0.0;
    let mut greedy_total = 0.0;
    for idx in 0..4u64 {
        mtd_total += s.run_once(Algo::Mtd, 5, idx).service_cost;
        greedy_total += s.run_once(Algo::Greedy, 5, idx).service_cost;
    }
    assert!(
        mtd_total < greedy_total,
        "MTD {mtd_total} should undercut Greedy {greedy_total} under the linear distribution"
    );
}

#[test]
fn service_cost_scales_with_horizon() {
    // Twice the monitoring period ≈ twice the dispatches ≈ twice the cost
    // (up to boundary effects) — a sanity check on cost accounting.
    let short = Scenario { n: 20, horizon: 100.0, ..Scenario::paper_fixed() };
    let long = Scenario { n: 20, horizon: 200.0, ..Scenario::paper_fixed() };
    let a = short.run_once(Algo::Mtd, 8, 0).service_cost;
    let b = long.run_once(Algo::Mtd, 8, 0).service_cost;
    let ratio = b / a;
    assert!((1.7..=2.3).contains(&ratio), "cost ratio {ratio} should be near 2");
}

#[test]
fn per_charger_distances_always_sum_to_service_cost() {
    let s = Scenario { n: 25, horizon: 100.0, ..Scenario::paper_variable() };
    for algo in [Algo::MtdVar, Algo::Greedy] {
        let r = s.run_once(algo, 14, 0);
        let sum: f64 = r.per_charger_distance.iter().sum();
        assert!(
            (sum - r.service_cost).abs() < 1e-6,
            "{}: {sum} vs {}",
            algo.name(),
            r.service_cost
        );
    }
}
