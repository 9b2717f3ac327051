//! Equivalence of the event-driven engine against the dense-sweep
//! reference and the naive fixed-small-step integrator.
//!
//! The two engines share the policy interface but almost nothing else:
//! the reference drains every battery across every event segment, the
//! event-driven core settles lazily and predicts deaths into a heap. On
//! any world their discrete outputs must coincide — same dispatches, same
//! charges at the same instants, same service cost — and their deaths may
//! differ only by float re-association (the sweep drains in per-segment
//! cascades, the lazy core in one multiply, so depletion instants agree
//! to ~1e-9, not bit-for-bit).

use perpetuum_core::network::Network;
use perpetuum_energy::CycleDistribution;
use perpetuum_geom::Point2;
use perpetuum_sim::{
    run, run_fixed_step, run_reference, GreedyPolicy, MtdPolicy, SimConfig, SimResult, VarPolicy,
    World,
};
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point2::new(x, y)).collect())
}

prop_compose! {
    fn world_setup()(
        sensors in points(2..18),
        depots in points(1..4),
        seed in 0u64..10_000,
        horizon in 25.0..130.0f64,
    )(
        cycles in prop::collection::vec(1.0..30.0f64, sensors.len()),
        sensors in Just(sensors),
        depots in Just(depots),
        seed in Just(seed),
        horizon in Just(horizon),
    ) -> (Network, Vec<f64>, u64, f64) {
        (Network::new(sensors, depots), cycles, seed, horizon)
    }
}

/// Discrete outputs must match exactly; deaths and costs to float slack.
fn assert_equivalent(fast: &SimResult, slow: &SimResult, label: &str) {
    assert_eq!(fast.dispatches, slow.dispatches, "{label}: dispatches");
    assert_eq!(fast.charges, slow.charges, "{label}: charges");
    assert_eq!(fast.charge_log, slow.charge_log, "{label}: charge log");
    assert_eq!(fast.replans, slow.replans, "{label}: replans");
    assert!(
        (fast.service_cost - slow.service_cost).abs() <= 1e-9 * (1.0 + slow.service_cost),
        "{label}: service cost {} vs {}",
        fast.service_cost,
        slow.service_cost
    );
    assert!(
        (fast.total_charge_delay - slow.total_charge_delay).abs() <= 1e-6,
        "{label}: charge delay"
    );
    // Deaths: same sensors, same instants up to re-association slack.
    // Ordering may legitimately differ (the sweep records a segment's
    // deaths in index order, the heap in time order), so compare sorted.
    let mut fd: Vec<(usize, f64)> = fast.deaths.iter().map(|d| (d.sensor, d.time)).collect();
    let mut sd: Vec<(usize, f64)> = slow.deaths.iter().map(|d| (d.sensor, d.time)).collect();
    fd.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    sd.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    assert_eq!(fd.len(), sd.len(), "{label}: death count {fd:?} vs {sd:?}");
    for (f, s) in fd.iter().zip(&sd) {
        assert_eq!(f.0, s.0, "{label}: dead sensors {fd:?} vs {sd:?}");
        assert!((f.1 - s.1).abs() <= 1e-6, "{label}: death times {f:?} vs {s:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Polling policy, fixed rates, both charging modes. The paper-style
    /// threshold keeps everyone alive; the starved threshold forces the
    /// death machinery through the same comparison.
    #[test]
    fn greedy_matches_reference_on_random_worlds(
        (network, cycles, seed, horizon) in world_setup(),
        travel_sel in 0u8..2,
        starved_sel in 0u8..2,
    ) {
        let tau_min = cycles.iter().cloned().fold(f64::INFINITY, f64::min);
        // A slow charger makes travel delays visible without being so
        // slow that float-marginal deaths dominate the comparison.
        let travel = travel_sel == 1;
        let speed = if travel { Some(50.0) } else { None };
        let starved = starved_sel == 1;
        let threshold = if starved { tau_min * 0.3 } else { tau_min };
        let cfg = SimConfig { horizon, slot: 10.0, seed, charger_speed: speed };
        let fast = {
            let mut p = GreedyPolicy::new(&network, threshold);
            run(World::fixed(network.clone(), &cycles), &cfg, &mut p)
        };
        let slow = {
            let mut p = GreedyPolicy::new(&network, threshold);
            run_reference(World::fixed(network.clone(), &cycles), &cfg, &mut p)
        };
        assert_equivalent(&fast, &slow, "greedy/fixed");
    }

    /// Adaptive policy on slot-resampled variable worlds: exercises
    /// replans, the applicability band, measurement noise and the plan's
    /// slot-long windows (with tours still in transit across a window
    /// boundary in travel-time mode) through both engines' identical RNG
    /// streams.
    #[test]
    fn var_policy_matches_reference_on_variable_worlds(
        (network, _cycles, seed, horizon) in world_setup(),
        sigma in 0.0..8.0f64,
        noisy_sel in 0u8..2,
        travel_sel in 0u8..2,
    ) {
        let dist = CycleDistribution::Linear { sigma };
        let bs = Point2::new(500.0, 500.0);
        let means = dist.mean_all(network.sensor_positions(), bs, 1.0, 30.0);
        let make = || {
            let w = World::variable(network.clone(), &means, dist, 1.0, 30.0);
            if noisy_sel == 1 { w.with_measurement_noise(0.05) } else { w }
        };
        let speed = if travel_sel == 1 { Some(50.0) } else { None };
        let cfg = SimConfig { horizon, slot: 10.0, seed, charger_speed: speed };
        let fast = {
            let mut p = VarPolicy::new(&network);
            run(make(), &cfg, &mut p)
        };
        let slow = {
            let mut p = VarPolicy::new(&network);
            run_reference(make(), &cfg, &mut p)
        };
        assert_equivalent(&fast, &slow, "var/variable");
    }

    /// One-shot planner with deliberately starved cycles (the plan is
    /// built against inflated cycle estimates, so sensors die): deaths
    /// found by the prediction heap must match a naive integrator that
    /// steps far below every event spacing.
    #[test]
    fn deaths_match_fixed_step_integrator(
        (network, cycles, seed, horizon) in world_setup(),
        travel_sel in 0u8..2,
    ) {
        let travel = travel_sel == 1;
        let speed = if travel { Some(20.0) } else { None };
        let cfg = SimConfig { horizon, slot: 10.0, seed, charger_speed: speed };
        // Lie to the planner: true cycles are 40% of what it plans for.
        let true_cycles: Vec<f64> = cycles.iter().map(|c| c * 0.4).collect();
        let fast = {
            let mut p = MtdPolicy::new(&network);
            run(World::fixed(network.clone(), &true_cycles), &cfg, &mut p)
        };
        let naive = {
            let mut p = MtdPolicy::new(&network);
            run_fixed_step(World::fixed(network.clone(), &true_cycles), &cfg, &mut p, 0.05)
        };
        assert_equivalent(&fast, &naive, "mtd/starved/fixed-step");
    }
}

/// The fixed-step integrator is itself sanity-checked against the plain
/// reference: capping segment length must not change anything.
#[test]
fn fixed_step_agrees_with_reference() {
    let sensors: Vec<Point2> = (0..8).map(|i| Point2::new((i + 1) as f64 * 40.0, 25.0)).collect();
    let network = Network::new(sensors, vec![Point2::ORIGIN]);
    let cycles = [2.0, 3.0, 4.5, 6.0, 7.0, 9.0, 12.0, 20.0];
    let cfg = SimConfig { horizon: 80.0, slot: 10.0, seed: 11, charger_speed: None };
    let a = {
        let mut p = GreedyPolicy::new(&network, 2.0);
        run_reference(World::fixed(network.clone(), &cycles), &cfg, &mut p)
    };
    let b = {
        let mut p = GreedyPolicy::new(&network, 2.0);
        run_fixed_step(World::fixed(network.clone(), &cycles), &cfg, &mut p, 0.25)
    };
    assert_eq!(a.charge_log, b.charge_log);
    assert_eq!(a.service_cost, b.service_cost);
    assert_eq!(a.deaths.len(), b.deaths.len());
}
