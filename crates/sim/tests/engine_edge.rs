//! Engine edge cases: event ordering, misaligned periods, plan
//! replacement and extension, and zero-work scenarios.

use perpetuum_core::network::Network;
use perpetuum_core::schedule::{ScheduleSeries, TourSet};
use perpetuum_geom::Point2;
use perpetuum_graph::Tour;
use perpetuum_sim::policy::{ChargingPolicy, Observation, PlanUpdate};
use perpetuum_sim::{run, run_reference, run_traced, GreedyPolicy, MtdPolicy, SimConfig, World};

fn line_network(n: usize) -> Network {
    let sensors: Vec<Point2> = (0..n).map(|i| Point2::new((i + 1) as f64 * 10.0, 0.0)).collect();
    Network::new(sensors, vec![Point2::ORIGIN])
}

#[test]
fn greedy_with_fractional_tick_vs_integer_slots() {
    // tick = 0.7 never aligns with ΔT = 10 (except multiples of 7);
    // liveness must still hold thanks to the boundary checks.
    let network = line_network(5);
    let cycles = [1.0, 2.0, 3.0, 5.0, 8.0];
    let world = World::fixed(network.clone(), &cycles);
    let mut policy = GreedyPolicy::new(&network, 1.0);
    policy.threshold = 0.7; // also the polling period
    let cfg = SimConfig { horizon: 40.0, slot: 10.0, seed: 1, charger_speed: None };
    let r = run(world, &cfg, &mut policy);
    assert!(r.is_perpetual(), "deaths: {:?}", r.deaths);
}

#[test]
fn non_integer_slot_length() {
    let network = line_network(4);
    let cycles = [1.5, 2.5, 4.5, 7.5];
    let world = World::fixed(network.clone(), &cycles);
    let mut policy = MtdPolicy::new(&network);
    let cfg = SimConfig { horizon: 33.3, slot: 3.7, seed: 2, charger_speed: None };
    let r = run(world, &cfg, &mut policy);
    assert!(r.is_perpetual(), "deaths: {:?}", r.deaths);
    perpetuum_core::feasibility::check_with(&cycles, 33.3, |i| r.charge_log[i].clone()).unwrap();
}

/// A policy that replaces its plan at every slot boundary with a one-shot
/// dispatch of everything half a slot later — exercises plan replacement
/// with in-flight dispatches.
struct Replanner<'a> {
    network: &'a Network,
    slot: f64,
}

impl ChargingPolicy for Replanner<'_> {
    fn name(&self) -> &'static str {
        "Replanner"
    }

    fn initialize(&mut self, _obs: &Observation) -> PlanUpdate {
        PlanUpdate::Keep
    }

    fn on_slot_boundary(&mut self, obs: &Observation) -> PlanUpdate {
        let n = self.network.n();
        let depot = self.network.depot_node(0);
        let mut nodes = vec![depot];
        nodes.extend(0..n);
        let set = TourSet::new(vec![Tour::new(nodes)], &self.network.dist_source(), |v| v >= n);
        let mut series = ScheduleSeries::new();
        let id = series.add_set(set);
        // Two dispatches; the second should be dropped by the next replace.
        series.push_dispatch(obs.time + self.slot * 0.5, id);
        series.push_dispatch(obs.time + self.slot * 1.5, id);
        PlanUpdate::Replace(series)
    }
}

#[test]
fn plan_replacement_drops_stale_dispatches() {
    let network = line_network(3);
    let cycles = [100.0, 100.0, 100.0]; // plenty of slack
    let world = World::fixed(network.clone(), &cycles);
    let slot = 5.0;
    let mut policy = Replanner { network: &network, slot };
    let cfg = SimConfig { horizon: 50.0, slot, seed: 3, charger_speed: None };
    let r = run(world, &cfg, &mut policy);
    // Boundaries at 5, 10, …, 45 → 9 replacements, each delivering exactly
    // one dispatch (at boundary + 2.5) before being superseded.
    assert_eq!(r.dispatches, 9);
    assert_eq!(r.charge_log[0].len(), 9);
    assert!((r.charge_log[0][0] - 7.5).abs() < 1e-9);
    assert!(r.is_perpetual());
}

#[test]
fn zero_sensor_world_runs_to_completion() {
    let network = Network::new(vec![], vec![Point2::ORIGIN]);
    let world = World::fixed(network.clone(), &[]);
    let mut policy = MtdPolicy::new(&network);
    let cfg = SimConfig { horizon: 10.0, slot: 1.0, seed: 4, charger_speed: None };
    let r = run(world, &cfg, &mut policy);
    assert_eq!(r.dispatches, 0);
    assert_eq!(r.service_cost, 0.0);
    assert!(r.is_perpetual());
}

#[test]
fn horizon_shorter_than_slot() {
    let network = line_network(2);
    let cycles = [1.0, 2.0];
    let world = World::fixed(network.clone(), &cycles);
    let mut policy = MtdPolicy::new(&network);
    let cfg = SimConfig { horizon: 3.0, slot: 10.0, seed: 5, charger_speed: None };
    let r = run(world, &cfg, &mut policy);
    assert!(r.is_perpetual(), "deaths: {:?}", r.deaths);
    // Dispatches at 1 and 2 for the cycle-1 sensor (and 2 covers sensor 1).
    assert_eq!(r.charge_log[0], vec![1.0, 2.0]);
}

#[test]
fn dispatch_exactly_at_horizon_is_not_executed() {
    struct AtHorizon<'a> {
        network: &'a Network,
    }
    impl ChargingPolicy for AtHorizon<'_> {
        fn name(&self) -> &'static str {
            "AtHorizon"
        }
        fn initialize(&mut self, obs: &Observation) -> PlanUpdate {
            let n = self.network.n();
            let set = TourSet::new(
                vec![Tour::new(vec![self.network.depot_node(0), 0])],
                &self.network.dist_source(),
                |v| v >= n,
            );
            let mut series = ScheduleSeries::new();
            let id = series.add_set(set);
            series.push_dispatch(obs.horizon - 1.0, id); // executed
            series.push_dispatch(obs.horizon, id); // at T: not executed
            PlanUpdate::Replace(series)
        }
    }
    let network = line_network(1);
    let world = World::fixed(network.clone(), &[100.0]);
    let mut policy = AtHorizon { network: &network };
    let cfg = SimConfig { horizon: 10.0, slot: 100.0, seed: 6, charger_speed: None };
    let r = run(world, &cfg, &mut policy);
    assert_eq!(r.dispatches, 1);
    assert_eq!(r.charge_log[0], vec![9.0]);
}

#[test]
fn service_cost_is_deterministic_under_repeated_runs() {
    let network = line_network(6);
    let cycles = [1.0, 1.5, 2.5, 4.0, 6.5, 10.0];
    let cfg = SimConfig { horizon: 60.0, slot: 10.0, seed: 7, charger_speed: None };
    let mut costs = Vec::new();
    for _ in 0..3 {
        let mut policy = GreedyPolicy::new(&network, 1.0);
        let r = run(World::fixed(network.clone(), &cycles), &cfg, &mut policy);
        costs.push(r.service_cost);
    }
    assert_eq!(costs[0], costs[1]);
    assert_eq!(costs[1], costs[2]);
}

#[test]
fn plan_extension_appends_behind_pending_dispatches() {
    // Installs dispatches at 2 and 7, then at the boundary t = 5 — with
    // the one at 7 still pending — appends one at 8. Both engines run all
    // three, and only the first install counts as a plan replacement.
    struct Windows<'a> {
        network: &'a Network,
    }
    impl Windows<'_> {
        fn series(&self, times: &[f64]) -> ScheduleSeries {
            let n = self.network.n();
            let set = TourSet::new(
                vec![Tour::new(vec![self.network.depot_node(0), 0])],
                &self.network.dist_source(),
                |v| v >= n,
            );
            let mut series = ScheduleSeries::new();
            let id = series.add_set(set);
            for &t in times {
                series.push_dispatch(t, id);
            }
            series
        }
    }
    impl ChargingPolicy for Windows<'_> {
        fn name(&self) -> &'static str {
            "Windows"
        }
        fn initialize(&mut self, obs: &Observation) -> PlanUpdate {
            assert_eq!(obs.next_decision, 5.0);
            PlanUpdate::Replace(self.series(&[2.0, 7.0]))
        }
        fn on_slot_boundary(&mut self, obs: &Observation) -> PlanUpdate {
            if obs.time == 5.0 {
                assert_eq!(obs.next_decision, 10.0);
                PlanUpdate::Extend(self.series(&[8.0]))
            } else {
                assert_eq!(obs.next_decision, 12.0, "the horizon bounds the last window");
                PlanUpdate::Keep
            }
        }
    }
    let network = line_network(1);
    let cfg = SimConfig { horizon: 12.0, slot: 5.0, seed: 8, charger_speed: None };
    let world = || World::fixed(network.clone(), &[100.0]);
    let (r, trace) = run_traced(world(), &cfg, &mut Windows { network: &network });
    assert_eq!(r.charge_log[0], vec![2.0, 7.0, 8.0]);
    assert_eq!(trace.counts().1, 1, "an extension is not a replacement");
    let slow = run_reference(world(), &cfg, &mut Windows { network: &network });
    assert_eq!(slow.charge_log, r.charge_log);
}
