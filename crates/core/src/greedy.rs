//! The greedy baseline of Section VII.A.
//!
//! *"Each sensor sends a charging request to the base station when it will
//! deplete its energy soon. Once receiving a request, the base station
//! commands the q mobile chargers to charge those sensors whose estimated
//! residual lifetimes are less than a given threshold `Δl` (with
//! `Δl = τ_min`)."*
//!
//! The baseline therefore charges every sensor as late as possible and
//! routes each batch of urgent sensors with the same `q`-rooted TSP
//! subroutine the proposed algorithms use (so the comparison isolates
//! *scheduling* quality, not routing quality).
//!
//! [`plan_greedy_fixed`] is the deterministic offline unrolling for fixed
//! cycles; [`greedy_batch`] is the single-round primitive the simulator's
//! online greedy policy shares with it.

use crate::network::{Instance, Network};
use crate::qtsp::q_rooted_tsp_src;
use crate::schedule::{ScheduleSeries, TourSet};

/// Tunables for the greedy baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyConfig {
    /// Residual-lifetime threshold `Δl` below which a sensor requests a
    /// charge. The paper sets `Δl = τ_min`.
    pub threshold: f64,
    /// How often the base station evaluates pending requests. Matching the
    /// paper's `Δl = τ_min` granularity keeps every sensor alive: a sensor
    /// whose residual dips under `Δl` is always charged within one tick.
    pub tick: f64,
}

impl GreedyConfig {
    /// The paper's configuration for a given `τ_min`.
    pub fn paper_default(tau_min: f64) -> Self {
        Self { threshold: tau_min, tick: tau_min }
    }
}

/// Routes one batch of pending sensors (`sensor` node ids) through all `q`
/// chargers, returning the tour set. The primitive shared by the offline
/// unrolling and the simulator's online policy.
pub fn greedy_batch(network: &Network, pending: &[usize]) -> TourSet {
    let n = network.n();
    let depots = network.depot_nodes();
    let qt = q_rooted_tsp_src(&network.dist_source(), pending, &depots);
    TourSet::from_qtours(qt, |v| v >= n)
}

/// Deterministic offline unrolling of the greedy baseline under fixed
/// cycles: at every tick, sensors whose residual lifetime is `≤ threshold`
/// are batched and charged to full.
///
/// ```
/// use perpetuum_core::greedy::{plan_greedy_fixed, GreedyConfig};
/// use perpetuum_core::network::{Instance, Network};
/// use perpetuum_geom::Point2;
///
/// let network = Network::new(
///     vec![Point2::new(30.0, 0.0)],
///     vec![Point2::new(0.0, 0.0)],
/// );
/// let instance = Instance::new(network, vec![5.0], 14.0);
/// let plan = plan_greedy_fixed(&instance, &GreedyConfig::paper_default(1.0));
/// // Residual hits Δl = 1 at t = 4, 8, 12 — charged as late as possible.
/// assert_eq!(plan.charge_times(0), vec![4.0, 8.0, 12.0]);
/// ```
pub fn plan_greedy_fixed(instance: &Instance, cfg: &GreedyConfig) -> ScheduleSeries {
    assert!(cfg.tick > 0.0, "tick must be positive");
    assert!(cfg.threshold >= 0.0, "threshold must be non-negative");
    let network = instance.network();
    let cycles = instance.cycles();
    let horizon = instance.horizon();
    let n = network.n();

    let mut series = ScheduleSeries::new();
    if n == 0 {
        return series;
    }
    // last_charge[i]: time sensor i was last full (0 = initial charge).
    let mut last_charge = vec![0.0f64; n];
    let mut pending: Vec<usize> = Vec::with_capacity(n);

    let mut step: u64 = 1;
    loop {
        let t = step as f64 * cfg.tick;
        if t >= horizon {
            break;
        }
        pending.clear();
        for i in 0..n {
            // Residual lifetime at t under a constant rate B/τ.
            let residual = last_charge[i] + cycles[i] - t;
            if residual <= cfg.threshold + 1e-9 {
                pending.push(i);
            }
        }
        if !pending.is_empty() {
            let set = greedy_batch(network, &pending);
            let id = series.add_set(set);
            series.push_dispatch(t, id);
            for &i in &pending {
                last_charge[i] = t;
            }
        }
        step += 1;
    }
    series
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
    fn single_sensor_charged_as_late_as_possible() {
        // τ = 5, Δl = tick = 1: residual hits 1 at t = 4, so charges at
        // 4, 8, 12, … while < T.
        let inst = line_instance(vec![5.0], 14.0);
        let s = plan_greedy_fixed(&inst, &GreedyConfig::paper_default(1.0));
        assert_eq!(s.charge_times(0), vec![4.0, 8.0, 12.0]);
        crate::feasibility::check_series(&inst, &s).unwrap();
    }

    #[test]
    fn urgent_sensor_charged_every_tick() {
        let inst = line_instance(vec![1.0], 5.0);
        let s = plan_greedy_fixed(&inst, &GreedyConfig::paper_default(1.0));
        assert_eq!(s.charge_times(0), vec![1.0, 2.0, 3.0, 4.0]);
        crate::feasibility::check_series(&inst, &s).unwrap();
    }

    #[test]
    fn batching_joins_aligned_sensors() {
        // Two sensors with τ = 3 request together every 2 ticks.
        let inst = line_instance(vec![3.0, 3.0], 9.0);
        let s = plan_greedy_fixed(&inst, &GreedyConfig::paper_default(1.0));
        // Each dispatch covers both sensors.
        for d in s.dispatches() {
            assert_eq!(s.set_of(d).sensors().len(), 2);
        }
        crate::feasibility::check_series(&inst, &s).unwrap();
    }

    #[test]
    fn always_feasible_on_mixed_cycles() {
        let inst = line_instance(vec![1.0, 2.5, 3.3, 7.9, 19.0, 50.0], 120.0);
        let s = plan_greedy_fixed(&inst, &GreedyConfig::paper_default(1.0));
        crate::feasibility::check_series(&inst, &s).unwrap();
        // Long-cycle sensors must be charged far less often than short ones.
        assert!(s.charge_times(5).len() < s.charge_times(0).len() / 10);
    }

    #[test]
    fn greedy_charges_each_sensor_near_its_cycle() {
        // Greedy's whole point: sensor with cycle τ gets charged roughly
        // every τ - Δl, i.e. close to the minimal possible frequency.
        let inst = line_instance(vec![10.0], 100.0);
        let s = plan_greedy_fixed(&inst, &GreedyConfig::paper_default(1.0));
        let times = s.charge_times(0);
        for w in times.windows(2) {
            assert!(w[1] - w[0] >= 9.0 - 1e-9);
            assert!(w[1] - w[0] <= 10.0 + 1e-9);
        }
    }

    #[test]
    fn empty_network() {
        let net = Network::new(vec![], vec![Point2::ORIGIN]);
        let inst = Instance::new(net, vec![], 10.0);
        let s = plan_greedy_fixed(&inst, &GreedyConfig::paper_default(1.0));
        assert_eq!(s.dispatch_count(), 0);
    }

    #[test]
    fn batch_routes_through_all_chargers() {
        let sensors = vec![Point2::new(1.0, 0.0), Point2::new(99.0, 0.0)];
        let depots = vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)];
        let network = Network::new(sensors, depots);
        let set = greedy_batch(&network, &[0, 1]);
        assert_eq!(set.sensors(), &[0, 1]);
        assert!((set.cost() - 4.0).abs() < 1e-9);
    }
}
