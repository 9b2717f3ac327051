//! Naive reference planners — ablation strawmen, not paper algorithms.
//!
//! Algorithm 3 makes two moves at once: it *rounds* cycles down to powers
//! of two (charging some sensors up to twice as often as strictly needed)
//! in exchange for *aligning* dispatch times so sensors share tours. These
//! planners isolate the trade:
//!
//! * [`plan_per_sensor_cadence`] keeps every sensor at its exact maximal
//!   cadence but gives up alignment: each sensor is toured individually at
//!   multiples of its own cycle (with continuous cycles, dispatch times
//!   almost never coincide, so batching is vacuous). This is the
//!   "no-rounding" ablation.
//! * [`plan_charge_all`] dispatches the full-network tour set every
//!   `τ_min` — the naive strategy Section III.C dismisses as
//!   "significantly increasing the service cost".

use crate::network::Instance;
use crate::qtsp::q_rooted_tsp_src;
use crate::schedule::{ScheduleSeries, TourSet};

/// Charges each sensor individually at exact multiples of its own maximum
/// charging cycle. Feasible by construction; no tour sharing.
pub fn plan_per_sensor_cadence(instance: &Instance) -> ScheduleSeries {
    let network = instance.network();
    let depots = network.depot_nodes();
    let n = network.n();
    let mut series = ScheduleSeries::new();
    let mut dispatches: Vec<(f64, usize)> = Vec::new();
    for i in 0..n {
        let set_id = series.add_set(TourSet::from_qtours(
            q_rooted_tsp_src(&network.dist_source(), &[network.sensor_node(i)], &depots),
            |v| v >= n,
        ));
        let tau = instance.cycles()[i];
        let mut t = tau;
        while t < instance.horizon() {
            dispatches.push((t, set_id));
            t += tau;
        }
    }
    dispatches.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for (t, set) in dispatches {
        series.push_dispatch(t, set);
    }
    series
}

/// Charges every sensor at every multiple of `τ_min` with the full-network
/// tour set.
pub fn plan_charge_all(instance: &Instance) -> ScheduleSeries {
    let network = instance.network();
    let n = network.n();
    let mut series = ScheduleSeries::new();
    if n == 0 {
        return series;
    }
    let all: Vec<usize> = (0..n).collect();
    let set = series.add_set(TourSet::from_qtours(
        q_rooted_tsp_src(&network.dist_source(), &all, &network.depot_nodes()),
        |v| v >= n,
    ));
    let tau_min = instance.cycles().iter().cloned().fold(f64::INFINITY, f64::min);
    let mut t = tau_min;
    while t < instance.horizon() {
        series.push_dispatch(t, set);
        t += tau_min;
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::check_series;
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
        let cycles: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..20.0)).collect();
        Instance::new(Network::new(sensors, depots), cycles, horizon)
    }

    #[test]
    fn per_sensor_cadence_is_feasible() {
        let inst = random_instance(12, 1, 100.0);
        let plan = plan_per_sensor_cadence(&inst);
        check_series(&inst, &plan).unwrap();
        // Every dispatch covers exactly one sensor.
        for d in plan.dispatches() {
            assert_eq!(plan.set_of(d).sensors().len(), 1);
        }
    }

    #[test]
    fn charge_all_is_feasible_and_expensive() {
        let inst = random_instance(12, 2, 50.0);
        let all = plan_charge_all(&inst);
        check_series(&inst, &all).unwrap();
        let mtd = plan_min_total_distance(&inst, &MtdConfig::default());
        assert!(mtd.service_cost() <= all.service_cost() + 1e-6);
    }

    #[test]
    fn per_sensor_charge_counts_match_exact_cadence() {
        let inst = random_instance(8, 3, 64.0);
        let plan = plan_per_sensor_cadence(&inst);
        for (i, &tau) in inst.cycles().iter().enumerate() {
            let expected = ((inst.horizon() - 1e-9) / tau).floor() as usize;
            assert_eq!(plan.charge_times(i).len(), expected, "sensor {i}");
        }
    }

    #[test]
    fn mtd_beats_per_sensor_cadence_on_clustered_cycles() {
        // Many sensors share similar cycles → alignment pays for rounding.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sensors: Vec<Point2> = (0..30)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![Point2::new(500.0, 500.0)];
        let cycles: Vec<f64> = (0..30).map(|_| rng.gen_range(4.0..8.0)).collect();
        let inst = Instance::new(Network::new(sensors, depots), cycles, 128.0);
        let mtd = plan_min_total_distance(&inst, &MtdConfig::default());
        let naive = plan_per_sensor_cadence(&inst);
        assert!(
            mtd.service_cost() < naive.service_cost(),
            "MTD {} vs per-sensor {}",
            mtd.service_cost(),
            naive.service_cost()
        );
    }

    #[test]
    fn empty_instances() {
        let net = Network::new(vec![], vec![Point2::ORIGIN]);
        let inst = Instance::new(net, vec![], 10.0);
        assert_eq!(plan_per_sensor_cadence(&inst).dispatch_count(), 0);
        assert_eq!(plan_charge_all(&inst).dispatch_count(), 0);
    }
}
