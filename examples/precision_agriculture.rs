//! Precision-agriculture WSN with range-limited charger drones.
//!
//! A planned (low-discrepancy Halton) deployment of soil-moisture sensors,
//! charged by battery-limited drone chargers: every trip must fit within
//! the drone's own range `L`. This example combines three extensions on
//! top of the paper's Algorithm 3:
//!
//! * an engineered (non-random) deployment ([`halton_deployment`]),
//! * range-constrained tour splitting (Beasley split),
//! * the min–max balanced cover (bounding the busiest drone's trip).
//!
//! ```text
//! cargo run --release --example precision_agriculture
//! ```

use perpetuum::core::minmax::min_max_cover;
use perpetuum::core::qtsp::Routing;
use perpetuum::core::split::split_tour_set;
use perpetuum::energy::CycleDistribution;
use perpetuum::geom::{deploy, derived_rng, Field};
use perpetuum::prelude::*;

fn main() {
    let field = Field::new(800.0, 800.0);
    let n = 120;

    // Engineered deployment: sensors on a low-discrepancy pattern; drone
    // pads at the corners plus one at the farm office (centre).
    let sensors = deploy::halton_deployment(field, n, 0);
    let depots = vec![
        field.center(),
        Point2::new(50.0, 50.0),
        Point2::new(750.0, 50.0),
        Point2::new(50.0, 750.0),
        Point2::new(750.0, 750.0),
    ];
    let network = Network::new(sensors, depots);

    // Irrigation-zone dependent duty cycles.
    let mut rng = derived_rng(808, 0);
    let dist = CycleDistribution::Random;
    let cycles = dist.sample_all(network.sensor_positions(), field.center(), 2.0, 30.0, &mut rng);

    let horizon = 240.0;
    let instance = Instance::new(network.clone(), cycles, horizon);
    let plan = plan_min_total_distance(&instance, &MtdConfig::default());
    check_series(&instance, &plan).expect("plan keeps the farm sensing");

    println!("Precision agriculture — n = {n}, 5 drone pads, T = {horizon}");
    println!(
        "unconstrained plan: {:.1} km over {} dispatches\n",
        plan.service_cost() / 1000.0,
        plan.dispatch_count()
    );

    // How much does a per-trip drone range cost?
    println!("{:>18} {:>16} {:>18}", "drone range (m)", "cost (km)", "extra trips/dispatch");
    for range in [4000.0, 3000.0, 2500.0, 2000.0] {
        let mut total = 0.0;
        let mut trips = 0usize;
        for d in plan.dispatches() {
            let split = split_tour_set(&network.dist_source(), plan.set_of(d), range)
                .expect("every sensor is reachable at these ranges");
            total += split.total;
            trips += split
                .trips
                .iter()
                .map(|per| per.iter().filter(|t| t.len() > 1).count())
                .sum::<usize>();
        }
        println!(
            "{range:>18.0} {:>16.1} {:>18.2}",
            total / 1000.0,
            trips as f64 / plan.dispatch_count() as f64
        );
    }

    // Balance the fleet: how long is the busiest drone's tour when all
    // sensors need a simultaneous post-storm recharge?
    let all: Vec<usize> = (0..n).collect();
    let src = network.dist_source();
    let qt = perpetuum::core::qtsp::q_rooted_tsp_src(&src, &all, &network.depot_nodes());
    let alg2_span = qt.tours.iter().map(|t| t.length(&src)).fold(0.0f64, f64::max);
    let balanced = min_max_cover(&network, &all, Routing::Doubling, 200);
    println!(
        "\nfull-recharge makespan: Algorithm 2 routing {:.0} m, balanced cover {:.0} m \
         ({} rebalancing moves, total {:.0} m vs {:.0} m)",
        alg2_span, balanced.makespan, balanced.moves, balanced.total, qt.cost,
    );
}
