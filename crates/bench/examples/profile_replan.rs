//! Ad-hoc profiling harness: where does one adaptive-mode replan spend
//! its time at n = 10_000? Run with
//! `cargo run --release -p perpetuum-bench --example profile_replan`.

use perpetuum_core::network::Network;
use perpetuum_core::var::{replan_variable_with, RepairStrategy, VarInput};
use perpetuum_energy::CycleDistribution;
use perpetuum_geom::{deploy, derived_rng, Field};
use rand::Rng;
use std::time::Instant;

fn main() {
    let n = 10_000;
    let q = 5;
    let field = Field::paper_default();
    let mut rng = derived_rng(n as u64, 0);
    let sensors = deploy::uniform_deployment(field, n, &mut rng);
    let depots = deploy::place_depots(
        field,
        field.center(),
        q,
        deploy::DepotPlacement::OneAtBaseStation,
        &mut rng,
    );
    let net = Network::new(sensors, depots);

    // Mid-run-looking inputs: cycles in [20, 60], residuals mid-cycle.
    let dist = CycleDistribution::Linear { sigma: 2.0 };
    let means = dist.mean_all(net.sensor_positions(), field.center(), 20.0, 60.0);
    let mut rng = derived_rng(7, 3);
    let cycles: Vec<f64> =
        means.iter().map(|&m| (m + rng.gen_range(-2.0..2.0)).clamp(20.0, 60.0)).collect();
    let residuals: Vec<f64> = cycles.iter().map(|&c| rng.gen_range(0.2 * c..c)).collect();

    for round in 0..3 {
        let input = VarInput {
            network: &net,
            max_cycles: &cycles,
            residuals: &residuals,
            now: 42.0,
            horizon: 200.0,
        };
        let t0 = Instant::now();
        let plan = replan_variable_with(&input, RepairStrategy::NearestScheduling);
        eprintln!(
            "round {round}: full replan {:?} ({} sets, {} dispatches)",
            t0.elapsed(),
            plan.series.sets().len(),
            plan.series.dispatch_count()
        );
    }

    // Phase cost estimates: cumulative-set routing vs the V^a repair.
    use perpetuum_core::qtsp::q_rooted_tsp_src;
    use perpetuum_core::rounding::partition_cycles;
    let partition = partition_cycles(&cycles);
    let k_max = partition.k_max();
    eprintln!("tau1 = {}, k_max = {k_max}", partition.tau1);
    let depot_nodes = net.depot_nodes();
    let src = net.dist_source();
    for k in 0..=k_max {
        let cum = partition.cumulative(k);
        let nodes: Vec<usize> = cum.clone();
        let t0 = Instant::now();
        let qt = q_rooted_tsp_src(&src, &nodes, &depot_nodes);
        eprintln!("route D_{k} (|{}|): {:?} (cost {:.1})", cum.len(), t0.elapsed(), qt.cost);
    }
    let urgent = residuals.iter().filter(|&&r| r < partition.tau1).count();
    let va = (0..n).filter(|&i| residuals[i] + 1e-12 < partition.rounded[i]).count();
    eprintln!("V^a size = {va}, urgent = {urgent}");
}
