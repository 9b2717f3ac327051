//! Flood-detection WSN (the paper's motivating application).
//!
//! A periodic-monitoring network in a 1 km² catchment: sensors near the
//! base station relay everyone else's readings and drain far faster than
//! the edge sensors — exactly the *linear* charging-cycle distribution of
//! Section VII.A. This example runs the full simulation pipeline at paper
//! scale (`T = 1000`, `q = 5`) and compares `MinTotalDistance` against the
//! greedy baseline across several deployments.
//!
//! ```text
//! cargo run --release --example flood_monitoring
//! ```

use perpetuum::par::{mean, par_map};
use perpetuum::sim::scenario::{Algo, Scenario};

fn main() {
    let topologies = 10usize;
    let seed = 2014;

    println!("Flood-detection WSN — linear cycle distribution, q = 5, T = 1000");
    println!("averaging {topologies} random deployments per point\n");
    println!("{:>6} {:>22} {:>22} {:>8}", "n", "MinTotalDistance (km)", "Greedy (km)", "ratio");

    for n in [100usize, 200, 300] {
        let scenario = Scenario { n, ..Scenario::paper_fixed() };
        let mtd: Vec<f64> = par_map(topologies, |i| {
            let r = scenario.run_once(Algo::Mtd, seed, i as u64);
            assert!(r.is_perpetual(), "a sensor died under MinTotalDistance");
            r.service_cost / 1000.0
        });
        let greedy: Vec<f64> = par_map(topologies, |i| {
            let r = scenario.run_once(Algo::Greedy, seed, i as u64);
            assert!(r.is_perpetual(), "a sensor died under Greedy");
            r.service_cost / 1000.0
        });
        let (m, g) = (mean(&mtd), mean(&greedy));
        println!("{n:>6} {m:>22.1} {g:>22.1} {:>8.3}", m / g);
    }

    println!("\nThe proposed algorithm charges distant long-cycle sensors rarely");
    println!("while folding the hungry relay sensors near the base station into");
    println!("every dispatch — the greedy baseline pays full tours for both.");
}
