//! Regenerates the README refinement table: service cost vs step budget
//! at large scale, refined through the points-backed pipeline (no dense
//! matrix).
//!
//! ```text
//! cargo run --release -p perpetuum-bench --example refine_table
//! ```

use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::network::Instance;
use perpetuum_core::refine::{refine, Budget};
use perpetuum_sim::scenario::Scenario;
use std::time::Instant;

const BUDGETS: [u64; 3] = [100_000, 400_000, 1_600_000];
const SEED: u64 = 7;

fn main() {
    println!("| `n` | constructive | 100k steps | 400k steps | 1.6M steps | best cut | refine time (1.6M) |");
    println!("|---:|---:|---:|---:|---:|---:|---:|");
    for n in [2_000usize, 10_000] {
        let s = Scenario { n, ..Scenario::paper_fixed() };
        let topo = s.build_topology(42, 0);
        let instance = Instance::new(topo.network, topo.init_cycles, s.horizon);
        let plan = plan_min_total_distance(&instance, &MtdConfig::default());
        let constructive = plan.service_cost();
        let mut cells = Vec::new();
        let mut last = (constructive, 0.0f64);
        for &steps in &BUDGETS {
            let t = Instant::now();
            let (_, report) = refine(instance.network(), &plan, &Budget::steps(steps), SEED);
            let secs = t.elapsed().as_secs_f64();
            assert!(report.refined_cost <= constructive, "anytime contract violated");
            cells.push(format!("{:.0}", report.refined_cost));
            last = (report.refined_cost, secs);
        }
        println!(
            "| {n} | {constructive:.0} | {} | **-{:.1}%** | {:.0} ms |",
            cells.join(" | "),
            (1.0 - last.0 / constructive) * 100.0,
            last.1 * 1e3
        );
    }
}
