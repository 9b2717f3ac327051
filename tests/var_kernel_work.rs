//! Algorithm-1 kernel work of one `MinTotalDistance-var` run, pinned.
//!
//! One variable-cycle world of the `simulate` workload's shape
//! (`Scenario::paper_variable()` at n = 1 000) runs under `VarPolicy`.
//! The counters its incremental planner sums over every Algorithm-1 call
//! — Borůvka rounds, neighbour-table hits, kd-tree queries and kd-trees
//! built — must equal the recorded ones. The counts are deterministic, so
//! any change to how the kernel finds its edges shows here, and the plan
//! itself must not move: `replans` and `service_cost` are pinned beside
//! them.
//!
//! `cargo test --release --test var_kernel_work -- --ignored --nocapture`
//! prints the current values.

use perpetuum::graph::MstWork;
use perpetuum::sim::scenario::{realise_world, Scenario};
use perpetuum::sim::{run, SimConfig, SimResult, VarPolicy};

const MASTER_SEED: u64 = 2014;
const TOPOLOGY: u64 = 0;
/// The `simulate` workload's network size.
const N: usize = 1000;

fn simulate() -> (SimResult, MstWork, usize, usize) {
    let scenario = Scenario { n: N, ..Scenario::paper_variable() };
    let parsed = realise_world(scenario, MASTER_SEED, TOPOLOGY);
    let cfg = SimConfig {
        horizon: parsed.scenario.horizon,
        slot: parsed.scenario.slot,
        seed: parsed.topology.sim_seed,
        charger_speed: None,
    };
    let mut policy = VarPolicy::new(&parsed.topology.network);
    let result = run(parsed.world, &cfg, &mut policy);
    (result, policy.mst_work(), policy.incremental_replans(), policy.full_replans())
}

#[test]
fn var_policy_kernel_work_is_pinned() {
    let (result, work, incremental, full) = simulate();
    assert_eq!((incremental, full), (99, 1), "replans (incremental, full)");
    assert_eq!(result.service_cost.to_bits(), 2195087.0803591013f64.to_bits(), "service cost");
    // Without a table the same run does the same 677 rounds with 21 404
    // queries on 382 kd-trees.
    let pinned = MstWork { rounds: 677, table_hits: 11_621, tree_queries: 4_089, trees_built: 82 };
    assert_eq!(work, pinned, "kernel work");
}

#[test]
#[ignore = "prints the pinned values for the current code"]
fn print_pinned() {
    let (result, work, incremental, full) = simulate();
    println!("replans: incremental {incremental}, full {full}");
    println!("service_cost: {:?}", result.service_cost);
    println!("{work:?}");
}
