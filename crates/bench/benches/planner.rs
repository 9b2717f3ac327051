//! Planning-pipeline scaling: network build, Algorithm 1 and Algorithm 2
//! over all sensors, and Algorithm 3 over its cumulative sets.
//!
//! The numbers behind `BENCH_planner.json` and the README scaling table.
//! `end_to_end/<n>` runs the paper's uniform deployment, and
//! `end_to_end_clustered/2000` the clustered one of Section VII.A
//! (5 clusters, spread 30 m) — the shape where a nearest-neighbour
//! candidate graph used to miss minimum-forest edges. Every size runs the
//! same points-backed pipeline; no `n²` matrix is built. `alg3/2000` is
//! one `POST /plan` planning call without its I/O: Algorithm 3 on the
//! paper's fixed-cycle scenario at n = 2000, which routes the `K + 1`
//! nested sets `D_0 ⊂ … ⊂ D_K` rather than one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::network::Network;
use perpetuum_core::qtsp::q_rooted_tsp_src;
use perpetuum_geom::Point2;
use perpetuum_geom::{deploy, derived_rng, Field};
use perpetuum_sim::scenario::{realise_world, Scenario};
use std::hint::black_box;

const Q: usize = 5;

fn deployment(n: usize, seed: u64, clustered: bool) -> (Vec<Point2>, Vec<Point2>) {
    let field = Field::paper_default();
    let mut rng = derived_rng(seed, 0);
    let sensors = if clustered {
        deploy::clustered_deployment(field, 5, n, 30.0, &mut rng)
    } else {
        deploy::uniform_deployment(field, n, &mut rng)
    };
    let depots = deploy::place_depots(
        field,
        field.center(),
        Q,
        deploy::DepotPlacement::OneAtBaseStation,
        &mut rng,
    );
    (sensors, depots)
}

fn plan(network: &Network) -> f64 {
    let terminals: Vec<usize> = (0..network.n()).collect();
    let roots = network.depot_nodes();
    q_rooted_tsp_src(&network.dist_source(), &terminals, &roots).cost
}

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner");
    group.sample_size(10);
    let cases = [
        ("end_to_end", 200usize, false),
        ("end_to_end", 500, false),
        ("end_to_end", 2000, false),
        ("end_to_end", 10_000, false),
        ("end_to_end_clustered", 2000, true),
    ];
    for (name, n, clustered) in cases {
        let (sensors, depots) = deployment(n, n as u64, clustered);
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| {
                let net = Network::new(sensors.clone(), depots.clone());
                black_box(plan(&net))
            })
        });
    }
    let instance =
        realise_world(Scenario { n: 2000, ..Scenario::paper_fixed() }, 2000, 0).instance();
    group.bench_function(BenchmarkId::new("alg3", 2000), |b| {
        b.iter(|| {
            black_box(plan_min_total_distance(&instance, &MtdConfig::default()).service_cost())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
