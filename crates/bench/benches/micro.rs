//! Micro-benchmarks of the algorithmic building blocks: how Algorithms 1–3
//! and the replanner scale with `n` and `q`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::network::{Instance, Network};
use perpetuum_core::qmsf::q_rooted_msf_src;
use perpetuum_core::qtsp::q_rooted_tsp_src;
use perpetuum_core::rounding::partition_cycles;
use perpetuum_core::var::{replan_variable, VarInput};
use perpetuum_geom::{deploy, derived_rng, Field};
use perpetuum_graph::mst::prim;
use perpetuum_graph::tsp_exact::held_karp;
use perpetuum_graph::DistMatrix;
use rand::Rng;
use std::hint::black_box;

fn build_network(n: usize, q: usize, seed: u64) -> Network {
    let field = Field::paper_default();
    let mut rng = derived_rng(seed, 0);
    let sensors = deploy::uniform_deployment(field, n, &mut rng);
    let depots = deploy::place_depots(
        field,
        field.center(),
        q,
        deploy::DepotPlacement::OneAtBaseStation,
        &mut rng,
    );
    Network::new(sensors, depots)
}

fn random_cycles(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = derived_rng(seed, 1);
    (0..n).map(|_| rng.gen_range(1.0..50.0)).collect()
}

fn bench_qmsf_qtsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm_1_and_2");
    for &n in &[50usize, 200, 500] {
        let network = build_network(n, 5, n as u64);
        let terminals: Vec<usize> = (0..n).collect();
        let roots = network.depot_nodes();
        group.bench_with_input(BenchmarkId::new("q_rooted_msf", n), &n, |b, _| {
            b.iter(|| black_box(q_rooted_msf_src(&network.dist_source(), &terminals, &roots)))
        });
        group.bench_with_input(BenchmarkId::new("q_rooted_tsp", n), &n, |b, _| {
            b.iter(|| black_box(q_rooted_tsp_src(&network.dist_source(), &terminals, &roots)))
        });
    }
    // q scaling at fixed n.
    for &q in &[1usize, 5, 10] {
        let network = build_network(200, q, 1000 + q as u64);
        let terminals: Vec<usize> = (0..200).collect();
        let roots = network.depot_nodes();
        group.bench_with_input(BenchmarkId::new("q_rooted_tsp_q", q), &q, |b, _| {
            b.iter(|| black_box(q_rooted_tsp_src(&network.dist_source(), &terminals, &roots)))
        });
    }
    group.finish();
}

fn bench_schedule_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm_3");
    group.sample_size(20);
    for &n in &[100usize, 300, 500] {
        let network = build_network(n, 5, 7 + n as u64);
        let cycles = random_cycles(n, n as u64);
        let instance = Instance::new(network, cycles, 1000.0);
        group.bench_with_input(BenchmarkId::new("plan_min_total_distance", n), &n, |b, _| {
            b.iter(|| black_box(plan_min_total_distance(&instance, &MtdConfig::default())))
        });
    }
    group.finish();
}

fn bench_replan(c: &mut Criterion) {
    let mut group = c.benchmark_group("var_replan");
    group.sample_size(20);
    for &n in &[100usize, 300] {
        let network = build_network(n, 5, 31 + n as u64);
        let cycles = random_cycles(n, 77 + n as u64);
        let mut rng = derived_rng(5, n as u64);
        let residuals: Vec<f64> = cycles.iter().map(|&c| rng.gen_range(0.1..=c)).collect();
        group.bench_with_input(BenchmarkId::new("replan_variable", n), &n, |b, _| {
            b.iter(|| {
                let input = VarInput {
                    network: &network,
                    max_cycles: &cycles,
                    residuals: &residuals,
                    now: 500.0,
                    horizon: 1000.0,
                };
                black_box(replan_variable(&input))
            })
        });
    }
    group.finish();
}

fn bench_constructors(c: &mut Criterion) {
    use perpetuum_graph::tsp_christofides::christofides;
    use perpetuum_graph::tsp_heur::nearest_neighbor;
    use perpetuum_graph::tsp_hilbert::hilbert_tour_all;
    use perpetuum_graph::tsp_savings::savings_tour;

    let mut group = c.benchmark_group("tsp_constructors");
    for &n in &[100usize, 400] {
        let field = Field::paper_default();
        let pts = deploy::uniform_deployment(field, n, &mut derived_rng(9, n as u64));
        let dist = DistMatrix::from_points(&pts);
        let customers: Vec<usize> = (1..n).collect();
        group.bench_with_input(BenchmarkId::new("nearest_neighbor", n), &n, |b, _| {
            b.iter(|| black_box(nearest_neighbor(&dist, 0)))
        });
        group.bench_with_input(BenchmarkId::new("christofides", n), &n, |b, _| {
            b.iter(|| black_box(christofides(&dist, 0)))
        });
        group.bench_with_input(BenchmarkId::new("savings", n), &n, |b, _| {
            b.iter(|| black_box(savings_tour(&dist, 0, &customers)))
        });
        group.bench_with_input(BenchmarkId::new("hilbert", n), &n, |b, _| {
            b.iter(|| black_box(hilbert_tour_all(&pts, 0)))
        });
    }
    group.finish();
}

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    // Prim on dense matrices.
    for &n in &[100usize, 500] {
        let network = build_network(n, 1, 400 + n as u64);
        group.bench_with_input(BenchmarkId::new("prim_dense", n), &n, |b, _| {
            let dist = DistMatrix::from_points(network.points());
            b.iter(|| black_box(prim(&dist)))
        });
    }
    // Cycle partitioning.
    let cycles = random_cycles(500, 9);
    group.bench_function("partition_cycles_500", |b| {
        b.iter(|| black_box(partition_cycles(&cycles)))
    });
    // Exact TSP reference.
    let pts = deploy::uniform_deployment(Field::paper_default(), 13, &mut derived_rng(3, 3));
    let dist = DistMatrix::from_points(&pts);
    group.bench_function("held_karp_13", |b| b.iter(|| black_box(held_karp(&dist))));
    group.finish();
}

criterion_group!(
    benches,
    bench_qmsf_qtsp,
    bench_schedule_build,
    bench_replan,
    bench_constructors,
    bench_substrate
);
criterion_main!(benches);
