//! Ablation benchmarks: runtime cost of the design-choice variants whose
//! *service-cost* effect is measured by `perpetuum-exp --ablation ...`.
//!
//! * rounding — Algorithm 3 vs the per-sensor exact-cadence strawman vs
//!   charging everyone every `τ_min`;
//! * tour polish — plain tree-doubling routing vs the same plan refined to
//!   a local optimum by the `perpetuum-opt` refiner;
//! * repair — nearest-scheduling `V^a` insertion vs charge-all-now, run
//!   through the full simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::network::Instance;
use perpetuum_core::refine::{refine, Budget, CONVERGENCE_STEPS};
use perpetuum_core::var::RepairStrategy;
use perpetuum_exp::naive::{plan_charge_all, plan_per_sensor_cadence};
use perpetuum_sim::scenario::Scenario;
use perpetuum_sim::{run, SimConfig, VarPolicy};
use std::hint::black_box;

fn bench_rounding(c: &mut Criterion) {
    let s = Scenario { n: 150, horizon: 200.0, ..Scenario::paper_fixed() };
    let topo = s.build_topology(21, 0);
    let inst = Instance::new(topo.network.clone(), topo.init_cycles.clone(), s.horizon);

    let mut group = c.benchmark_group("ablation_rounding");
    group.sample_size(20);
    group.bench_function("mtd_rounded_aligned", |b| {
        b.iter(|| black_box(plan_min_total_distance(&inst, &MtdConfig::default())))
    });
    group.bench_function("per_sensor_exact_cadence", |b| {
        b.iter(|| black_box(plan_per_sensor_cadence(&inst)))
    });
    group.bench_function("charge_all_every_tau_min", |b| {
        b.iter(|| black_box(plan_charge_all(&inst)))
    });
    group.finish();
}

fn bench_polish(c: &mut Criterion) {
    let s = Scenario { n: 150, horizon: 200.0, ..Scenario::paper_fixed() };
    let topo = s.build_topology(22, 0);
    let inst = Instance::new(topo.network.clone(), topo.init_cycles.clone(), s.horizon);

    let mut group = c.benchmark_group("ablation_tour_polish");
    group.sample_size(20);
    group.bench_function("algorithm_2_plain", |b| {
        b.iter(|| black_box(plan_min_total_distance(&inst, &MtdConfig::default())))
    });
    group.bench_function("algorithm_2_polished", |b| {
        b.iter(|| {
            let plan = plan_min_total_distance(&inst, &MtdConfig::default());
            black_box(refine(inst.network(), &plan, &Budget::steps(CONVERGENCE_STEPS), 0))
        })
    });
    group.finish();
}

fn bench_repair(c: &mut Criterion) {
    let s = Scenario { n: 80, horizon: 150.0, ..Scenario::paper_variable() };
    let topo = s.build_topology(23, 0);
    let cfg =
        SimConfig { horizon: s.horizon, slot: s.slot, seed: topo.sim_seed, charger_speed: None };

    let mut group = c.benchmark_group("ablation_repair");
    group.sample_size(10);
    group.bench_function("nearest_scheduling_repair", |b| {
        b.iter(|| {
            let mut p = VarPolicy::new(&topo.network);
            black_box(run(s.build_world(&topo), &cfg, &mut p))
        })
    });
    group.bench_function("charge_all_now_repair", |b| {
        b.iter(|| {
            let mut p = VarPolicy::new(&topo.network);
            p.repair = RepairStrategy::ChargeAllNow;
            black_box(run(s.build_world(&topo), &cfg, &mut p))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rounding, bench_polish, bench_repair);
criterion_main!(benches);
