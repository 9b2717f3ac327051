//! Closed-loop controller benchmarks: the drift scenario behind
//! `BENCH_online.json`.
//!
//! Three arms over the *same* paper-scale world, seed and compounding
//! 1.5%/slot rate drift:
//!
//! * `drift_static/deaths_*` — open-loop Algorithm 3, planned once from
//!   the initial estimates and never updated;
//! * `drift_online/deaths_*` — the telemetry-driven
//!   [`perpetuum_online::OnlineController`] (EWMA estimates, class-change
//!   triggered incremental replans, emergency dispatch queue);
//! * `drift_oracle/deaths_*` — a full replan from true measured rates at
//!   every slot boundary, the death-count floor.
//!
//! The death count of each arm is baked into its benchmark id, so the
//! committed JSON records the *outcome* comparison alongside the timings,
//! and the setup asserts the acceptance ordering — strictly fewer deaths
//! for the closed loop than the open loop, oracle at or below both — so a
//! regression fails the generation instead of silently shipping a stale
//! claim.
//!
//! `ingest_stable/<n>` times the controller's hot path: one full-network
//! telemetry batch that changes no rounding class, which must cost zero
//! planner invocations (asserted before timing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perpetuum_exp::closed_loop::{compare_under_drift, OnlinePolicy, OraclePolicy};
use perpetuum_online::{OnlineConfig, OnlineController, TelemetryBatch, TelemetryRecord};
use perpetuum_sim::scenario::Scenario;
use perpetuum_sim::{run_with_faults, FaultModel, MtdPolicy, RateShock, SimConfig};
use std::hint::black_box;

/// Per-slot compounding drift factor — the strongest point of the
/// `ext_drift` sweep, where the open-loop plan visibly starves sensors.
const DRIFT: f64 = 0.015;

fn bench_online(c: &mut Criterion) {
    let s = Scenario { n: 60, horizon: 300.0, ..Scenario::paper_fixed() };
    let topo = s.build_topology(42, 0);
    let cfg =
        SimConfig { horizon: s.horizon, slot: s.slot, seed: topo.sim_seed, charger_speed: None };
    let world = s.build_world(&topo);

    // The committed BENCH_online.json must show the closed loop strictly
    // beating the open loop under drift; fail the generation if not.
    let outcome = compare_under_drift(&world, &cfg, DRIFT);
    assert!(outcome.static_arm.deaths > 0, "drift must break the open-loop plan");
    assert!(
        outcome.online_arm.deaths < outcome.static_arm.deaths,
        "online ({}) must beat static ({})",
        outcome.online_arm.deaths,
        outcome.static_arm.deaths
    );
    assert!(
        outcome.oracle_arm.deaths <= outcome.online_arm.deaths,
        "oracle ({}) must floor online ({})",
        outcome.oracle_arm.deaths,
        outcome.online_arm.deaths
    );
    assert!(
        outcome.online_arm.planner_calls < outcome.oracle_arm.planner_calls,
        "online must plan less than the every-slot oracle"
    );

    let mut group = c.benchmark_group("online");
    group.sample_size(10);

    let faults = FaultModel::none().with_rate_shocks(RateShock::drift(DRIFT)).with_seed(cfg.seed);
    let net = topo.network.clone();

    let id = BenchmarkId::new("drift_static", format!("deaths_{}", outcome.static_arm.deaths));
    group.bench_function(id, |b| {
        b.iter(|| {
            let mut p = MtdPolicy::new(&net);
            black_box(run_with_faults(world.clone(), &cfg, &mut p, &faults))
        })
    });
    let id = BenchmarkId::new("drift_online", format!("deaths_{}", outcome.online_arm.deaths));
    group.bench_function(id, |b| {
        b.iter(|| {
            let mut p = OnlinePolicy::new(&net);
            black_box(run_with_faults(world.clone(), &cfg, &mut p, &faults))
        })
    });
    let id = BenchmarkId::new("drift_oracle", format!("deaths_{}", outcome.oracle_arm.deaths));
    group.bench_function(id, |b| {
        b.iter(|| {
            let mut p = OraclePolicy::new(&net);
            black_box(run_with_faults(world.clone(), &cfg, &mut p, &faults))
        })
    });

    // Controller hot path: a class-stable full-network batch. Rates equal
    // the initial estimates, so every EWMA stays put and no rounding class
    // moves — the ingest must cost zero planner invocations.
    let n = topo.network.n();
    let capacities = vec![1.0; n];
    let rates: Vec<f64> = topo.init_cycles.iter().map(|c| 1.0 / c).collect();
    let mut ctl = OnlineController::new(
        topo.network.clone(),
        capacities,
        rates.clone(),
        OnlineConfig::new(s.horizon),
    )
    .expect("paper-scale controller builds");
    let batch = TelemetryBatch {
        time: 1.0,
        records: (0..n).map(|i| TelemetryRecord::rate(i, rates[i])).collect(),
    };
    let before = ctl.planner_calls();
    ctl.ingest(&batch).expect("stable batch ingests");
    assert_eq!(ctl.planner_calls(), before, "class-stable batch must not invoke the planner");
    group.bench_with_input(BenchmarkId::new("ingest_stable", n), &n, |b, _| {
        b.iter(|| black_box(ctl.ingest(&batch).expect("stable batch ingests")))
    });

    group.finish();
}

criterion_group!(benches, bench_online);
criterion_main!(benches);
