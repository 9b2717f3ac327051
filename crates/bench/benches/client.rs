//! Edge-suppression benchmarks: the traffic/throughput scenario behind
//! `BENCH_client.json`.
//!
//! Two closed-loop arms over the *same* paper-scale world, seed and
//! compounding 1.5%/slot rate drift:
//!
//! * `client/drift_streaming/*` — per-slot streaming
//!   [`perpetuum_exp::closed_loop::OnlinePolicy`]: one telemetry record per sensor per
//!   slot;
//! * `client/drift_suppressed/*` — the edge-suppressed
//!   [`perpetuum_exp::closed_loop::SuppressedPolicy`]: a [`perpetuum_client::SensorClient`]
//!   per sensor runs the drift test locally and only class-crossing slots
//!   go on the wire.
//!
//! The frames-on-wire reduction factor is baked into the suppressed arm's
//! benchmark id, and the setup asserts the acceptance claims — at least a
//! 10× frame reduction under drift with no loss of control quality — so a
//! regression fails the generation instead of silently shipping a stale
//! number.
//!
//! `client/observe/<n>` times the sensor-side hot path (one suppressed
//! observation across the fleet), and `client/ingest_stable/<n>` re-times
//! the controller's unsuppressed streaming hot path — directly comparable
//! to the `online/ingest_stable/<n>` row of `BENCH_online.json`, proving
//! the events path did not slow the telemetry path down.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perpetuum_client::SensorClient;
use perpetuum_exp::closed_loop::{OnlinePolicy, SuppressedPolicy};
use perpetuum_online::{
    EventBatch, OnlineConfig, OnlineController, TelemetryBatch, TelemetryRecord,
};
use perpetuum_sim::scenario::Scenario;
use perpetuum_sim::{run_with_faults, FaultModel, RateShock, SimConfig};
use std::hint::black_box;

/// Per-slot compounding drift factor — the strongest point of the
/// `ext_drift` sweep (matches the `online` bench).
const DRIFT: f64 = 0.015;

/// Hysteresis margin for both arms. Every τ₁ undercut forces a fleet-wide
/// sync (`n` records at once), so the sync cadence bounds the reduction
/// factor: under compounding drift `d` the band refills in
/// `ln(1/(1−margin))/ln(1+d)` slots — ~7 at the default 10%, ~11 here.
/// Both arms plan against the same margin, so the comparison stays fair.
const MARGIN: f64 = 0.15;

fn bench_client(c: &mut Criterion) {
    let s = Scenario { n: 60, horizon: 300.0, ..Scenario::paper_fixed() };
    let topo = s.build_topology(42, 0);
    let cfg =
        SimConfig { horizon: s.horizon, slot: s.slot, seed: topo.sim_seed, charger_speed: None };
    let world = s.build_world(&topo);
    let faults = FaultModel::none().with_rate_shocks(RateShock::drift(DRIFT)).with_seed(cfg.seed);
    let net = topo.network.clone();

    // The committed BENCH_client.json must show the acceptance claims; fail
    // the generation if suppression ever weakens or costs control quality.
    let mut streaming_policy = OnlinePolicy::with_margin(&net, MARGIN);
    let streaming = run_with_faults(world.clone(), &cfg, &mut streaming_policy, &faults);
    let mut suppressed_policy = SuppressedPolicy::with_margin(&net, MARGIN);
    let suppressed = run_with_faults(world.clone(), &cfg, &mut suppressed_policy, &faults);
    let traffic = suppressed_policy.traffic();
    let reduction = traffic.reduction();
    assert!(
        reduction >= 10.0,
        "frames-on-wire reduction fell below 10x: {reduction:.1}x ({} of {} sent)",
        traffic.frames_sent,
        traffic.frames_observed
    );
    assert!(
        suppressed.deaths.len() <= streaming.deaths.len(),
        "suppression must not cost control quality: {} deaths vs {} streaming",
        suppressed.deaths.len(),
        streaming.deaths.len()
    );
    assert!(traffic.sync_batches >= 1, "drift must exercise the sync protocol");

    let mut group = c.benchmark_group("client");
    group.sample_size(10);

    let id = BenchmarkId::new(
        "drift_streaming",
        format!("frames_{}_deaths_{}", traffic.frames_observed, streaming.deaths.len()),
    );
    group.bench_function(id, |b| {
        b.iter(|| {
            let mut p = OnlinePolicy::with_margin(&net, MARGIN);
            black_box(run_with_faults(world.clone(), &cfg, &mut p, &faults))
        })
    });
    let id = BenchmarkId::new(
        "drift_suppressed",
        format!(
            "frames_{}_syncs_{}_reduction_{:.1}x_deaths_{}",
            traffic.frames_sent,
            traffic.sync_batches,
            reduction,
            suppressed.deaths.len()
        ),
    );
    group.bench_function(id, |b| {
        b.iter(|| {
            let mut p = SuppressedPolicy::with_margin(&net, MARGIN);
            black_box(run_with_faults(world.clone(), &cfg, &mut p, &faults))
        })
    });

    // Sensor-side hot path: one steady-rate observation per client across
    // the fleet. Every slot is in-band, so each call is a pure settle +
    // EWMA fold + drift test with no event construction.
    let n = topo.network.n();
    let rates: Vec<f64> = topo.init_cycles.iter().map(|c| 1.0 / c).collect();
    let mut ctl = OnlineController::new(
        topo.network.clone(),
        vec![1.0; n],
        rates.clone(),
        OnlineConfig::new(s.horizon),
    )
    .expect("paper-scale controller builds");
    let mut clients: Vec<SensorClient> =
        rates.iter().map(|&r| SensorClient::new(0.5, 0.0, s.horizon, 1.0, r)).collect();
    for (cl, a) in clients.iter_mut().zip(ctl.assigned_cycles()) {
        cl.plan_update(ctl.tau1(), a);
    }
    let mut t = 0.5;
    group.bench_with_input(BenchmarkId::new("observe", n), &n, |b, _| {
        b.iter(|| {
            t += 1e-6;
            for (i, cl) in clients.iter_mut().enumerate() {
                black_box(cl.observe(t, rates[i]));
            }
        })
    });

    // Unsuppressed streaming hot path, unchanged from the `online` bench:
    // a class-stable full-network batch must still cost zero planner
    // invocations and the same per-batch time as before the events path
    // existed (compare against online/ingest_stable in BENCH_online.json).
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

    // Suppressed-path server cost: an empty event batch (the clock tick a
    // fully suppressed slot leaves behind) must also stay planner-free.
    let mut tick = 2.0;
    ctl.ingest_events(&EventBatch::new(tick, vec![])).expect("empty tick ingests");
    assert_eq!(ctl.planner_calls(), before, "empty event tick must not invoke the planner");
    group.bench_with_input(BenchmarkId::new("ingest_events_empty", n), &n, |b, _| {
        b.iter(|| {
            tick += 1e-6;
            black_box(ctl.ingest_events(&EventBatch::new(tick, vec![])).expect("tick ingests"))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_client);
criterion_main!(benches);
