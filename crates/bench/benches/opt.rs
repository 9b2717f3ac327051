//! Anytime refinement vs the Algorithm-2 constructive baseline.
//!
//! The numbers behind `BENCH_opt.json` and the README refinement table.
//! For each Section VII network size the setup plans constructively
//! (`plan_min_total_distance`, the 2-approximation), refines under a
//! sweep of step budgets, and *asserts* the tentpole claims before any
//! timing runs — so regenerating the file re-proves them instead of
//! silently shipping stale numbers:
//!
//! * refined service cost ≤ constructive at **every** budget (zero
//!   budget is an exact copy), and monotone non-increasing in budget;
//! * strict improvement of at least 5% at the reference budget;
//! * byte-identical refined schedules across repeated runs with the
//!   same seed (serde-serialized and compared).
//!
//! The achieved improvement percentage at the reference budget is baked
//! into each benchmark id (`refine/imp_12.3pct/200`), so the committed
//! JSON records the outcome comparison alongside the timings.
//!
//! `plan_cold_{off,background}/200` times the serve `/plan` handler
//! in-process with distinct scenarios per request. Background mode must
//! not block the hot path: it renders and caches the constructive plan,
//! then only *enqueues* a refinement job — the setup asserts its median
//! cold-plan latency stays within 2× of `refine=off`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::network::Instance;
use perpetuum_core::refine::{refine, Budget};
use perpetuum_core::schedule::ScheduleSeries;
use perpetuum_serve::handlers;
use perpetuum_serve::AppState;
use perpetuum_sim::scenario::Scenario;
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Section VII network sizes exercised by the refinement grid.
const SIZES: [usize; 3] = [50, 100, 200];
/// Step budgets swept per size (0 is prepended as the exact-copy floor).
const BUDGETS: [u64; 3] = [50_000, 150_000, 400_000];
/// The budget at which the ≥5% improvement claim is asserted.
const REFERENCE_BUDGET: u64 = 400_000;
/// Refinement seed shared by every run (determinism is asserted on it).
const SEED: u64 = 7;

fn section7_instance(n: usize) -> Instance {
    let s = Scenario { n, ..Scenario::paper_fixed() };
    let topo = s.build_topology(42, 0);
    Instance::new(topo.network, topo.init_cycles, s.horizon)
}

/// Refined cost at each budget, asserting the anytime contract.
fn refinement_curve(instance: &Instance, plan: &ScheduleSeries) -> Vec<(u64, f64)> {
    let constructive = plan.service_cost();
    let mut curve = vec![(0u64, constructive)];
    let (copy, zero) = refine(instance.network(), plan, &Budget::steps(0), SEED);
    assert_eq!(zero.refined_cost, constructive, "zero budget must be an exact copy");
    assert_eq!(
        serde_json::to_string(&copy).expect("serialize"),
        serde_json::to_string(plan).expect("serialize"),
        "zero-budget refinement must not rewrite the schedule"
    );
    for &steps in &BUDGETS {
        let (_, report) = refine(instance.network(), plan, &Budget::steps(steps), SEED);
        assert!(
            report.refined_cost <= constructive + 1e-9,
            "refined ({}) must never exceed constructive ({constructive}) at {steps} steps",
            report.refined_cost
        );
        let (_, prev) = curve[curve.len() - 1];
        assert!(
            report.refined_cost <= prev + 1e-9,
            "cost must be monotone in budget: {} steps gave {}, smaller budget gave {prev}",
            steps,
            report.refined_cost
        );
        curve.push((steps, report.refined_cost));
    }
    curve
}

fn plan_body(n: usize, index: u64, refine_mode: Option<&str>) -> String {
    let knob = refine_mode.map(|m| format!(r#", "refine": "{m}""#)).unwrap_or_default();
    format!(
        r#"{{"scenario": {{
            "field_size": 1000.0, "n": {n}, "q": 5,
            "tau_min": 1.0, "tau_max": 50.0,
            "dist": {{ "Linear": {{ "sigma": 2.0 }} }},
            "horizon": 1000.0, "slot": 10.0,
            "variable": false, "deployment": "Uniform"
        }}, "seed": 42, "index": {index}, "sparse": false{knob}}}"#
    )
}

/// Median wall time of `reps` cold `/plan` requests in the given mode.
fn median_cold_plan(state: &AppState, n: usize, mode: Option<&str>, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|i| {
            let body = plan_body(n, 1_000 + i as u64, mode);
            let t = Instant::now();
            let resp = handlers::plan(state, body.as_bytes());
            assert_eq!(resp.status, 200, "cold plan must succeed");
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn bench_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt");
    group.sample_size(10);

    for &n in &SIZES {
        let instance = section7_instance(n);
        let plan = plan_min_total_distance(&instance, &MtdConfig::default());
        let curve = refinement_curve(&instance, &plan);
        let constructive = curve[0].1;
        let at_reference = curve
            .iter()
            .find(|(b, _)| *b == REFERENCE_BUDGET)
            .expect("reference budget is in the sweep")
            .1;
        let improvement = 1.0 - at_reference / constructive;
        assert!(
            improvement >= 0.05,
            "reference budget must cut ≥5% of the constructive cost at n={n}, got {:.2}%",
            improvement * 100.0
        );

        // Determinism: the refined schedule is byte-identical across runs.
        let budget = Budget::steps(REFERENCE_BUDGET);
        let (first, _) = refine(instance.network(), &plan, &budget, SEED);
        let (second, _) = refine(instance.network(), &plan, &budget, SEED);
        assert_eq!(
            serde_json::to_string(&first).expect("serialize"),
            serde_json::to_string(&second).expect("serialize"),
            "same seed and budget must reproduce the schedule byte-for-byte at n={n}"
        );

        group.bench_with_input(BenchmarkId::new("constructive", n), &n, |b, _| {
            b.iter(|| black_box(plan_min_total_distance(&instance, &MtdConfig::default())))
        });
        group.bench_with_input(
            BenchmarkId::new(format!("refine/imp_{:.1}pct", improvement * 100.0), n),
            &n,
            |b, _| b.iter(|| black_box(refine(instance.network(), &plan, &budget, SEED))),
        );
    }

    // Hot-path guard: background mode only enqueues after responding, so
    // a cold `/plan` must cost about the same as with refinement off.
    let n = *SIZES.last().expect("non-empty grid");
    let state = AppState::new(4096);
    let off = median_cold_plan(&state, n, None, 9);
    let background = median_cold_plan(&state, n, Some("background"), 9);
    assert!(
        background <= off * 2.0,
        "background refine must not block the /plan hot path: \
         median {background:.4}s vs off {off:.4}s"
    );

    let index = Cell::new(10_000u64);
    group.bench_with_input(BenchmarkId::new("plan_cold_off", n), &n, |b, _| {
        b.iter(|| {
            index.set(index.get() + 1);
            let body = plan_body(n, index.get(), None);
            black_box(handlers::plan(&state, body.as_bytes()))
        })
    });
    group.bench_with_input(BenchmarkId::new("plan_cold_background", n), &n, |b, _| {
        b.iter(|| {
            index.set(index.get() + 1);
            let body = plan_body(n, index.get(), Some("background"));
            black_box(handlers::plan(&state, body.as_bytes()))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_opt);
criterion_main!(benches);
