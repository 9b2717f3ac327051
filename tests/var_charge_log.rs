//! Committed `MinTotalDistance-var` regression:
//! `scenarios/regressions/var_charge_log.json`.
//!
//! Under instant charging the adaptive policy's *discrete* outcome — which
//! sensor is charged when, how many dispatches run, who dies, how often the
//! plan is replaced — depends only on class membership and the dispatch
//! grid, never on the shape of a tour. The fixture pins that outcome for
//! three variable-cycle worlds at n = 200 (the third with 5% measurement
//! noise), recorded before tour sets were materialised lazily, so any
//! change to when or how sets are spliced must reproduce it exactly. Only
//! the tour shapes may move, which the service-cost bound below limits.
//!
//! `cargo test --release --test var_charge_log -- --ignored --nocapture`
//! prints the current values in the fixture's format.

use perpetuum::sim::scenario::{realise_world, Scenario};
use perpetuum::sim::{run, SimConfig, SimResult, VarPolicy};
use serde_json::Value;

const MASTER_SEED: u64 = 2014;
const N: usize = 200;
/// `(topology index, measurement noise)` of each pinned world.
const WORLDS: [(u64, f64); 3] = [(0, 0.0), (1, 0.0), (2, 0.05)];
/// Service cost may rise at most this fraction above the recorded one.
const COST_SLACK: f64 = 0.01;

fn simulate(index: u64, noise: f64) -> SimResult {
    let scenario = Scenario { n: N, ..Scenario::paper_variable() };
    let parsed = realise_world(scenario, MASTER_SEED, index);
    let cfg = SimConfig {
        horizon: parsed.scenario.horizon,
        slot: parsed.scenario.slot,
        seed: parsed.topology.sim_seed,
        charger_speed: None,
    };
    let world = parsed.world.with_measurement_noise(noise);
    let mut policy = VarPolicy::new(&parsed.topology.network);
    let mut result = run(world, &cfg, &mut policy);
    result.replans = policy.replans();
    result
}

/// FNV-1a over a stream of 64-bit words, as a `0x`-prefixed hex string.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:#018x}")
}

/// Every charge as `(sensor, time bits)`, sensor by sensor, in log order.
fn charge_log_digest(r: &SimResult) -> String {
    fnv1a(
        r.charge_log
            .iter()
            .enumerate()
            .flat_map(|(s, log)| log.iter().flat_map(move |t| [s as u64, t.to_bits()])),
    )
}

fn deaths_digest(r: &SimResult) -> String {
    fnv1a(r.deaths.iter().flat_map(|d| [d.sensor as u64, d.time.to_bits()]))
}

fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Num(x)) => *x,
        other => panic!("fixture field {key}: {other:?}"),
    }
}

fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("fixture field {key}: {other:?}"),
    }
}

#[test]
fn var_policy_reproduces_the_recorded_charge_logs() {
    let fixture =
        serde_json::parse_value(include_str!("../scenarios/regressions/var_charge_log.json"))
            .expect("fixture parses");
    assert_eq!(num(&fixture, "master_seed"), MASTER_SEED as f64);
    assert_eq!(num(&fixture, "n"), N as f64);
    let Some(Value::Arr(worlds)) = fixture.get("worlds") else { panic!("no worlds") };
    assert_eq!(worlds.len(), WORLDS.len());
    for (w, &(index, noise)) in worlds.iter().zip(&WORLDS) {
        assert_eq!(num(w, "index"), index as f64);
        assert_eq!(num(w, "noise"), noise);
        let r = simulate(index, noise);
        let tag = format!("world {index} (noise {noise})");
        assert_eq!(charge_log_digest(&r), text(w, "charge_log_fnv1a"), "{tag}: charge_log");
        assert_eq!(r.charges as f64, num(w, "charges"), "{tag}: charges");
        assert_eq!(r.dispatches as f64, num(w, "dispatches"), "{tag}: dispatches");
        assert_eq!(r.deaths.len() as f64, num(w, "deaths"), "{tag}: deaths");
        assert_eq!(deaths_digest(&r), text(w, "deaths_fnv1a"), "{tag}: deaths");
        assert_eq!(r.replans as f64, num(w, "replans"), "{tag}: replans");
        let recorded = num(w, "service_cost");
        assert!(
            r.service_cost <= recorded * (1.0 + COST_SLACK),
            "{tag}: service cost {} vs recorded {recorded}",
            r.service_cost
        );
    }
}

#[test]
#[ignore = "prints the fixture's values for the current code"]
fn print_fixture() {
    let worlds: Vec<String> = WORLDS
        .iter()
        .map(|&(index, noise)| {
            let r = simulate(index, noise);
            format!(
                "    {{\"index\": {index}, \"noise\": {noise:?}, \"charges\": {}, \
                 \"dispatches\": {}, \"deaths\": {}, \"replans\": {}, \
                 \"charge_log_fnv1a\": \"{}\", \"deaths_fnv1a\": \"{}\", \
                 \"service_cost\": {:?}}}",
                r.charges,
                r.dispatches,
                r.deaths.len(),
                r.replans,
                charge_log_digest(&r),
                deaths_digest(&r),
                r.service_cost
            )
        })
        .collect();
    println!(
        "{{\n  \"master_seed\": {MASTER_SEED},\n  \"n\": {N},\n  \"worlds\": [\n{}\n  ]\n}}",
        worlds.join(",\n")
    );
}
