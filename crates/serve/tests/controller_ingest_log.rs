//! Committed controller regression:
//! `scenarios/regressions/controller_ingest_log.json`.
//!
//! Eight sessions, built the way `POST /session` builds them, on
//! paper-fixed n = 200 worlds take 225 slots of `serve_mix`-shaped
//! telemetry: each frame carries an 8-sensor rotating window of rate
//! samples, a quarter of the sessions have 30% of their sensors drift +1%
//! per slot (capped at +50%) while every other sensor wobbles up to 0.4%
//! below its base rate. Now and then a record reports a nearly empty
//! battery, so the emergency tier fires, or a rate whose cycle undercuts
//! `τ₁`, so a full replan runs. The fixture holds every
//! `IngestReport` and an FNV-1a digest of each session's final
//! `plan_json`; any change to the controller must reproduce it byte for
//! byte.
//!
//! `cargo test --release -p perpetuum-serve --test controller_ingest_log -- --ignored --nocapture`
//! prints the current values in the fixture's format.

use perpetuum_online::{
    ControllerSeed, IngestReport, OnlineConfig, TelemetryBatch, TelemetryRecord,
};
use perpetuum_sim::scenario::{realise_world, Scenario};

const FIXTURE: &str = include_str!("../../../scenarios/regressions/controller_ingest_log.json");
const MASTER_SEED: u64 = 2014;
const N: usize = 200;
const SESSIONS: usize = 8;
const SLOTS: usize = 225;
/// Rate records per frame, a rotating window of sensors.
const RECORDS: usize = 8;
/// Sessions `idx % DRIFT_MOD == 1` drift.
const DRIFT_MOD: usize = 4;
/// Share of a drifting session's sensors that drift.
const DRIFT_SENSORS: f64 = 0.3;
const DRIFT_PER_SLOT: f64 = 1.01;
const DRIFT_CAP: f64 = 1.5;
const WOBBLE: f64 = 0.004;
/// Every this many slots (offset by the session index) the frame's first
/// record also reports this share of the battery left.
const LOW_EVERY: usize = 29;
const LOW_LEVEL: f64 = 0.02;
/// Every this many slots (offset by the session index) the frame's last
/// record reports a rate whose cycle is half the current `τ₁`.
const SPIKE_EVERY: usize = 53;

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform value in `[0, 1)` drawn from `(a, b, c)`.
fn unit(a: u64, b: u64, c: u64) -> f64 {
    (mix(mix(mix(a) ^ b) ^ c) >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over bytes, as a `0x`-prefixed hex string.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:#018x}")
}

/// The telemetry frame session `idx` sends in `slot`, given its sensors'
/// capacities and base rates and the session's current `τ₁`.
fn frame(idx: usize, slot: usize, capacities: &[f64], base: &[f64], tau1: f64) -> TelemetryBatch {
    let records = (0..RECORDS)
        .map(|m| {
            let j = (slot * RECORDS + m) % N;
            let drifts =
                idx % DRIFT_MOD == 1 && unit(MASTER_SEED, idx as u64, j as u64) < DRIFT_SENSORS;
            let rate = if drifts {
                base[j] * DRIFT_PER_SLOT.powi(slot as i32).min(DRIFT_CAP)
            } else {
                let wobble = unit(MASTER_SEED ^ 0xA5A5, (idx * N + j) as u64, slot as u64);
                base[j] * (1.0 - WOBBLE * wobble)
            };
            if m == 0 && (slot + idx).is_multiple_of(LOW_EVERY) {
                TelemetryRecord::full(j, rate, LOW_LEVEL * capacities[j])
            } else if m == RECORDS - 1 && (slot + idx).is_multiple_of(SPIKE_EVERY) {
                TelemetryRecord::rate(j, 2.0 * capacities[j] / tau1)
            } else {
                TelemetryRecord::rate(j, rate)
            }
        })
        .collect();
    TelemetryBatch { time: slot as f64, records }
}

/// One report as a compact JSON row:
/// `[revision, time, replan, class_changes, emergency_sensors, planner_calls]`.
fn row(r: &IngestReport) -> String {
    format!(
        "[{}, {:?}, \"{}\", {}, {}, {}]",
        r.revision,
        r.time,
        r.replan.as_str(),
        r.class_changes,
        r.emergency_sensors,
        r.planner_calls
    )
}

/// Runs session `idx` through every slot and renders its fixture entry.
fn session_entry(idx: usize) -> String {
    let scenario = Scenario { n: N, ..Scenario::paper_fixed() };
    let parsed = realise_world(scenario, MASTER_SEED, idx as u64);
    let capacities = parsed.world.capacities();
    let base: Vec<f64> =
        capacities.iter().zip(&parsed.topology.init_cycles).map(|(&c, &t)| c / t).collect();
    let cfg = OnlineConfig::new(parsed.scenario.horizon);
    let seed = ControllerSeed::new(&parsed.topology.network, capacities.clone(), base.clone(), cfg);
    let mut ctl = seed.build().expect("valid session");
    let rows: Vec<String> = (1..=SLOTS)
        .map(|slot| {
            let batch = frame(idx, slot, &capacities, &base, ctl.tau1());
            let report = ctl.ingest(&batch).expect("ingest");
            format!("        {}", row(&report))
        })
        .collect();
    format!(
        "    {{\"index\": {idx}, \"plan_json_fnv1a\": \"{}\", \"reports\": [\n{}\n    ]}}",
        fnv1a(ctl.plan_json().as_bytes()),
        rows.join(",\n")
    )
}

fn render() -> String {
    let entries: Vec<String> = (0..SESSIONS).map(session_entry).collect();
    format!(
        "{{\n  \"about\": \"OnlineController ingest reports ([revision, time, replan, \
         class_changes, emergency_sensors, planner_calls] per frame) and final plan_json \
         FNV-1a digests of {SESSIONS} sessions on Scenario::paper_fixed() worlds, n = {N}, \
         master seed {MASTER_SEED}, {SLOTS} slots of serve_mix-shaped telemetry with level \
         drops and rate spikes. Checked by crates/serve/tests/controller_ingest_log.rs.\",\n  \
         \"sessions\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    )
}

#[test]
fn controller_reproduces_the_recorded_ingest_log() {
    let current = render();
    for (line, (want, got)) in FIXTURE.lines().zip(current.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {} differs", line + 1);
    }
    assert_eq!(current, FIXTURE, "fixture length differs");
}

#[test]
#[ignore = "prints the fixture for the current code"]
fn print_fixture() {
    print!("{}", render());
}
