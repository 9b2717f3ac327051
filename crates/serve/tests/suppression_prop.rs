//! End-to-end suppression equivalence over the HTTP handlers: a fleet of
//! `SensorClient`s posting suppressed event batches to
//! `POST /session/{id}/events` — as JSON *and* as binary PBT1 frames —
//! must leave the session's plan byte-identical, at every slot, to a
//! twin session fed the full per-slot telemetry stream. Random drift
//! traces exercise suppression, in-band adoption, the `409
//! sync_required` refusal, and the sync retry on both encodings.

use std::collections::HashSet;

use perpetuum_client::SensorClient;
use perpetuum_online::{
    ClassEvent, ControllerSeed, EventBatch, OnlineConfig, OnlineController, TelemetryBatch,
    TelemetryRecord,
};
use perpetuum_serve::handlers::{session_events, session_plan, session_telemetry};
use perpetuum_serve::http::Request;
use perpetuum_serve::wire::{self, Frame};
use perpetuum_serve::AppState;
use proptest::prelude::*;

const EPS: f64 = 1e-9;
const HORIZON: f64 = 100.0;
const MARGIN: f64 = 0.1;
const GAMMA: f64 = 0.5;
const N: usize = 5;

/// Base consumption cycles of the 5-sensor line world (τ₁ = 4).
const CYCLES: [f64; 5] = [4.0, 5.5, 6.5, 13.0, 14.0];

fn seed() -> ControllerSeed {
    ControllerSeed {
        sensors: vec![(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0), (40.0, 0.0)],
        depots: vec![(20.0, 30.0)],
        capacities: vec![1.0; N],
        initial_rates: CYCLES.iter().map(|c| 1.0 / c).collect(),
        config: OnlineConfig::new(HORIZON).with_gamma(GAMMA).with_margin(MARGIN),
    }
}

/// A fresh state holding one session built from [`seed`]. Sessions built
/// this way are identical across states, so their plan streams are
/// comparable byte-for-byte.
fn fresh_state() -> (AppState, u64) {
    let state = AppState::new(4);
    let controller = seed().build().expect("valid seed");
    let id = state.sessions.allocate_id();
    assert!(state.sessions.insert_with_id(id, controller).is_none(), "empty store");
    (state, id)
}

fn with_controller<T>(state: &AppState, id: u64, f: impl FnOnce(&OnlineController) -> T) -> T {
    let slot = state.sessions.get(id).expect("live session");
    let guard = slot.lock().expect("unpoisoned");
    f(&guard)
}

/// Every `(time, sensor)` charge the session's current schedule implies.
fn schedule_charges(state: &AppState, id: u64) -> Vec<(f64, usize)> {
    with_controller(state, id, |ctl| {
        let mut out = Vec::new();
        for d in ctl.series().dispatches() {
            for &i in ctl.series().sets()[d.set].sensors() {
                out.push((d.time, i));
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    })
}

fn apply_charges(
    charges: &[(f64, usize)],
    applied: &mut HashSet<(u64, usize)>,
    clients: &mut [SensorClient],
    limit: f64,
) {
    for &(time, i) in charges {
        if time <= limit && applied.insert((time.to_bits(), i)) {
            clients[i].recharged(time);
        }
    }
}

fn refresh_plans(state: &AppState, id: u64, clients: &mut [SensorClient]) {
    with_controller(state, id, |ctl| {
        let tau1 = ctl.tau1();
        for (c, a) in clients.iter_mut().zip(ctl.assigned_cycles()) {
            c.plan_update(tau1, a);
        }
    });
}

fn plan_bytes(state: &AppState, id: u64) -> Vec<u8> {
    let req = Request::new("GET", format!("/session/{id}/plan"), Vec::new());
    let resp = session_plan(state, id, &req);
    assert_eq!(resp.status, 200);
    resp.body
}

/// Posts one event batch as a JSON body.
fn post_events_json(state: &AppState, id: u64, batch: &EventBatch) -> u16 {
    let body = serde_json::to_string(batch).expect("event batch json");
    let req = Request::new("POST", format!("/session/{id}/events"), body.into_bytes());
    session_events(state, id, &req).status
}

/// Posts one event batch as a binary PBT1 events frame.
fn post_events_binary(state: &AppState, id: u64, batch: &EventBatch) -> u16 {
    let body = wire::encode_frames(&[Frame::events(id, batch.clone())]);
    let mut req = Request::new("POST", format!("/session/{id}/events"), body);
    req.content_type = Some(wire::CONTENT_TYPE.to_string());
    session_events(state, id, &req).status
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline acceptance property: for random per-sensor drift
    /// traces, the suppressed JSON path, the suppressed binary path and
    /// the full streaming path produce byte-identical plan sequences.
    #[test]
    fn suppressed_http_paths_match_streaming_byte_for_byte(
        drifts in prop::collection::vec(0.995f64..1.03, N),
        slots in 20u32..36,
    ) {
        let (streaming, id_s) = fresh_state();
        let (via_json, id_j) = fresh_state();
        let (via_binary, id_b) = fresh_state();
        prop_assert_eq!(plan_bytes(&streaming, id_s), plan_bytes(&via_json, id_j));
        prop_assert_eq!(plan_bytes(&streaming, id_s), plan_bytes(&via_binary, id_b));

        let base: Vec<f64> = CYCLES.iter().map(|c| 1.0 / c).collect();
        // One client fleet mirrors both suppressed sessions: the two see
        // identical batches, so their controllers stay in lockstep.
        let mut clients: Vec<SensorClient> =
            base.iter().map(|&r| SensorClient::new(GAMMA, MARGIN, HORIZON, 1.0, r)).collect();
        refresh_plans(&via_binary, id_b, &mut clients);
        let mut charges = schedule_charges(&via_binary, id_b);
        let mut applied = HashSet::new();
        apply_charges(&charges, &mut applied, &mut clients, EPS);

        for slot in 1..=slots {
            let t = f64::from(slot);
            apply_charges(&charges, &mut applied, &mut clients, t - EPS);

            let mut events = Vec::new();
            let mut rates = Vec::new();
            for (i, c) in clients.iter_mut().enumerate() {
                let rate = base[i] * drifts[i].powi(slot as i32);
                rates.push(rate);
                if let Some(s) = c.observe(t, rate) {
                    events.push(ClassEvent::new(i, s.rho_hat, s.last_rate, s.level));
                }
            }

            // Streaming arm: the full per-slot batch over JSON.
            let full = TelemetryBatch {
                time: t,
                records: rates.iter().enumerate().map(|(i, &r)| TelemetryRecord::rate(i, r)).collect(),
            };
            let body = serde_json::to_string(&full).expect("batch json");
            prop_assert_eq!(session_telemetry(&streaming, id_s, body.as_bytes()).status, 200);

            // Suppressed arms: the same event batch via both encodings.
            let batch = EventBatch::new(t, events);
            let sj = post_events_json(&via_json, id_j, &batch);
            let sb = post_events_binary(&via_binary, id_b, &batch);
            prop_assert_eq!(sj, sb, "JSON and binary must agree on acceptance at slot {}", slot);
            if sj == 409 {
                // Full replan demanded: retry with the fleet-wide sync
                // batch on both paths.
                let all: Vec<ClassEvent> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(i, c)| {
                        let s = c.state();
                        if !batch.events.iter().any(|e| e.sensor == i) {
                            c.record_sync();
                        }
                        ClassEvent::new(i, s.rho_hat, s.last_rate, s.level)
                    })
                    .collect();
                let sync =
                    EventBatch { time: t, sync: true, events: all, observed: 0, sent: 0 };
                prop_assert_eq!(post_events_json(&via_json, id_j, &sync), 200);
                prop_assert_eq!(post_events_binary(&via_binary, id_b, &sync), 200);
            } else {
                prop_assert_eq!(sj, 200, "unexpected status at slot {}", slot);
            }

            // Downlink: fresh plan + revised charge schedule.
            refresh_plans(&via_binary, id_b, &mut clients);
            charges = schedule_charges(&via_binary, id_b);
            apply_charges(&charges, &mut applied, &mut clients, t + EPS);

            let want = plan_bytes(&streaming, id_s);
            prop_assert_eq!(&want, &plan_bytes(&via_json, id_j), "JSON diverged at slot {}", slot);
            prop_assert_eq!(&want, &plan_bytes(&via_binary, id_b), "binary diverged at slot {}", slot);
        }

        let observed: u64 = clients.iter().map(|c| c.observed()).sum();
        let sent: u64 = clients.iter().map(|c| c.sent()).sum();
        prop_assert!(sent <= observed);
    }
}

/// Deterministic strong-drift run: proves the HTTP property is not
/// vacuous (the 409 path and real suppression both fire) and pins the
/// suppression metrics the daemon exports.
#[test]
fn strong_drift_exercises_sync_and_metrics() {
    let (streaming, id_s) = fresh_state();
    let (via_json, id_j) = fresh_state();
    let (via_binary, id_b) = fresh_state();

    let base: Vec<f64> = CYCLES.iter().map(|c| 1.0 / c).collect();
    let mut clients: Vec<SensorClient> =
        base.iter().map(|&r| SensorClient::new(GAMMA, MARGIN, HORIZON, 1.0, r)).collect();
    refresh_plans(&via_binary, id_b, &mut clients);
    let mut charges = schedule_charges(&via_binary, id_b);
    let mut applied = HashSet::new();
    apply_charges(&charges, &mut applied, &mut clients, EPS);

    let mut syncs = 0u32;
    for slot in 1..=60u32 {
        let t = f64::from(slot);
        apply_charges(&charges, &mut applied, &mut clients, t - EPS);
        let mut events = Vec::new();
        let mut rates = Vec::new();
        for (i, c) in clients.iter_mut().enumerate() {
            // Sensors 0–2 drift 1.5%/slot; 3–4 wobble ±1%.
            let rate = if i < 3 {
                base[i] * 1.015f64.powi(slot as i32)
            } else if slot % 2 == 0 {
                base[i] * 1.01
            } else {
                base[i] * 0.99
            };
            rates.push(rate);
            if let Some(s) = c.observe(t, rate) {
                events.push(ClassEvent::new(i, s.rho_hat, s.last_rate, s.level));
            }
        }
        let full = TelemetryBatch {
            time: t,
            records: rates.iter().enumerate().map(|(i, &r)| TelemetryRecord::rate(i, r)).collect(),
        };
        let body = serde_json::to_string(&full).expect("batch json");
        assert_eq!(session_telemetry(&streaming, id_s, body.as_bytes()).status, 200);

        // Delta counters since the last accepted batch feed the metrics.
        let observed: u64 = clients.iter().map(|c| c.observed()).sum();
        let sent: u64 = clients.iter().map(|c| c.sent()).sum();
        let batch = EventBatch { observed, sent, ..EventBatch::new(t, events) };
        let sj = post_events_json(&via_json, id_j, &batch);
        assert_eq!(sj, post_events_binary(&via_binary, id_b, &batch));
        if sj == 409 {
            syncs += 1;
            let all: Vec<ClassEvent> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    let s = c.state();
                    if !batch.events.iter().any(|e| e.sensor == i) {
                        c.record_sync();
                    }
                    ClassEvent::new(i, s.rho_hat, s.last_rate, s.level)
                })
                .collect();
            let sync = EventBatch { time: t, sync: true, events: all, observed: 0, sent: 0 };
            assert_eq!(post_events_json(&via_json, id_j, &sync), 200);
            assert_eq!(post_events_binary(&via_binary, id_b, &sync), 200);
        } else {
            assert_eq!(sj, 200, "slot {slot}");
        }
        refresh_plans(&via_binary, id_b, &mut clients);
        charges = schedule_charges(&via_binary, id_b);
        apply_charges(&charges, &mut applied, &mut clients, t + EPS);

        let want = plan_bytes(&streaming, id_s);
        assert_eq!(want, plan_bytes(&via_json, id_j), "JSON diverged at slot {slot}");
        assert_eq!(want, plan_bytes(&via_binary, id_b), "binary diverged at slot {slot}");
    }
    assert!(syncs >= 1, "drift trace never hit the 409 sync protocol");
    let observed: u64 = clients.iter().map(|c| c.observed()).sum();
    let sent: u64 = clients.iter().map(|c| c.sent()).sum();
    assert!(sent * 2 < observed, "suppression too weak: {sent}/{observed}");

    // The suppression metrics the daemon scrapes from these ingests.
    use std::sync::atomic::Ordering::Relaxed;
    assert!(via_json.metrics.events_ingested.load(Relaxed) >= 60);
    let text = via_json.metrics.render(0, 1, &[1]);
    assert!(text.contains("perpetuum_events_ingested_total"), "{text}");
    let ratio_line = text
        .lines()
        .find(|l| l.starts_with("perpetuum_frames_suppressed_ratio"))
        .expect("suppressed-ratio gauge rendered");
    let ratio: f64 = ratio_line.split_whitespace().nth(1).expect("value").parse().expect("f64");
    assert!(ratio > 0.5, "suppressed ratio {ratio} should reflect strong suppression");
}
