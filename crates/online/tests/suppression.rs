//! Controller-level suppression equivalence: a fleet of `SensorClient`s
//! feeding `ingest_events` must produce a byte-identical plan sequence to
//! full per-slot streaming into `ingest` — the state-reconstruction
//! invariant the edge-suppression subsystem rests on. (The serve layer
//! re-proves this end-to-end over HTTP in `suppression_prop.rs`; this test
//! pins the controller half in isolation with a deterministic drift trace.)

use std::collections::HashSet;

use perpetuum_client::SensorClient;
use perpetuum_core::network::Network;
use perpetuum_geom::Point2;
use perpetuum_online::{
    ClassEvent, EventBatch, OnlineConfig, OnlineController, OnlineError, TelemetryBatch,
    TelemetryRecord,
};

const EPS: f64 = 1e-9;
const HORIZON: f64 = 100.0;

/// 5 sensors on a line, one depot. Cycles 4, 5.5, 6.5, 13, 14 →
/// τ₁ = 4, classes [0, 0, 0, 1, 1].
fn world() -> (Network, Vec<f64>, Vec<f64>) {
    let sensors = vec![(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0), (40.0, 0.0)]
        .into_iter()
        .map(|(x, y)| Point2::new(x, y))
        .collect();
    let depots = vec![Point2::new(20.0, 30.0)];
    let network = Network::new(sensors, depots);
    let cycles = [4.0, 5.5, 6.5, 13.0, 14.0];
    let rates: Vec<f64> = cycles.iter().map(|c| 1.0 / c).collect();
    (network, vec![1.0; 5], rates)
}

fn controller(margin: f64) -> OnlineController {
    let (network, caps, rates) = world();
    let cfg = OnlineConfig::new(HORIZON).with_margin(margin);
    OnlineController::new(network, caps, rates, cfg).expect("valid controller")
}

/// Every `(time, sensor)` charge the current schedule implies — the
/// physical charger arrivals an edge sensor would witness.
fn schedule_charges(ctl: &OnlineController) -> Vec<(f64, usize)> {
    let mut out = Vec::new();
    for d in ctl.series().dispatches() {
        for &i in ctl.series().sets()[d.set].sensors() {
            out.push((d.time, i));
        }
    }
    out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    out
}

/// Apply all not-yet-applied charges with time ≤ `limit` to the clients.
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

fn refresh_plans(ctl: &OnlineController, clients: &mut [SensorClient]) {
    let tau1 = ctl.tau1();
    for (c, a) in clients.iter_mut().zip(ctl.assigned_cycles()) {
        c.plan_update(tau1, a);
    }
}

/// The deterministic drift trace: sensors 0–2 drain 1.5%/slot faster each
/// slot (eventually undercutting τ₁ → full replans → the sync protocol),
/// sensors 3–4 wobble ±1% (pure suppression fodder).
fn rate_at(base: &[f64], sensor: usize, slot: u32) -> f64 {
    if sensor < 3 {
        base[sensor] * 1.015f64.powi(slot as i32)
    } else if slot.is_multiple_of(2) {
        base[sensor] * 1.01
    } else {
        base[sensor] * 0.99
    }
}

#[test]
fn suppressed_events_match_streaming_byte_for_byte() {
    let margin = 0.1;
    let mut streaming = controller(margin);
    let mut suppressed = controller(margin);
    assert_eq!(streaming.plan_json(), suppressed.plan_json(), "identical seeds");

    let (_, caps, base_rates) = world();
    let mut clients: Vec<SensorClient> = base_rates
        .iter()
        .zip(&caps)
        .map(|(&r, &cap)| SensorClient::new(0.5, margin, HORIZON, cap, r))
        .collect();
    refresh_plans(&suppressed, &mut clients);

    let mut charges = schedule_charges(&suppressed);
    let mut applied = HashSet::new();
    // Construction may already have executed a repair dispatch at t = 0.
    apply_charges(&charges, &mut applied, &mut clients, EPS);

    let mut syncs = 0u32;
    for slot in 1..=60u32 {
        let t = f64::from(slot);
        apply_charges(&charges, &mut applied, &mut clients, t - EPS);

        // Sensors observe; most slots are suppressed client-side.
        let mut events = Vec::new();
        let mut rates = Vec::new();
        for (i, c) in clients.iter_mut().enumerate() {
            let rate = rate_at(&base_rates, i, slot);
            rates.push(rate);
            if let Some(s) = c.observe(t, rate) {
                events.push(ClassEvent::new(i, s.rho_hat, s.last_rate, s.level));
            }
        }

        // Streaming arm: the full per-slot batch.
        let records: Vec<TelemetryRecord> =
            rates.iter().enumerate().map(|(i, &r)| TelemetryRecord::rate(i, r)).collect();
        streaming.ingest(&TelemetryBatch { time: t, records }).expect("streaming ingest");

        // Suppressed arm: events only (an empty batch is a clock tick so
        // the two controllers stay comparable at every slot).
        let batch = EventBatch::new(t, events);
        match suppressed.ingest_events(&batch) {
            Ok(_) => {}
            Err(OnlineError::SyncRequired) => {
                syncs += 1;
                // Refusal must be mutation-free.
                assert_eq!(suppressed.now(), f64::from(slot - 1).max(0.0), "no clock advance");
                // Retry with the fleet-wide state snapshot.
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
                suppressed.ingest_events(&sync).expect("sync ingest");
            }
            Err(e) => panic!("unexpected ingest_events error: {e}"),
        }

        // Downlink: fresh plan + the (possibly revised) charge schedule.
        refresh_plans(&suppressed, &mut clients);
        charges = schedule_charges(&suppressed);
        apply_charges(&charges, &mut applied, &mut clients, t + EPS);

        assert_eq!(
            streaming.plan_json(),
            suppressed.plan_json(),
            "plan sequences diverged at slot {slot}"
        );
    }

    // The trace must actually exercise the machinery it claims to pin.
    assert!(syncs >= 1, "drift trace never hit the sync protocol");
    assert!(suppressed.full_replans() >= 2, "no drift-triggered full replan");
    let observed: u64 = clients.iter().map(|c| c.observed()).sum();
    let sent: u64 = clients.iter().map(|c| c.sent()).sum();
    assert!(sent * 2 < observed, "suppression too weak: {sent}/{observed} frames sent");
}

#[test]
fn sync_required_refusal_leaves_controller_untouched() {
    let mut ctl = controller(0.0);
    let rev = ctl.revision();
    let calls = ctl.planner_calls();
    // Sensor 0 doubles its rate: τ̂ = 2 < τ₁ = 4 → full tier → refusal.
    let batch = EventBatch::new(1.0, vec![ClassEvent::new(0, 0.5, 0.5, 0.9)]);
    assert_eq!(ctl.ingest_events(&batch).expect_err("needs sync"), OnlineError::SyncRequired);
    assert_eq!(ctl.revision(), rev, "refusal must not mutate the plan");
    assert_eq!(ctl.planner_calls(), calls);
    assert_eq!(ctl.now(), 0.0, "refusal must not advance the clock");
    // A time-0 batch still works: nothing was half-applied.
    ctl.ingest_events(&EventBatch::new(0.0, vec![])).expect("clock intact");
}

#[test]
fn sync_batch_must_cover_every_sensor() {
    let mut ctl = controller(0.0);
    let partial = EventBatch {
        time: 1.0,
        sync: true,
        events: vec![ClassEvent::new(0, 0.25, 0.25, 0.9)],
        observed: 0,
        sent: 0,
    };
    assert_eq!(
        ctl.ingest_events(&partial).expect_err("partial sync"),
        OnlineError::LengthMismatch { field: "sync_events", expected: 5, got: 1 }
    );
}

#[test]
fn event_validation_is_typed() {
    let mut ctl = controller(0.0);
    let bad = |e: ClassEvent| EventBatch::new(1.0, vec![e]);
    assert_eq!(
        ctl.ingest_events(&bad(ClassEvent::new(9, 0.1, 0.1, 0.5))).expect_err("sensor"),
        OnlineError::UnknownSensor { sensor: 9, n: 5 }
    );
    assert!(matches!(
        ctl.ingest_events(&bad(ClassEvent::new(0, f64::NAN, 0.1, 0.5))).expect_err("rho"),
        OnlineError::NonFinite { field: "rho_hat", .. }
    ));
    assert!(matches!(
        ctl.ingest_events(&bad(ClassEvent::new(0, 0.1, -0.1, 0.5))).expect_err("rate"),
        OnlineError::NotPositive { field: "last_rate", .. }
    ));
    assert!(matches!(
        ctl.ingest_events(&bad(ClassEvent::new(0, 0.1, 0.1, f64::INFINITY))).expect_err("level"),
        OnlineError::NonFinite { field: "level", .. }
    ));
    assert_eq!(ctl.now(), 0.0, "rejected batches leave the clock untouched");
}

#[test]
fn in_band_event_is_adopted_without_replanning() {
    let mut ctl = controller(0.0);
    let calls = ctl.planner_calls();
    let rev = ctl.revision();
    // Sensor 1 (τ 5.5, assigned 4): report a state with τ̂ = 5 — in band.
    let batch = EventBatch::new(1.0, vec![ClassEvent::new(1, 0.2, 0.2, 0.8)]);
    let report = ctl.ingest_events(&batch).expect("ingest");
    assert_eq!(report.class_changes, 0);
    assert_eq!(report.planner_calls, 0);
    assert_eq!(ctl.planner_calls(), calls);
    assert_eq!(ctl.revision(), rev);
    // The adopted state is visible: level estimate reflects the event.
    assert!((ctl.level_estimate(1) - 0.8).abs() < 1e-12);
}
