//! `serve_mix`: sensors report on a clock whether or not the daemon keeps
//! up. About a thousand live sessions (n = 200 Section VII topologies)
//! run with the journal on at the default fsync policy. An open loop at a
//! fixed slot rate sends one frame per session per slot — most as binary
//! `POST /telemetry/batch`, a stated share as JSON
//! `POST /session/{id}/telemetry` and another as suppressed
//! `POST /session/{id}/events` built by `SensorClient`s — beside reads of
//! session plans and of a primed `/plan` pool. A closed-loop saturation
//! phase with two clients then measures frames per second and the batch
//! latency the end-to-end metrics report; the open-loop latencies, timed
//! from each request's due time, vary too much between runs on a small
//! machine to carry a bound and are reported per layer.

use crate::gen::{self, number_after, result_part, unit};
use crate::http::{self, Reply};
use crate::ledger::{expect_ok, expect_status, Checked, Failure};
use crate::trace::Tracer;
use crate::{daemon, finish_trace, launch_with, stats, Ctx, Measured};
use perpetuum_client::SensorClient;
use perpetuum_exp::scenario::{realise_world, Scenario};
use perpetuum_online::{
    ClassEvent, EventBatch, OnlineConfig, ReplanKind, TelemetryBatch, TelemetryRecord,
};
use perpetuum_serve::http::Request;
use perpetuum_serve::wire::{self, Frame, FrameOutcome, PlanWire};
use perpetuum_serve::{canonical_hash, handlers, AppState, FsyncPolicy, JournalSet, PlanCache};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::sleep;
use std::time::{Duration, Instant};

const N: usize = 200;
const SESSIONS: usize = 1000;
const THREADS: usize = 2;
/// Wall-clock length of one telemetry slot in the open loop.
const SLOT: Duration = Duration::from_millis(200);
/// Session-clock time one slot advances.
const SLOT_DT: f64 = 1.0;
/// Frames per binary batch request.
const BATCH_FRAMES: usize = 16;
/// Rate records per telemetry frame (a rotating window of sensors).
const RECORDS: usize = 8;
/// Sessions `idx % SHARE_MOD == 1` report as JSON, `== 2` as events: 2%
/// each; the rest go in binary batches.
const SHARE_MOD: usize = 50;
/// Session-plan reads and `/plan` cache-hit reads per thread per slot.
const READS: usize = 2;
/// Distinct primed `/plan` requests the cache-hit reads repeat.
const POOL: usize = 8;
/// Sessions whose initial plan cost is reported.
const COST_SESSIONS: usize = 32;
/// Share of `--seconds` spent in the open loop.
const OPEN_SHARE: f64 = 0.75;
/// Slots of the closed-loop saturation phase that follows it.
const SAT_SLOTS: usize = 150;
/// Tail percentile of the saturation-phase batch latency (about 9000
/// samples, so about 90 lie beyond it).
const TAIL_P: f64 = 99.0;
/// Tail percentile of the open-loop batch writes (about 4500 samples).
/// Not the highest one with ten samples beyond it: their p99 swings
/// between about 5 and 20 ms from run to run.
const OPEN_TAIL_P: f64 = 95.0;
/// Share of sessions whose sensors drift, and of their sensors that do.
const DRIFT_SESSIONS: f64 = 0.2;
const DRIFT_SENSORS: f64 = 0.3;
/// Drift: +1% consumption per slot, capped at +50%.
const DRIFT_PER_SLOT: f64 = 1.01;
const DRIFT_CAP: f64 = 1.5;
/// Steady sensors wobble below their base rate by up to this share.
const WOBBLE: f64 = 0.004;
/// The run is invalid when the generator ends further behind than this.
const MAX_BACKLOG_MS: f64 = 500.0;
/// Thread 0 samples `/metrics` every this many slots.
const METRICS_EVERY: usize = 10;
/// Sessions and slots the traced replay re-applies in-process.
const REPLAY_SESSIONS: usize = 64;
const REPLAY_SLOTS: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Batch,
    Json,
    Events,
}

fn kind_of(idx: usize) -> Kind {
    match idx % SHARE_MOD {
        1 => Kind::Json,
        2 => Kind::Events,
        _ => Kind::Batch,
    }
}

/// Consumption rate of sensor `j` of session `idx` in `slot`.
fn rate(seed: u64, idx: usize, j: usize, slot: usize, base: f64) -> f64 {
    let drifts = unit(seed, idx as u64, u64::MAX) < DRIFT_SESSIONS
        && unit(seed, idx as u64, j as u64) < DRIFT_SENSORS;
    if drifts {
        base * DRIFT_PER_SLOT.powi(slot as i32).min(DRIFT_CAP)
    } else {
        base * (1.0 - WOBBLE * unit(seed ^ 0xA5A5, (idx * N + j) as u64, slot as u64))
    }
}

/// The telemetry frame session `idx` sends in `slot`.
fn telemetry(seed: u64, idx: usize, base: &[f64], slot: usize) -> TelemetryBatch {
    let records = (0..RECORDS)
        .map(|m| {
            let j = (slot * RECORDS + m) % N;
            TelemetryRecord::rate(j, rate(seed, idx, j, slot, base[j]))
        })
        .collect();
    TelemetryBatch { time: slot as f64 * SLOT_DT, records }
}

fn session_body(scenario: &str, seed: u64, idx: usize) -> String {
    gen::body(scenario, seed, idx as u64, "")
}

fn pool_body(scenario: &str, seed: u64, p: usize) -> String {
    gen::body(scenario, seed ^ 0x5EED, p as u64, "")
}

/// One session as the generator tracks it.
struct Owned {
    idx: usize,
    id: u64,
    kind: Kind,
    base: Vec<f64>,
    /// Highest plan revision seen; revisions must never go backwards.
    revision: u64,
    /// Revision the edge clients' plan copy comes from.
    plan_revision: u64,
    /// Events sessions: one client per sensor, and its last mirrored charge.
    clients: Vec<SensorClient>,
    last_charge: Vec<f64>,
    assigned: Vec<f64>,
    counted: (u64, u64),
}

impl Owned {
    fn adopt(&mut self, plan: &PlanWire) {
        self.plan_revision = plan.revision;
        self.revision = self.revision.max(plan.revision);
        self.assigned.clone_from(&plan.assigned);
        for (c, &a) in self.clients.iter_mut().zip(&plan.assigned) {
            c.plan_update(plan.tau1, a);
        }
    }
}

/// What set-up leaves behind: session ids by index, initial plans of the
/// sessions that need one, and the primed `/plan` pool's result bytes.
struct Prepared {
    ids: Vec<u64>,
    plans: Vec<Option<PlanWire>>,
    pool: Vec<(String, Vec<u8>)>,
}

fn needs_plan(idx: usize) -> bool {
    idx < COST_SESSIONS || kind_of(idx) == Kind::Events
}

fn get_plan(addr: SocketAddr, id: u64) -> Checked<PlanWire> {
    let reply =
        expect_ok(http::get(addr, &format!("/session/{id}/plan"), Some(wire::CONTENT_TYPE)))?;
    PlanWire::decode(&reply.body).map_err(|e| Failure::wrong(format!("session {id} plan: {e}")))
}

fn prepare(ctx: &Ctx, d: &daemon::Daemon, scenario: &str, seed: u64) -> Result<Prepared, String> {
    let addr = d.addr;
    let mut ids = vec![0u64; SESSIONS];
    let mut plans: Vec<Option<PlanWire>> = (0..SESSIONS).map(|_| None).collect();
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for idx in (t..SESSIONS).step_by(THREADS) {
                        let body = session_body(scenario, seed, idx);
                        let outcome = expect_ok(http::post_json(addr, "/session", body.as_bytes()))
                            .and_then(|r| {
                                let text = String::from_utf8_lossy(&r.body).into_owned();
                                number_after(&text, "session")
                                    .map(|id| id as u64)
                                    .ok_or_else(|| Failure::wrong("no session id"))
                            });
                        ctx.ledger.record("session_create", &outcome);
                        let Ok(id) = outcome else { continue };
                        let plan = if needs_plan(idx) {
                            let p = get_plan(addr, id);
                            ctx.ledger.record("session_plan", &p);
                            p.ok()
                        } else {
                            None
                        };
                        out.push((idx, id, plan));
                    }
                    out
                })
            })
            .collect();
        for lane in lanes {
            for (idx, id, plan) in lane.join().unwrap_or_default() {
                ids[idx] = id;
                plans[idx] = plan;
            }
        }
    });
    if ids.contains(&0) {
        return Err("some sessions could not be created".to_string());
    }
    let mut pool = Vec::with_capacity(POOL);
    for p in 0..POOL {
        let body = pool_body(scenario, seed, p);
        let outcome = expect_ok(http::post_json(addr, "/plan", body.as_bytes())).and_then(|r| {
            if !r.body.starts_with(b"{\"cache_hit\":false,") {
                return Err(Failure::wrong("a fresh pool request hit the cache"));
            }
            result_part(&r.body).map(<[u8]>::to_vec).ok_or_else(|| Failure::wrong("no result"))
        });
        ctx.ledger.record("plan_prime", &outcome);
        pool.push((body, outcome.map_err(|f| f.to_string())?));
    }
    Ok(Prepared { ids, plans, pool })
}

/// What one generator thread saw.
#[derive(Default)]
struct Lane {
    /// Binary batch writes, the primary request class.
    writes: Vec<f64>,
    /// Single-frame JSON and events writes.
    single_writes: Vec<f64>,
    reads: Vec<f64>,
    /// Lateness (ms) of every open-loop operation, in send order.
    late: Vec<f64>,
    hit_overhead: Vec<f64>,
    frames: u64,
    syncs: u64,
    queue_depth_max: f64,
    sat_frames: u64,
    /// Saturation-phase batch latencies.
    sat_writes: Vec<f64>,
    sat_seconds: f64,
}

/// Checks a binary batch reply against the frames sent and advances the
/// sessions' revisions.
fn check_batch(reply: std::io::Result<Reply>, chunk: &mut [&mut Owned], time: f64) -> Checked<()> {
    let reply = expect_ok(reply)?;
    let outcomes = wire::decode_reports(&reply.body).map_err(|e| Failure::wrong(e.to_string()))?;
    if outcomes.len() != chunk.len() {
        return Err(Failure::wrong(format!(
            "{} reports for {} frames",
            outcomes.len(),
            chunk.len()
        )));
    }
    for (o, FrameOutcome { session, result }) in chunk.iter_mut().zip(outcomes) {
        let report = result.map_err(|e| Failure::wrong(format!("session {session}: {e}")))?;
        if session != o.id || report.time != time {
            return Err(Failure::wrong(format!("report for session {session} at {}", report.time)));
        }
        if report.revision < o.revision {
            return Err(Failure::wrong(format!("session {session} revision went backwards")));
        }
        o.revision = report.revision;
    }
    Ok(())
}

fn send_batch(
    addr: SocketAddr,
    seed: u64,
    chunk: &mut [&mut Owned],
    slot: usize,
) -> (Checked<()>, usize) {
    let frames: Vec<Frame> = chunk
        .iter()
        .map(|o| Frame::telemetry(o.id, telemetry(seed, o.idx, &o.base, slot)))
        .collect();
    let body = wire::encode_frames(&frames);
    let reply = http::call(
        addr,
        "POST",
        "/telemetry/batch",
        Some(wire::CONTENT_TYPE),
        Some(wire::CONTENT_TYPE),
        &body,
    );
    (check_batch(reply, chunk, slot as f64 * SLOT_DT), frames.len())
}

fn revision_in(reply: &Reply, o: &mut Owned) -> Checked<u64> {
    let text = String::from_utf8_lossy(&reply.body);
    let rev = number_after(&text, "revision").ok_or_else(|| Failure::wrong("no revision"))? as u64;
    if rev < o.revision {
        return Err(Failure::wrong(format!("session {} revision went backwards", o.id)));
    }
    o.revision = rev;
    Ok(rev)
}

fn send_json(addr: SocketAddr, seed: u64, o: &mut Owned, slot: usize) -> Checked<()> {
    let body = serde_json::to_string(&telemetry(seed, o.idx, &o.base, slot))
        .map_err(|e| Failure::wrong(e.to_string()))?;
    let reply =
        expect_ok(http::post_json(addr, &format!("/session/{}/telemetry", o.id), body.as_bytes()))?;
    revision_in(&reply, o).map(|_| ())
}

fn post_events(addr: SocketAddr, id: u64, batch: EventBatch) -> std::io::Result<Reply> {
    let body = wire::encode_frames(&[Frame::events(id, batch)]);
    http::call(
        addr,
        "POST",
        &format!("/session/{id}/events"),
        Some(wire::CONTENT_TYPE),
        None,
        &body,
    )
}

/// One slot of an events session: mirror the planned charges, run every
/// sensor's drift test, send the crossings, answer a 409 with the sync
/// retry, and refresh the clients' plan when the revision moved. Returns
/// whether a sync was needed.
fn send_events(addr: SocketAddr, seed: u64, o: &mut Owned, slot: usize) -> Checked<bool> {
    let t = slot as f64 * SLOT_DT;
    for (i, c) in o.clients.iter_mut().enumerate() {
        // Approximate charge mirror: sensor i is visited every assigned
        // cycle.
        let a = o.assigned[i];
        while o.last_charge[i] + a <= t {
            o.last_charge[i] += a;
            c.recharged(o.last_charge[i]);
        }
    }
    let mut events = Vec::new();
    for (i, c) in o.clients.iter_mut().enumerate() {
        if let Some(s) = c.observe(t, rate(seed, o.idx, i, slot, o.base[i])) {
            events.push(ClassEvent::new(i, s.rho_hat, s.last_rate, s.level));
        }
    }
    let observed: u64 = o.clients.iter().map(SensorClient::observed).sum();
    let sent: u64 = o.clients.iter().map(SensorClient::sent).sum();
    let batch = EventBatch {
        observed: observed - o.counted.0,
        sent: sent - o.counted.1,
        ..EventBatch::new(t, events)
    };
    let first = expect_status(post_events(addr, o.id, batch.clone()), &[200, 409])?;
    let mut synced = false;
    let reply = if first.status == 409 {
        synced = true;
        let all: Vec<ClassEvent> = o
            .clients
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
        expect_ok(post_events(addr, o.id, sync))?
    } else {
        first
    };
    o.counted = (
        o.clients.iter().map(SensorClient::observed).sum(),
        o.clients.iter().map(SensorClient::sent).sum(),
    );
    let rev = revision_in(&reply, o)?;
    if rev > o.plan_revision {
        let plan = get_plan(addr, o.id)?;
        if plan.revision < rev {
            return Err(Failure::wrong(format!("session {} plan older than its ack", o.id)));
        }
        o.adopt(&plan);
    }
    Ok(synced)
}

/// One read of a session plan: its revision may not be older than the
/// last one this thread saw acknowledged.
fn read_plan(addr: SocketAddr, o: &mut Owned) -> Checked<()> {
    let plan = get_plan(addr, o.id)?;
    if plan.revision < o.revision || plan.now > plan.horizon {
        return Err(Failure::wrong(format!("session {} plan revision went backwards", o.id)));
    }
    o.revision = plan.revision;
    Ok(())
}

/// One repeat of a primed `/plan`: a cache hit with byte-identical result.
/// Returns the handler-reported time (ms).
fn read_hit(addr: SocketAddr, body: &str, want: &[u8]) -> Checked<f64> {
    let reply = expect_ok(http::post_json(addr, "/plan", body.as_bytes()))?;
    if !reply.body.starts_with(b"{\"cache_hit\":true,") {
        return Err(Failure::wrong("a primed /plan missed the cache"));
    }
    if result_part(&reply.body) != Some(want) {
        return Err(Failure::wrong("a cached /plan result changed"));
    }
    let text = String::from_utf8_lossy(&reply.body);
    number_after(&text, "plan_us").map(|us| us / 1e3).ok_or_else(|| Failure::wrong("no plan_us"))
}

#[derive(Clone, Copy)]
enum Op {
    Batch(usize),
    Json(usize),
    Events(usize),
    ReadPlan(usize),
    ReadHit(usize),
    Scrape,
}

struct LaneCtx<'a> {
    ctx: &'a Ctx,
    addr: SocketAddr,
    seed: u64,
    pool: &'a [(String, Vec<u8>)],
    thread: usize,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The open loop of one thread over its own sessions, then its share of
/// the saturation phase.
fn lane(lc: &LaneCtx<'_>, owned: &mut [Owned], open_slots: usize, start: Instant) -> Lane {
    let ctx = lc.ctx;
    let mut out = Lane::default();
    let batch_idx: Vec<usize> =
        (0..owned.len()).filter(|&k| owned[k].kind == Kind::Batch).collect();
    let chunks: Vec<&[usize]> = batch_idx.chunks(BATCH_FRAMES).collect();
    let mut ops: Vec<Op> = chunks.iter().enumerate().map(|(c, _)| Op::Batch(c)).collect();
    for (k, o) in owned.iter().enumerate() {
        match o.kind {
            Kind::Json => ops.push(Op::Json(k)),
            Kind::Events => ops.push(Op::Events(k)),
            Kind::Batch => {}
        }
    }
    let read_ops = 2 * READS + usize::from(lc.thread == 0);
    let spacing = SLOT.as_secs_f64() / (ops.len() + read_ops) as f64;

    let batch = |owned: &mut [Owned], c: usize, slot: usize| -> (Checked<()>, usize) {
        let mut chunk: Vec<&mut Owned> = owned
            .iter_mut()
            .enumerate()
            .filter(|(k, _)| chunks[c].contains(k))
            .map(|(_, o)| o)
            .collect();
        send_batch(lc.addr, lc.seed, &mut chunk, slot)
    };

    let mut busy_until = start;
    for slot in 1..=open_slots {
        let slot_start = start + SLOT * (slot as u32 - 1);
        let mut slot_ops = ops.clone();
        for r in 0..READS {
            let pick = gen::mix(lc.seed ^ (slot * READS + r) as u64) as usize;
            slot_ops.push(Op::ReadPlan(pick % owned.len()));
            slot_ops.push(Op::ReadHit(pick % lc.pool.len()));
        }
        if lc.thread == 0 {
            slot_ops.push(Op::Scrape);
        }
        for (n, op) in slot_ops.into_iter().enumerate() {
            let due = slot_start + Duration::from_secs_f64(spacing * n as f64);
            let now = Instant::now();
            if due > now {
                sleep(due - now);
            }
            let sent = Instant::now();
            out.late.push(ms_since(due).max(0.0));
            // The clock starts at the due time when this thread was still
            // busy with its previous request then — that wait is backlog —
            // and at the send when it was idle and only its timer woke late.
            let clock = if busy_until > due { due } else { sent };
            match op {
                Op::Batch(c) => {
                    let (outcome, frames) = batch(owned, c, slot);
                    ctx.ledger.record("write_batch", &outcome);
                    out.frames += frames as u64;
                    out.writes.push(if outcome.is_ok() { ms_since(clock) } else { f64::INFINITY });
                }
                Op::Json(k) => {
                    let outcome = send_json(lc.addr, lc.seed, &mut owned[k], slot);
                    ctx.ledger.record("write_json", &outcome);
                    out.frames += 1;
                    out.single_writes.push(if outcome.is_ok() {
                        ms_since(clock)
                    } else {
                        f64::INFINITY
                    });
                }
                Op::Events(k) => {
                    let outcome = send_events(lc.addr, lc.seed, &mut owned[k], slot);
                    ctx.ledger.record("write_events", &outcome);
                    out.frames += 1;
                    out.syncs += u64::from(outcome == Ok(true));
                    out.single_writes.push(if outcome.is_ok() {
                        ms_since(clock)
                    } else {
                        f64::INFINITY
                    });
                }
                Op::ReadPlan(k) => {
                    let outcome = read_plan(lc.addr, &mut owned[k]);
                    ctx.ledger.record("read_session_plan", &outcome);
                    out.reads.push(if outcome.is_ok() { ms_since(clock) } else { f64::INFINITY });
                }
                Op::ReadHit(p) => {
                    let (body, want) = &lc.pool[p];
                    let outcome = read_hit(lc.addr, body, want);
                    ctx.ledger.record("read_plan_hit", &outcome);
                    let ms = if outcome.is_ok() { ms_since(clock) } else { f64::INFINITY };
                    if let Ok(handler_ms) = outcome {
                        out.hit_overhead.push(ms - handler_ms);
                    }
                    out.reads.push(ms);
                }
                Op::Scrape => {
                    if slot % METRICS_EVERY == 0 {
                        let outcome = expect_ok(http::get(lc.addr, "/metrics", None));
                        if let Ok(r) = &outcome {
                            let m = daemon::parse_metrics(&String::from_utf8_lossy(&r.body));
                            let depth = m.get("perpetuum_queue_depth").copied().unwrap_or(0.0);
                            out.queue_depth_max = out.queue_depth_max.max(depth);
                        }
                        ctx.ledger.record("metrics", &outcome);
                    }
                }
            }
            busy_until = Instant::now();
        }
    }

    // Saturation: a fixed amount of work, SAT_SLOTS more slots of
    // back-to-back batches over this thread's batch sessions.
    let sat_start = Instant::now();
    for slot in open_slots + 1..=open_slots + SAT_SLOTS {
        for c in 0..chunks.len() {
            let t0 = Instant::now();
            let (outcome, frames) = batch(owned, c, slot);
            ctx.ledger.record("saturate_batch", &outcome);
            out.sat_writes.push(if outcome.is_ok() { ms_since(t0) } else { f64::INFINITY });
            if outcome.is_ok() {
                out.sat_frames += frames as u64;
            }
        }
    }
    out.sat_seconds = sat_start.elapsed().as_secs_f64();
    out
}

/// Runs the workload against the daemon, then the traced replay if asked.
pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let scenario_v = Scenario { n: N, ..Scenario::paper_fixed() };
    let scenario = gen::scenario_json(&scenario_v);
    let seed = gen::request_seed(ctx.seed);
    let gamma = OnlineConfig::new(scenario_v.horizon).gamma;

    // The generator's own picture of every session: base rates and, for
    // events sessions, capacities — built before set-up is timed.
    let worlds: Vec<(Vec<f64>, Vec<f64>)> = (0..SESSIONS)
        .map(|idx| {
            let w = realise_world(scenario_v, seed, idx as u64);
            let caps = w.world.capacities();
            let base = caps.iter().zip(&w.topology.init_cycles).map(|(c, t)| c / t).collect();
            (base, caps)
        })
        .collect();

    let sessions = SESSIONS.to_string();
    let (d, prep, setup_s, flags) = launch_with(
        ctx,
        &|dir| {
            let dir = dir.join("journal").display().to_string();
            daemon::flags(&[
                "--sessions",
                &sessions,
                "--cache",
                "64",
                "--data-dir",
                &dir,
                // Compaction rewrites every live session's whole log under
                // the shard lock, so its stalls grow with run length; it
                // runs once, at drain.
                "--compact-every",
                "0",
            ])
        },
        &|d| prepare(ctx, d, &scenario, seed),
    )?;
    let addr = d.addr;

    let mut lanes_owned: Vec<Vec<Owned>> = (0..THREADS).map(|_| Vec::new()).collect();
    for (idx, ((base, caps), plan)) in worlds.into_iter().zip(prep.plans.iter()).enumerate() {
        let kind = kind_of(idx);
        let mut o = Owned {
            idx,
            id: prep.ids[idx],
            kind,
            base,
            revision: 0,
            plan_revision: 0,
            clients: Vec::new(),
            last_charge: Vec::new(),
            assigned: Vec::new(),
            counted: (0, 0),
        };
        if kind == Kind::Events {
            o.clients = caps
                .iter()
                .zip(&o.base)
                .map(|(&c, &r)| SensorClient::new(gamma, 0.0, scenario_v.horizon, c, r))
                .collect();
            o.last_charge = vec![0.0; N];
            o.adopt(plan.as_ref().ok_or("events session without its plan")?);
        }
        lanes_owned[idx % THREADS].push(o);
    }
    let initial_costs: Vec<f64> =
        prep.plans.iter().take(COST_SESSIONS).flatten().map(|p| p.service_cost).collect();

    let before = d.metrics()?;
    let open_slots = ((ctx.seconds * OPEN_SHARE) / SLOT.as_secs_f64()).floor().max(1.0) as usize;
    if (open_slots + SAT_SLOTS) as f64 * SLOT_DT >= 0.9 * scenario_v.horizon {
        return Err(format!("{open_slots} open-loop slots would run past the sessions' horizon"));
    }
    let start = Instant::now() + Duration::from_millis(20);
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes_owned
            .iter_mut()
            .enumerate()
            .map(|(thread, owned)| {
                let lc = LaneCtx { ctx, addr, seed, pool: &prep.pool, thread };
                scope.spawn(move || lane(&lc, owned, open_slots, start))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss_mb = d.peak_rss_mb()?;
    let after = d.metrics()?;
    let drained = d.shutdown()?;

    let cat = |f: fn(&Lane) -> &Vec<f64>| -> Vec<f64> {
        lanes.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let writes = cat(|l| &l.writes);
    let single_writes = cat(|l| &l.single_writes);
    let reads = cat(|l| &l.reads);
    let late = cat(|l| &l.late);
    let hit_overhead = cat(|l| &l.hit_overhead);
    let sat_writes = cat(|l| &l.sat_writes);
    let frames: u64 = lanes.iter().map(|l| l.frames).sum();
    let sat_frames: u64 = lanes.iter().map(|l| l.sat_frames).sum();
    let sat_seconds = lanes.iter().map(|l| l.sat_seconds).fold(0.0, f64::max);
    let syncs: u64 = lanes.iter().map(|l| l.syncs).sum();
    // Backlog: how far behind schedule each thread's last operation ran.
    let final_late = lanes.iter().filter_map(|l| l.late.last().copied()).fold(0.0, f64::max);
    if final_late > MAX_BACKLOG_MS {
        ctx.ledger.invalidate(format!(
            "the open loop ended {final_late:.0} ms behind schedule: the backlog grew"
        ));
    }
    let delta = |key: &str| {
        after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
    };
    let all_frames = (frames + sat_frames) as f64;

    let mut m = Measured {
        daemon_flags: flags,
        setup_s,
        peak_rss_mb,
        ops_per_s: if sat_seconds > 0.0 { sat_frames as f64 / sat_seconds } else { 0.0 },
        service_cost: stats::mean(&initial_costs).unwrap_or(f64::NAN),
        tail_p: TAIL_P,
        ..Measured::default()
    };
    let read_tail_p = stats::tail_percentile_for(reads.len()).unwrap_or(50.0);
    let layers = &mut m.layers;
    layers.insert("serve.write.open_p50_ms", stats::median(&writes).unwrap_or(0.0));
    layers
        .insert("serve.write.open_tail_ms", stats::percentile(&writes, OPEN_TAIL_P).unwrap_or(0.0));
    layers.insert("serve.read.p50_ms", stats::median(&reads).unwrap_or(0.0));
    layers.insert("serve.read.tail_ms", stats::percentile(&reads, read_tail_p).unwrap_or(0.0));
    layers.insert("serve.http.overhead_ms", stats::median(&hit_overhead).unwrap_or(0.0));
    layers.insert("bench.generator_late_ms", stats::median(&late).unwrap_or(0.0));
    layers.insert("online.controller.sync_refusals", syncs as f64);
    layers.insert("serve.server.queue_rejected", delta("perpetuum_queue_rejected_total"));
    layers.insert(
        "serve.server.queue_depth_max",
        lanes.iter().map(|l| l.queue_depth_max).fold(0.0, f64::max),
    );
    layers.insert(
        "serve.journal.bytes_per_frame",
        delta("perpetuum_journal_bytes_written_total") / all_frames,
    );
    layers.insert("serve.journal.fsyncs_per_s", delta("perpetuum_journal_fsyncs_total") / elapsed);
    m.notes.push(format!(
        "serve_mix: {SESSIONS} sessions (n = {N}); open loop {open_slots} slots of {} ms: {} batch \
         writes (p50/p{OPEN_TAIL_P}/p99 {:.3}/{:.3}/{:.3} ms from their due times), {} \
         single-frame writes (p50 {:.3} ms), {frames} frames, {} reads (p{read_tail_p} {:.3} ms); \
         generator late p50 {:.3} ms, final {final_late:.1} ms; {syncs} sync retries",
        SLOT.as_millis(),
        writes.len(),
        stats::median(&writes).unwrap_or(f64::NAN),
        stats::percentile(&writes, OPEN_TAIL_P).unwrap_or(f64::NAN),
        stats::percentile(&writes, 99.0).unwrap_or(f64::NAN),
        single_writes.len(),
        stats::median(&single_writes).unwrap_or(f64::NAN),
        reads.len(),
        stats::percentile(&reads, read_tail_p).unwrap_or(f64::NAN),
        stats::median(&late).unwrap_or(f64::NAN),
    ));
    m.notes.push(format!(
        "saturation: {sat_frames} frames ({SAT_SLOTS} slots) from {THREADS} closed-loop clients \
         in {sat_seconds:.2} s"
    ));
    m.notes.push(format!("daemon: {drained}"));
    m.latencies_ms = sat_writes;
    if ctx.trace {
        let chosen: Vec<usize> =
            (0..SESSIONS).filter(|&i| kind_of(i) == Kind::Batch).take(REPLAY_SESSIONS).collect();
        replay(ctx, &scenario, &scenario_v, seed, &chosen, &prep.pool, &mut m)?;
    }
    Ok(m)
}

/// A fresh in-process daemon state with its own journal under `dir`.
fn in_process_state(dir: &std::path::Path) -> Result<AppState, String> {
    let state = AppState::new(0).with_sessions(REPLAY_SESSIONS * 2, 2).with_batch_threads(1);
    let journal = JournalSet::open(
        dir,
        state.sessions.shard_count(),
        FsyncPolicy::Batch,
        4096,
        Arc::clone(&state.metrics),
    )
    .map_err(|e| format!("journal {}: {e}", dir.display()))?;
    Ok(state.with_journal(journal))
}

/// The traced replay. Two twin in-process states get the same sessions.
/// Each slot's batch of the chosen sessions' frames goes through
/// `handlers::telemetry_batch` on one (`serve.handlers.batch`) and stage by
/// stage on the other — wire decode, session lookup, slot lock,
/// controller ingest, journal append, one journal flush, report encode —
/// and the two reply bodies must be identical. The primed `/plan` pool's
/// parse, hash and cache lookup are traced beside it.
fn replay(
    ctx: &Ctx,
    scenario: &str,
    scenario_v: &Scenario,
    seed: u64,
    chosen: &[usize],
    pool: &[(String, Vec<u8>)],
    m: &mut Measured,
) -> Result<(), String> {
    let handler_state = in_process_state(&ctx.work.join("replay-handler"))?;
    let stage_state = in_process_state(&ctx.work.join("replay-stages"))?;
    let mut ids = Vec::with_capacity(chosen.len());
    for &idx in chosen {
        let body = session_body(scenario, seed, idx);
        let a = handlers::session_create(&handler_state, body.as_bytes());
        let b = handlers::session_create(&stage_state, body.as_bytes());
        let id = number_after(&String::from_utf8_lossy(&a.body), "session");
        if a.status != 200 || a.body != b.body || id.is_none() {
            return Err("in-process session creation failed".to_string());
        }
        ids.push(id.unwrap_or(0.0) as u64);
    }
    let bases: Vec<Vec<f64>> = chosen
        .iter()
        .map(|&idx| {
            let w = realise_world(*scenario_v, seed, idx as u64);
            w.world.capacities().iter().zip(&w.topology.init_cycles).map(|(c, t)| c / t).collect()
        })
        .collect();

    let mut tr = Tracer::new();
    let (mut frames_total, mut bytes_total) = (0usize, 0usize);
    let mut replans = [0usize; 3];
    let mut planner_calls = 0usize;
    for slot in 1..=REPLAY_SLOTS {
        let frames: Vec<Frame> = chosen
            .iter()
            .zip(&ids)
            .zip(&bases)
            .map(|((&idx, &id), base)| Frame::telemetry(id, telemetry(seed, idx, base, slot)))
            .collect();
        let body = wire::encode_frames(&frames);
        frames_total += frames.len();
        bytes_total += body.len();
        let mut req = Request::new("POST", "/telemetry/batch", body.clone());
        req.content_type = Some(wire::CONTENT_TYPE.to_string());
        req.accept = Some(wire::CONTENT_TYPE.to_string());

        let root = tr.open("request", None, slot);
        let resp = tr.span("serve.handlers.batch", Some(root), slot, || {
            handlers::telemetry_batch(&handler_state, &req)
        });
        let st = tr.open("stages", Some(root), slot);
        let decoded = tr
            .span("serve.wire.decode", Some(st), slot, || wire::decode_frames(&body))
            .map_err(|e| e.to_string())?;
        let journal = stage_state.journal.as_ref().ok_or("no journal")?;
        let mut outcomes = Vec::with_capacity(decoded.len());
        for frame in &decoded {
            let slot_ref = tr
                .span("serve.session.get", Some(st), slot, || {
                    stage_state.sessions.get(frame.session)
                })
                .ok_or("replayed session vanished")?;
            let mut controller = tr
                .span("serve.session.lock", Some(st), slot, || slot_ref.lock())
                .map_err(|_| "poisoned session")?;
            let result =
                tr.span("online.controller.ingest", Some(st), slot, || match &frame.payload {
                    wire::FramePayload::Telemetry(b) => controller.ingest(b),
                    wire::FramePayload::Events(b) => controller.ingest_events(b),
                });
            if result.is_ok() {
                tr.span("serve.journal.append", Some(st), slot, || {
                    journal.append_frames(frame.session, vec![frame.clone()]);
                });
            }
            drop(controller);
            if let Ok(r) = &result {
                replans[match r.replan {
                    ReplanKind::None => 0,
                    ReplanKind::Incremental => 1,
                    ReplanKind::Full => 2,
                }] += 1;
                planner_calls += r.planner_calls;
            }
            outcomes.push(FrameOutcome {
                session: frame.session,
                result: result.map_err(|e| e.to_string()),
            });
        }
        tr.span("serve.journal.flush", Some(st), slot, || journal.flush())
            .map_err(|e| e.to_string())?;
        let encoded =
            tr.span("serve.wire.encode", Some(st), slot, || wire::encode_reports(&outcomes));
        tr.close(st);
        tr.close(root);

        let ok = outcomes.iter().all(|o| o.result.is_ok());
        let same: Checked<()> = if resp.status == 200 && resp.body == encoded && ok {
            Ok(())
        } else {
            Err(Failure::wrong(format!("slot {slot}: the stages disagree with the handler")))
        };
        ctx.ledger.record("replay_batch", &same);
    }

    // The read path of a primed /plan: parse + canonical hash, then the
    // cache lookup against the primed entries.
    let cache = PlanCache::new(1024);
    for (body, result) in pool {
        let tree = serde_json::parse_value(body).map_err(|e| e.to_string())?;
        let text = std::str::from_utf8(result).map_err(|e| e.to_string())?;
        let text = text.strip_suffix('}').ok_or("unframed pool result")?;
        cache.insert(canonical_hash(&tree), Arc::from(text));
    }
    let (mut lookups, mut hits) = (0usize, 0usize);
    for (r, (body, _)) in pool.iter().cycle().take(POOL * REPLAY_SLOTS).enumerate() {
        let root = tr.open("reads", None, r);
        let key = tr.span("serve.json.parse", Some(root), r, || {
            serde_json::parse_value(body).map(|t| canonical_hash(&t)).map_err(|e| e.to_string())
        })?;
        let hit = tr.span("serve.cache.lookup", Some(root), r, || cache.get(key));
        tr.close(root);
        lookups += 1;
        hits += usize::from(hit.is_some());
    }

    let per_frame_us = |name: &str| tr.total(name).0 * 1e3 / frames_total.max(1) as f64;
    let per_1k = |count: usize| count as f64 * 1e3 / frames_total.max(1) as f64;
    let layers = &mut m.layers;
    layers.insert("serve.handlers.batch_ms", tr.mean_ms("serve.handlers.batch"));
    layers.insert("serve.wire.decode_us", tr.mean_ms("serve.wire.decode") * 1e3);
    layers.insert("serve.wire.encode_us", tr.mean_ms("serve.wire.encode") * 1e3);
    layers.insert("serve.wire.bytes_per_frame", bytes_total as f64 / frames_total.max(1) as f64);
    layers.insert("serve.session.get_us", per_frame_us("serve.session.get"));
    layers.insert("serve.session.lock_wait_us", per_frame_us("serve.session.lock"));
    layers.insert("online.controller.ingest_us", per_frame_us("online.controller.ingest"));
    layers.insert("serve.journal.append_us", per_frame_us("serve.journal.append"));
    layers.insert("serve.journal.flush_ms", tr.mean_ms("serve.journal.flush"));
    layers.insert("online.controller.replans_none", per_1k(replans[0]));
    layers.insert("online.controller.replans_incremental", per_1k(replans[1]));
    layers.insert("online.controller.replans_full", per_1k(replans[2]));
    layers.insert("online.controller.planner_calls", per_1k(planner_calls));
    layers.insert("serve.json.parse_ms", tr.mean_ms("serve.json.parse"));
    layers.insert("serve.cache.lookups", lookups as f64);
    layers.insert("serve.cache.hit_ratio", hits as f64 / lookups.max(1) as f64);
    m.notes.push(format!(
        "replay: {REPLAY_SLOTS} batches of {} frames in-process ({} replans none/incremental/full \
         {:?}); {lookups} cached /plan reads",
        chosen.len(),
        frames_total,
        replans
    ));
    finish_trace(ctx, &tr, "serve.handlers.batch", m);
    Ok(())
}
