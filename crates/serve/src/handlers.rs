//! Endpoint handlers: the JSON-level logic behind the router.
//!
//! Both planning endpoints parse the request into a JSON tree first; for
//! `/plan` that tree's canonical hash ([`crate::cache::canonical_hash`])
//! is the cache key, so the cache is consulted *before* any scenario
//! validation or topology construction — a hit costs one hash and one
//! shard lookup. All scenario parsing goes through
//! [`perpetuum_sim::scenario`]'s typed [`ScenarioError`] surface: the CLI
//! and the daemon reject exactly the same inputs with the same messages.

use crate::cache::{canonical_hash, PlanCache};
use crate::http::{Request, Response};
use crate::journal::{EndReason, JournalSet};
use crate::metrics::Metrics;
use crate::refine::{RefineJob, RefineQueue};
use crate::session::SessionStore;
use crate::wire;
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::refine::{refine, Budget, RefineReport};
use perpetuum_core::ScheduleSeries;
use perpetuum_online::{
    ClassEvent, ControllerSeed, EventBatch, IngestReport, OnlineConfig, OnlineError,
    TelemetryBatch, TelemetryRecord,
};
use perpetuum_sim::scenario::{world_from_value, Algo, ScenarioError};
use perpetuum_sim::FaultModel;
use serde::{Deserialize, Serialize as _};
use serde_json::Value;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Default number of live telemetry sessions the daemon holds before
/// evicting the least-recently-used one.
pub(crate) const DEFAULT_SESSION_CAPACITY: usize = 64;

/// Everything the handlers share: the plan cache, the session store, the
/// metric set, and (when `--data-dir` is set) the write-ahead journal.
pub struct AppState {
    /// The sharded LRU plan cache.
    pub cache: PlanCache,
    /// Live telemetry sessions (`/session` endpoints).
    pub sessions: SessionStore,
    /// Counters, gauges and histograms served by `/metrics` — shared
    /// (`Arc`) with the journal, which counts its own bytes and fsyncs.
    pub metrics: Arc<Metrics>,
    /// Max threads applying a `/telemetry/batch` request's shard groups
    /// in parallel (`--session-threads`).
    pub batch_threads: usize,
    /// The write-ahead journal; `None` runs the daemon in-memory only.
    pub journal: Option<JournalSet>,
    /// Pending background-refinement jobs (`/plan` with
    /// `"refine":"background"`), drained by the pool in
    /// [`crate::refine`].
    pub refine_queue: RefineQueue,
}

impl AppState {
    /// Fresh state with the given plan-cache capacity and the default
    /// session capacity/shards.
    pub fn new(cache_capacity: usize) -> Self {
        Self {
            cache: PlanCache::new(cache_capacity),
            sessions: SessionStore::new(DEFAULT_SESSION_CAPACITY, 0),
            metrics: Arc::new(Metrics::default()),
            batch_threads: 1,
            journal: None,
            refine_queue: RefineQueue::default(),
        }
    }

    /// Overrides both session-store capacity and shard count (`0` shards
    /// means the default). Builder-style.
    pub fn with_sessions(mut self, capacity: usize, shards: usize) -> Self {
        self.sessions = SessionStore::new(capacity, shards);
        self
    }

    /// Overrides the batch-apply parallelism. Builder-style.
    pub fn with_batch_threads(mut self, threads: usize) -> Self {
        self.batch_threads = threads.max(1);
        self
    }

    /// Attaches a write-ahead journal. The journal must have been opened
    /// with this state's metrics (`Arc::clone(&state.metrics)`) and the
    /// session store's shard count. Builder-style.
    pub fn with_journal(mut self, journal: JournalSet) -> Self {
        self.journal = Some(journal);
        self
    }
}

/// Default master seed when a request omits `seed` (the workspace-wide
/// experiment default).
const DEFAULT_SEED: u64 = 42;

fn bad_json(err: impl std::fmt::Display) -> Response {
    Response::error(400, "bad_json", &err.to_string())
}

fn bad_scenario(err: &ScenarioError) -> Response {
    Response::error(400, "invalid_scenario", &err.to_string())
}

/// Pulls an optional unsigned integer field (e.g. `seed`) out of the
/// request tree.
fn u64_field(v: &Value, key: &str, default: u64) -> Result<u64, Response> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        Some(other) => {
            Err(bad_json(format!("field `{key}` must be a non-negative integer, got {other:?}")))
        }
    }
}

fn bool_field(v: &Value, key: &str) -> Result<bool, Response> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(bad_json(format!("field `{key}` must be a boolean, got {other:?}"))),
    }
}

/// Pulls an optional finite float field (e.g. `margin`) out of the
/// request tree; `None` means the field was absent and the config default
/// applies.
fn f64_field(v: &Value, key: &str) -> Result<Option<f64>, Response> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) if n.is_finite() => Ok(Some(*n)),
        Some(other) => {
            Err(bad_json(format!("field `{key}` must be a finite number, got {other:?}")))
        }
    }
}

/// Default refinement step budget when a request opts into `refine`
/// without setting `refine_steps` — enough to converge the Section VII
/// grid sizes, small enough that an inline pass stays sub-second.
pub const DEFAULT_REFINE_STEPS: u64 = 200_000;

/// How a `/plan` request wants its schedule refined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefineMode {
    /// Constructive plan only (the default; byte-compatible with
    /// requests that predate the knob).
    Off,
    /// Refine before responding: the response already carries the
    /// improved schedule, at the price of local-search latency.
    Inline,
    /// Respond with the constructive plan immediately and enqueue a
    /// background job that upgrades the cached entry in place.
    Background,
}

fn refine_mode(v: &Value) -> Result<RefineMode, Response> {
    match v.get("refine") {
        None | Some(Value::Null) => Ok(RefineMode::Off),
        Some(Value::Str(s)) => match s.as_str() {
            "off" => Ok(RefineMode::Off),
            "inline" => Ok(RefineMode::Inline),
            "background" => Ok(RefineMode::Background),
            other => Err(bad_json(format!(
                "field `refine` must be \"off\", \"inline\" or \"background\", got {other:?}"
            ))),
        },
        Some(other) => Err(bad_json(format!("field `refine` must be a string, got {other:?}"))),
    }
}

/// The request-derived response fields a background upgrade must
/// re-render around the improved schedule.
#[derive(Debug, Clone, Copy)]
pub struct PlanMeta {
    /// Sensor count.
    pub n: usize,
    /// Depot count.
    pub q: usize,
    /// Master seed of the request.
    pub seed: u64,
    /// Scenario grid index.
    pub index: u64,
    /// The request's `sparse` flag, echoed for older clients. Planning
    /// ignores it: every plan runs the one points-backed pipeline.
    pub sparse: bool,
    /// Refinement step budget of the request.
    pub refine_steps: u64,
}

/// Builds the `result` object of a `/plan` response. The field order is
/// fixed — the background worker re-renders through this same function,
/// so an upgraded cache entry differs from the original only in the
/// schedule, the costs, and the `refine` object.
pub fn render_plan_result(
    meta: &PlanMeta,
    schedule: &ScheduleSeries,
    refine: Option<(&str, bool, Option<&RefineReport>)>,
) -> Value {
    let mut fields = vec![
        ("n".to_string(), Value::Num(meta.n as f64)),
        ("q".to_string(), Value::Num(meta.q as f64)),
        ("seed".to_string(), Value::Num(meta.seed as f64)),
        ("index".to_string(), Value::Num(meta.index as f64)),
        ("sparse".to_string(), Value::Bool(meta.sparse)),
        ("service_cost".to_string(), Value::Num(schedule.service_cost())),
        ("dispatches".to_string(), Value::Num(schedule.dispatch_count() as f64)),
        ("total_charges".to_string(), Value::Num(schedule.total_charges() as f64)),
        ("schedule".to_string(), schedule.to_value()),
    ];
    if let Some((mode, refined, report)) = refine {
        let mut obj = vec![
            ("mode".to_string(), Value::Str(mode.to_string())),
            ("refined".to_string(), Value::Bool(refined)),
            ("budget_steps".to_string(), Value::Num(meta.refine_steps as f64)),
        ];
        if let Some(rep) = report {
            obj.push(("constructive_cost".to_string(), Value::Num(rep.constructive_cost)));
            obj.push(("improvement_ratio".to_string(), Value::Num(rep.improvement_ratio())));
        }
        fields.push(("refine".to_string(), Value::Obj(obj)));
    }
    Value::Obj(fields)
}

/// `GET /healthz`.
pub fn healthz() -> Response {
    Response::json(200, "{\"status\":\"ok\"}".to_string())
}

/// `GET /metrics`.
pub fn metrics(state: &AppState) -> Response {
    Response::text(
        200,
        state.metrics.render(state.cache.len(), state.sessions.len(), &state.sessions.shard_lens()),
    )
}

/// `POST /plan` — scenario JSON in, charging schedule + service cost out.
///
/// Request: `{"scenario": {...}, "seed"?: u64, "index"?: u64, "sparse"?: bool}`.
/// Response: `{"cache_hit": bool, "plan_us": u64, "result": {...}}` where
/// the `result` bytes come verbatim from the cache on a hit — repeated
/// requests return byte-identical schedules. `sparse` is accepted and
/// echoed in `result` for older clients but changes nothing else.
pub fn plan(state: &AppState, body: &[u8]) -> Response {
    let started = Instant::now();
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(e) => return bad_json(format!("body is not UTF-8: {e}")),
    };
    let tree = match serde_json::parse_value(text) {
        Ok(v) => v,
        Err(e) => return bad_json(e),
    };
    let key = canonical_hash(&tree);

    if let Some(cached) = state.cache.get(key) {
        state.metrics.cache_hits.fetch_add(1, Relaxed);
        return respond_plan(true, started, &cached);
    }
    state.metrics.cache_misses.fetch_add(1, Relaxed);

    let Some(scenario_value) = tree.get("scenario") else {
        return bad_json("missing field `scenario`");
    };
    let seed = match u64_field(&tree, "seed", DEFAULT_SEED) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let index = match u64_field(&tree, "index", 0) {
        Ok(i) => i,
        Err(r) => return r,
    };
    let sparse = match bool_field(&tree, "sparse") {
        Ok(b) => b,
        Err(r) => return r,
    };
    let mode = match refine_mode(&tree) {
        Ok(m) => m,
        Err(r) => return r,
    };
    let refine_steps = match u64_field(&tree, "refine_steps", DEFAULT_REFINE_STEPS) {
        Ok(s) => s,
        Err(r) => return r,
    };

    let parsed = match world_from_value(scenario_value, seed, index) {
        Ok(p) => p,
        Err(e) => return bad_scenario(&e),
    };
    let instance = parsed.instance();
    let schedule = plan_min_total_distance(&instance, &MtdConfig::default());
    let meta = PlanMeta { n: instance.n(), q: instance.q(), seed, index, sparse, refine_steps };

    let result = match mode {
        // No `refine` object at all: byte-compatible with pre-knob
        // responses, which the cache round-trip tests pin.
        RefineMode::Off => render_plan_result(&meta, &schedule, None),
        RefineMode::Inline => {
            let t0 = Instant::now();
            let (refined, report) =
                refine(instance.network(), &schedule, &Budget::steps(refine_steps), seed);
            state.metrics.record_refine(
                report.constructive_cost,
                report.refined_cost,
                t0.elapsed().as_secs_f64(),
            );
            render_plan_result(&meta, &refined, Some(("inline", true, Some(&report))))
        }
        RefineMode::Background => {
            render_plan_result(&meta, &schedule, Some(("background", false, None)))
        }
    };
    let rendered: Arc<str> = match serde_json::to_string(&result) {
        Ok(s) => Arc::from(s),
        Err(e) => return Response::error(500, "internal_error", &e.to_string()),
    };
    if state.cache.insert(key, Arc::clone(&rendered)) {
        state.metrics.cache_evictions.fetch_add(1, Relaxed);
    }
    if mode == RefineMode::Background {
        // Enqueue after the constructive entry is cached so the worker's
        // evicted-check races the right way; a full (or closed) queue
        // just means this entry stays constructive.
        let queued = state.refine_queue.push(RefineJob {
            key,
            instance,
            schedule,
            steps: refine_steps,
            seed,
            meta,
        });
        if !queued {
            state.metrics.refine_jobs_dropped.fetch_add(1, Relaxed);
        }
    }
    respond_plan(false, started, &rendered)
}

fn respond_plan(cache_hit: bool, started: Instant, result: &str) -> Response {
    let us = started.elapsed().as_micros();
    Response::json(
        200,
        format!("{{\"cache_hit\":{cache_hit},\"plan_us\":{us},\"result\":{result}}}"),
    )
}

/// `POST /simulate` — run the event-driven engine over a scenario,
/// optionally under a fault model.
///
/// Request: `{"scenario": {...}, "algo"?: "Mtd"|"MtdVar"|"Greedy",
/// "seed"?: u64, "index"?: u64, "faults"?: {...}}`.
/// Response: `{"algo": ..., "sim_us": u64, "result": <SimResult>}`.
pub fn simulate(body: &[u8]) -> Response {
    let started = Instant::now();
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(e) => return bad_json(format!("body is not UTF-8: {e}")),
    };
    let tree = match serde_json::parse_value(text) {
        Ok(v) => v,
        Err(e) => return bad_json(e),
    };
    let Some(scenario_value) = tree.get("scenario") else {
        return bad_json("missing field `scenario`");
    };
    let algo = match tree.get("algo") {
        None | Some(Value::Null) => Algo::Mtd,
        Some(v) => match Algo::from_value(v) {
            Ok(a) => a,
            Err(_) => {
                return bad_json(format!(
                    "field `algo` must be one of \"Mtd\", \"MtdVar\", \"Greedy\", got {v:?}"
                ))
            }
        },
    };
    let seed = match u64_field(&tree, "seed", DEFAULT_SEED) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let index = match u64_field(&tree, "index", 0) {
        Ok(i) => i,
        Err(r) => return r,
    };
    let faults = match tree.get("faults") {
        None | Some(Value::Null) => FaultModel::none(),
        Some(v) => match FaultModel::from_value(v) {
            Ok(f) => f,
            Err(e) => return Response::error(400, "invalid_faults", &e.to_string()),
        },
    };
    if let Err(e) = faults.validate() {
        return Response::error(400, "invalid_faults", &e);
    }

    let parsed = match world_from_value(scenario_value, seed, index) {
        Ok(p) => p,
        Err(e) => return bad_scenario(&e),
    };
    let result = parsed.simulate(algo, &faults);

    let algo_json = match serde_json::to_string(&algo) {
        Ok(s) => s,
        Err(e) => return Response::error(500, "internal_error", &e.to_string()),
    };
    let result_json = match serde_json::to_string(&result) {
        Ok(s) => s,
        Err(e) => return Response::error(500, "internal_error", &e.to_string()),
    };
    let us = started.elapsed().as_micros();
    Response::json(
        200,
        format!("{{\"algo\":{algo_json},\"sim_us\":{us},\"result\":{result_json}}}"),
    )
}

fn no_session(id: u64) -> Response {
    Response::error(404, "unknown_session", &FrameError::UnknownSession.text(id))
}

fn quarantined(id: u64) -> Response {
    Response::error(500, "session_quarantined", &FrameError::Quarantined.text(id))
}

/// Removes a session whose in-memory state can no longer be trusted to
/// match its journal — a panic mid-ingest, a lock poisoned by a panic
/// elsewhere, or a journal flush failure *after* the controller already
/// applied a batch. The session is removed, counted, and journaled as
/// ended, so neither a retrying client nor a restart can act on state of
/// unknown integrity; subsequent requests for the id get a plain 404.
fn quarantine_session(state: &AppState, id: u64) {
    if !state.sessions.remove(id) {
        return;
    }
    state.metrics.sessions_quarantined.fetch_add(1, Relaxed);
    if let Some(journal) = &state.journal {
        journal.append_end(id, EndReason::Quarantined);
        // Best-effort: if this flush fails too, the staged End rides
        // along with the next successful flush (or the drain), so the
        // journaled stream still closes.
        let _ = journal.flush();
    }
}

/// `POST /session` — realise a scenario and open a closed-loop telemetry
/// session over it.
///
/// Request: `{"scenario": {...}, "seed"?: u64, "index"?: u64,
/// "gamma"?: f64, "margin"?: f64, "emergency_slack"?: f64}`.
/// Response: `{"session": id, "n": ..., "q": ..., "horizon": ...,
/// "revision": ..., "tau1": ...}`. The controller's initial rate estimate
/// for sensor `i` is `capacity_i / τ_i` — exactly what the realised
/// topology's recharge cycles imply.
pub fn session_create(state: &AppState, body: &[u8]) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(e) => return bad_json(format!("body is not UTF-8: {e}")),
    };
    let tree = match serde_json::parse_value(text) {
        Ok(v) => v,
        Err(e) => return bad_json(e),
    };
    let Some(scenario_value) = tree.get("scenario") else {
        return bad_json("missing field `scenario`");
    };
    let seed = match u64_field(&tree, "seed", DEFAULT_SEED) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let index = match u64_field(&tree, "index", 0) {
        Ok(i) => i,
        Err(r) => return r,
    };
    let parsed = match world_from_value(scenario_value, seed, index) {
        Ok(p) => p,
        Err(e) => return bad_scenario(&e),
    };

    let mut cfg = OnlineConfig::new(parsed.scenario.horizon);
    match f64_field(&tree, "gamma") {
        Ok(Some(g)) => cfg = cfg.with_gamma(g),
        Ok(None) => {}
        Err(r) => return r,
    }
    match f64_field(&tree, "margin") {
        Ok(Some(m)) => cfg = cfg.with_margin(m),
        Ok(None) => {}
        Err(r) => return r,
    }
    match f64_field(&tree, "emergency_slack") {
        Ok(Some(s)) => cfg = cfg.with_emergency_slack(s),
        Ok(None) => {}
        Err(r) => return r,
    }

    let capacities = parsed.world.capacities();
    let rates: Vec<f64> =
        capacities.iter().zip(&parsed.topology.init_cycles).map(|(&cap, &tau)| cap / tau).collect();
    // The controller is built *through the seed* so the journaled genesis
    // record and the live construction are one and the same code path —
    // recovery rebuilds exactly what was served.
    let seed = ControllerSeed::new(&parsed.topology.network, capacities, rates, cfg);
    let controller = match seed.build() {
        Ok(c) => c,
        Err(e) => return Response::error(400, "invalid_session", &e.to_string()),
    };

    let summary = Value::Obj(vec![
        ("n".to_string(), Value::Num(controller.network().n() as f64)),
        ("q".to_string(), Value::Num(controller.network().q() as f64)),
        ("horizon".to_string(), Value::Num(parsed.scenario.horizon)),
        ("revision".to_string(), Value::Num(controller.revision() as f64)),
        ("tau1".to_string(), Value::Num(controller.tau1())),
    ]);
    // Journal the genesis *before* the session becomes visible: no
    // concurrent ingest can journal frames ahead of their Create record.
    let id = state.sessions.allocate_id();
    if let Some(journal) = &state.journal {
        journal.append_create(id, &seed);
    }
    let evicted = state.sessions.insert_with_id(id, controller);
    if let Some(evicted) = evicted {
        state.metrics.session_evictions.fetch_add(1, Relaxed);
        if let Some(journal) = &state.journal {
            journal.append_end(evicted, EndReason::Evicted);
        }
    }
    // Group commit: the staged Create (and any Evicted tombstone) must be
    // kernel-durable before the id is acknowledged.
    if let Some(journal) = &state.journal {
        if let Err(e) = journal.flush() {
            // The failed flush re-staged the Create, so a later flush
            // would persist a session the client was told failed. Remove
            // it and stage its End so the journaled stream closes either
            // way — no ghost session on recovery.
            if state.sessions.remove(id) {
                journal.append_end(id, EndReason::Deleted);
            }
            return Response::error(500, "journal_error", &e.to_string());
        }
    }
    let mut fields = vec![("session".to_string(), Value::Num(id as f64))];
    if let Value::Obj(rest) = summary {
        fields.extend(rest);
    }
    match serde_json::to_string(&Value::Obj(fields)) {
        Ok(s) => Response::json(200, s),
        Err(e) => Response::error(500, "internal_error", &e.to_string()),
    }
}

/// Why [`apply_frames`] did not apply a frame. The single-session
/// endpoints map it to an HTTP status ([`FrameError::response`]); the
/// batch endpoint reports its [`text`](FrameError::text) in place.
#[derive(Debug, Clone)]
enum FrameError {
    /// No live session has the frame's id.
    UnknownSession,
    /// The session's lock was poisoned or its controller panicked; the
    /// session has been quarantined.
    Quarantined,
    /// The controller refused the frame and is unchanged.
    Rejected(OnlineError),
}

impl FrameError {
    fn text(&self, session: u64) -> String {
        match self {
            FrameError::UnknownSession => format!("no session {session} (expired or deleted?)"),
            FrameError::Quarantined => {
                format!("session {session} panicked during ingest and was quarantined")
            }
            FrameError::Rejected(e) => e.to_string(),
        }
    }

    /// The single-session endpoints' answer; `invalid` is the endpoint's
    /// `400` kind. A `SyncRequired` refusal mutated nothing and was never
    /// journaled, so it goes back as a retryable `409`.
    fn response(&self, session: u64, invalid: &str) -> Response {
        match self {
            FrameError::UnknownSession => no_session(session),
            FrameError::Quarantined => quarantined(session),
            FrameError::Rejected(OnlineError::SyncRequired) => Response::error(
                409,
                "sync_required",
                "full replan required: retry with a sync batch covering all sensors",
            ),
            FrameError::Rejected(_) => Response::error(400, invalid, &self.text(session)),
        }
    }
}

/// The request-level journal flush failed after frames were applied; every
/// session that accepted a frame has been quarantined.
struct FlushFailed {
    quarantined: usize,
    error: std::io::Error,
}

impl FlushFailed {
    /// The `500 journal_error` answer; `who` names the quarantined
    /// sessions (`"session 7"`, `"3 session(s)"`).
    fn response(&self, who: &str) -> Response {
        Response::error(
            500,
            "journal_error",
            &format!("journal flush failed after ingest; {who} quarantined: {}", self.error),
        )
    }
}

/// Parses a UTF-8 JSON body into `T`, answering `400 bad_json` otherwise.
fn json_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, Response> {
    let text =
        std::str::from_utf8(body).map_err(|e| bad_json(format!("body is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(bad_json)
}

/// Applies one decoded frame addressed to session `id` and renders the
/// single-session answer: the ingest report, or the mapped error
/// (`invalid` is the endpoint's `400` kind). A body that did not decode
/// still answers `404` when the session is unknown — the session
/// lookup, not the body, decides first.
fn ingest_one(
    state: &AppState,
    id: u64,
    frame: Result<wire::Frame, Response>,
    invalid: &str,
) -> Response {
    let frame = match frame {
        Ok(f) => f,
        Err(bad) if state.sessions.get(id).is_some() => return bad,
        Err(_) => return no_session(id),
    };
    let mut outcomes = match apply_frames(state, std::slice::from_ref(&frame)) {
        Ok(o) => o,
        Err(failed) => return failed.response(&format!("session {id}")),
    };
    // One frame in, one outcome out.
    match outcomes.swap_remove(0) {
        Ok(report) => match serde_json::to_string(&report.to_value()) {
            Ok(s) => Response::json(200, s),
            Err(e) => Response::error(500, "internal_error", &e.to_string()),
        },
        Err(e) => e.response(id, invalid),
    }
}

/// `POST /session/{id}/telemetry` — ingest one telemetry batch.
///
/// Request: a [`TelemetryBatch`]: `{"time": t, "records": [{"sensor": i,
/// "rate"?: f64, "level"?: f64}, ...]}`. Response: the controller's
/// [`IngestReport`] — revision, replan kind, changed classes, emergency
/// dispatches, and the number of planner invocations this batch cost (0
/// when every touched sensor stayed inside its rounding band). Errors:
/// `404 unknown_session`, `400 bad_json`/`invalid_telemetry`, `500
/// session_quarantined`/`journal_error`.
pub fn session_telemetry(state: &AppState, id: u64, body: &[u8]) -> Response {
    let frame = json_body(body).map(|batch| wire::Frame::telemetry(id, batch));
    ingest_one(state, id, frame, "invalid_telemetry")
}

/// `POST /session/{id}/events` — ingest one suppressed-event batch from
/// edge clients.
///
/// Request: JSON [`EventBatch`]: `{"time": t, "sync"?: bool, "events":
/// [{"sensor": i, "rho_hat": f, "last_rate": f, "level": f}, ...],
/// "observed"?: n, "sent"?: n}` — or the compact binary frame batch of
/// [`crate::wire`] when `Content-Type:` is [`wire::CONTENT_TYPE`],
/// carrying exactly one events frame addressed to the path's session.
/// Response: the controller's ingest report, as for telemetry.
///
/// A batch whose drift demands a **full** replan is refused with `409
/// sync_required` and **zero** controller mutation — the client retries
/// with a `sync: true` batch carrying every sensor's state. The refusal
/// is never journaled (nothing changed), so recovery replay sees only
/// the accepted stream.
pub fn session_events(state: &AppState, id: u64, req: &Request) -> Response {
    let frame = if req.body_is(wire::CONTENT_TYPE) {
        binary_events_frame(id, &req.body)
    } else {
        json_body(&req.body).map(|batch| wire::Frame::events(id, batch))
    };
    ingest_one(state, id, frame, "invalid_events")
}

/// Decodes a binary `/session/{id}/events` body: exactly one events frame,
/// addressed to the path's session.
fn binary_events_frame(id: u64, body: &[u8]) -> Result<wire::Frame, Response> {
    let bad_wire = |msg: &str| Response::error(400, "bad_wire", msg);
    let frames = wire::decode_frames(body).map_err(|e| bad_wire(&e.to_string()))?;
    match <[wire::Frame; 1]>::try_from(frames) {
        Ok([frame]) if frame.session != id => {
            Err(bad_wire(&format!("frame addresses session {}, path says {id}", frame.session)))
        }
        Ok([frame]) => match frame.payload {
            wire::FramePayload::Events(_) => Ok(frame),
            wire::FramePayload::Telemetry(_) => {
                Err(bad_wire("frame is telemetry; POST it to /session/{id}/telemetry"))
            }
        },
        Err(frames) => Err(bad_wire(&format!("expected exactly 1 frame, got {}", frames.len()))),
    }
}

/// `POST /telemetry/batch` — ingest telemetry frames for many sessions
/// in one request.
///
/// Request: JSON `{"frames": [{"session": id, "time": t, "records":
/// [...]}, ...]}`, or the compact binary frame batch of
/// [`crate::wire`] when `Content-Type:` is [`wire::CONTENT_TYPE`].
/// The frames are applied as one request: grouped by session (each
/// session locked once, its frames applied in arrival order) and by
/// store shard, distinct shards in parallel up to `--session-threads`.
///
/// The response carries one outcome per frame **in request order** —
/// a frame that fails (unknown session, non-monotone time) is reported
/// in place and does not abort the rest of the batch, exactly as if the
/// frames had been posted one request at a time. Binary when `Accept:`
/// asks for [`wire::CONTENT_TYPE`], JSON otherwise.
pub fn telemetry_batch(state: &AppState, req: &Request) -> Response {
    let frames = if req.body_is(wire::CONTENT_TYPE) {
        match wire::decode_frames(&req.body) {
            Ok(f) => f,
            Err(e) => return Response::error(400, "bad_wire", &e.to_string()),
        }
    } else {
        match json_frames(&req.body) {
            Ok(f) => f,
            Err(r) => return r,
        }
    };

    let results = match apply_frames(state, &frames) {
        Ok(r) => r,
        Err(failed) => return failed.response(&format!("{} session(s)", failed.quarantined)),
    };
    let outcomes: Vec<wire::FrameOutcome> = frames
        .iter()
        .zip(results)
        .map(|(f, r)| wire::FrameOutcome {
            session: f.session,
            result: r.map_err(|e| e.text(f.session)),
        })
        .collect();
    let errors = outcomes.iter().filter(|o| o.result.is_err()).count();
    state.metrics.batch_frames.fetch_add(outcomes.len() as u64, Relaxed);
    state.metrics.batch_frame_errors.fetch_add(errors as u64, Relaxed);

    if req.accepts(wire::CONTENT_TYPE) {
        return Response::binary(200, wire::CONTENT_TYPE, wire::encode_reports(&outcomes));
    }
    let results: Vec<Value> = outcomes
        .iter()
        .map(|o| {
            let mut fields = vec![("session".to_string(), Value::Num(o.session as f64))];
            match &o.result {
                Ok(report) => fields.push(("report".to_string(), report.to_value())),
                Err(text) => fields.push(("error".to_string(), Value::Str(text.clone()))),
            }
            Value::Obj(fields)
        })
        .collect();
    let body = Value::Obj(vec![
        ("frames".to_string(), Value::Num(outcomes.len() as f64)),
        ("errors".to_string(), Value::Num(errors as f64)),
        ("results".to_string(), Value::Arr(results)),
    ]);
    match serde_json::to_string(&body) {
        Ok(s) => Response::json(200, s),
        Err(e) => Response::error(500, "internal_error", &e.to_string()),
    }
}

/// JSON shape of one batched frame. Telemetry frames are
/// `{"session", "time", "records"}`; suppressed-event frames carry an
/// `"events"` array instead (plus optional `"sync"`, `"observed"`,
/// `"sent"`). A frame with both `records` and `events` is ambiguous and
/// rejected.
#[derive(Deserialize)]
struct JsonFrame {
    session: u64,
    time: f64,
    #[serde(default)]
    records: Vec<TelemetryRecord>,
    #[serde(default)]
    events: Option<Vec<ClassEvent>>,
    #[serde(default)]
    sync: bool,
    #[serde(default)]
    observed: u64,
    #[serde(default)]
    sent: u64,
}

/// JSON shape of the whole batch request.
#[derive(Deserialize)]
struct JsonBatchRequest {
    frames: Vec<JsonFrame>,
}

fn json_frames(body: &[u8]) -> Result<Vec<wire::Frame>, Response> {
    let text =
        std::str::from_utf8(body).map_err(|e| bad_json(format!("body is not UTF-8: {e}")))?;
    let parsed: JsonBatchRequest = serde_json::from_str(text).map_err(bad_json)?;
    parsed
        .frames
        .into_iter()
        .map(|f| match f.events {
            Some(events) => {
                if !f.records.is_empty() {
                    return Err(bad_json(format!(
                        "frame for session {} has both records and events",
                        f.session
                    )));
                }
                Ok(wire::Frame::events(
                    f.session,
                    EventBatch {
                        time: f.time,
                        sync: f.sync,
                        events,
                        observed: f.observed,
                        sent: f.sent,
                    },
                ))
            }
            None => Ok(wire::Frame::telemetry(
                f.session,
                TelemetryBatch { time: f.time, records: f.records },
            )),
        })
        .collect()
}

/// The one place a telemetry or event frame is applied — every ingest
/// endpoint decodes its body into frames and hands them here.
///
/// Frames are grouped by session, preserving each session's arrival
/// order, and session groups are bucketed by store shard; distinct
/// shards apply in parallel, bounded by `--session-threads`. Each
/// session's group goes through [`apply_session`]. Acknowledgement
/// follows the durability contract of DESIGN.md §14: when any frame was
/// accepted, one `flush()` makes the staged frames durable before the
/// caller answers; if it fails, every session that accepted a frame is
/// quarantined (a retry would double-ingest) and the request gets
/// [`FlushFailed`]. Refused frames are never journaled.
///
/// Returns one outcome per input frame, in input order.
fn apply_frames(
    state: &AppState,
    frames: &[wire::Frame],
) -> Result<Vec<Result<IngestReport, FrameError>>, FlushFailed> {
    // Group frame indices by session, preserving first-appearance order
    // of sessions and arrival order of each session's frames.
    let mut session_order: Vec<u64> = Vec::new();
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, f) in frames.iter().enumerate() {
        groups
            .entry(f.session)
            .or_insert_with(|| {
                session_order.push(f.session);
                Vec::new()
            })
            .push(i);
    }

    // Bucket sessions by store shard: two sessions in different buckets
    // can never contend on a shard lock or a slot lock, so buckets are
    // safe units of parallelism.
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); state.sessions.shard_count()];
    for &session in &session_order {
        buckets[state.sessions.shard_of(session)].push(session);
    }
    buckets.retain(|b| !b.is_empty());

    let apply_bucket = |sessions: &[u64]| -> Vec<(usize, Result<IngestReport, FrameError>)> {
        let mut out = Vec::new();
        for &session in sessions {
            let indices = &groups[&session];
            out.extend(indices.iter().copied().zip(apply_session(state, session, indices, frames)));
        }
        out
    };

    let threads = state.batch_threads.min(buckets.len()).max(1);
    let mut placed: Vec<(usize, Result<IngestReport, FrameError>)> = if threads <= 1 {
        buckets.iter().flat_map(|bucket| apply_bucket(bucket)).collect()
    } else {
        let lane_size = buckets.len().div_ceil(threads);
        let apply = &apply_bucket;
        std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .chunks(lane_size)
                .map(|lane| {
                    scope.spawn(move || {
                        lane.iter().flat_map(|bucket| apply(bucket)).collect::<Vec<_>>()
                    })
                })
                .collect();
            // Controller panics are caught per session inside the lane;
            // anything else is a bug the router's panic barrier reports.
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    placed.sort_unstable_by_key(|&(i, _)| i);
    let results: Vec<_> = placed.into_iter().map(|(_, r)| r).collect();

    if let Some(journal) = &state.journal {
        if results.iter().any(Result::is_ok) {
            if let Err(error) = journal.flush() {
                let mut failed: Vec<u64> = frames
                    .iter()
                    .zip(&results)
                    .filter(|(_, r)| r.is_ok())
                    .map(|(f, _)| f.session)
                    .collect();
                failed.sort_unstable();
                failed.dedup();
                for &id in &failed {
                    quarantine_session(state, id);
                }
                return Err(FlushFailed { quarantined: failed.len(), error });
            }
        }
    }
    Ok(results)
}

/// Applies one session's frames (`indices` into `frames`, in arrival
/// order) as one controller step: one slot lookup, one lock, and one
/// `catch_unwind` around ingesting each frame, staging the accepted ones
/// in the journal while the lock still orders this session's appends,
/// and metering them. A rejected frame leaves the controller untouched
/// and does not stop the frames after it. A poisoned lock or a panic
/// anywhere in the step quarantines the session. Returns one outcome
/// per index.
fn apply_session(
    state: &AppState,
    session: u64,
    indices: &[usize],
    frames: &[wire::Frame],
) -> Vec<Result<IngestReport, FrameError>> {
    let Some(slot) = state.sessions.get(session) else {
        return vec![Err(FrameError::UnknownSession); indices.len()];
    };
    let applied = catch_unwind(AssertUnwindSafe(|| {
        let mut controller = slot.lock().ok()?;
        let started = Instant::now();
        let reports: Vec<_> = indices
            .iter()
            .map(|&i| match &frames[i].payload {
                wire::FramePayload::Telemetry(batch) => controller.ingest(batch),
                wire::FramePayload::Events(batch) => controller.ingest_events(batch),
            })
            .collect();
        if let Some(journal) = &state.journal {
            let accepted: Vec<wire::Frame> = indices
                .iter()
                .zip(&reports)
                .filter(|(_, r)| r.is_ok())
                .map(|(&i, _)| frames[i].clone())
                .collect();
            if !accepted.is_empty() {
                journal.append_frames(session, accepted);
            }
        }
        drop(controller);
        // The group shared one clock; meter each frame its share.
        let per_frame = started.elapsed().as_secs_f64() / indices.len() as f64;
        for (&i, report) in indices.iter().zip(&reports) {
            let Ok(report) = report else { continue };
            state.metrics.record_ingest(report.replan, report.emergency_sensors as u64, per_frame);
            if let wire::FramePayload::Events(b) = &frames[i].payload {
                state.metrics.record_events(b.observed, b.sent);
            }
        }
        Some(reports)
    }));
    match applied {
        Ok(Some(reports)) => reports.into_iter().map(|r| r.map_err(FrameError::Rejected)).collect(),
        // Poisoned lock (`None`) or a panic: the controller's state can no
        // longer be trusted to match its journal.
        Ok(None) | Err(_) => {
            quarantine_session(state, session);
            vec![Err(FrameError::Quarantined); indices.len()]
        }
    }
}

/// `GET /session/{id}/plan` — the session's current plan: revision,
/// counters, assigned cycles, and the full dispatch schedule. Compact
/// binary ([`wire::PlanWire`]) when `Accept:` asks for
/// [`wire::CONTENT_TYPE`], JSON otherwise.
pub fn session_plan(state: &AppState, id: u64, req: &Request) -> Response {
    let Some(slot) = state.sessions.get(id) else {
        return no_session(id);
    };
    let controller = match slot.lock() {
        Ok(g) => g,
        Err(_) => {
            quarantine_session(state, id);
            return quarantined(id);
        }
    };
    if req.accepts(wire::CONTENT_TYPE) {
        let plan = wire::PlanWire {
            revision: controller.revision(),
            now: controller.now(),
            horizon: controller.horizon(),
            tau1: controller.tau1(),
            service_cost: controller.series().service_cost(),
            executed: controller.executed_dispatches() as u64,
            assigned: controller.assigned_cycles(),
            dispatches: controller
                .series()
                .dispatches()
                .iter()
                .map(|d| (d.time, d.set as u32))
                .collect(),
        };
        return Response::binary(200, wire::CONTENT_TYPE, plan.encode());
    }
    let json = controller.plan_json();
    Response::json(200, json)
}

/// `DELETE /session/{id}` — drop a session (journaled, so a restart does
/// not resurrect it).
pub(crate) fn session_delete(state: &AppState, id: u64) -> Response {
    if state.sessions.remove(id) {
        if let Some(journal) = &state.journal {
            journal.append_end(id, EndReason::Deleted);
            if let Err(e) = journal.flush() {
                return Response::error(500, "journal_error", &e.to_string());
            }
        }
        Response::json(200, format!("{{\"session\":{id},\"deleted\":true}}"))
    } else {
        no_session(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain `GET /session/{id}/plan` request (JSON negotiation).
    fn get_plan(state: &AppState, id: u64) -> Response {
        session_plan(state, id, &Request::new("GET", format!("/session/{id}/plan"), Vec::new()))
    }

    fn small_plan_body(seed: u64) -> String {
        format!(
            r#"{{"scenario": {{
                "field_size": 500.0, "n": 12, "q": 2,
                "tau_min": 1.0, "tau_max": 20.0,
                "dist": {{ "Linear": {{ "sigma": 2.0 }} }},
                "horizon": 60.0, "slot": 10.0,
                "variable": false, "deployment": "Uniform"
            }}, "seed": {seed}}}"#
        )
    }

    #[test]
    fn plan_misses_then_hits_with_identical_result_bytes() {
        let state = AppState::new(32);
        let body = small_plan_body(7);
        let first = plan(&state, body.as_bytes());
        assert_eq!(first.status, 200);
        let first_body = String::from_utf8(first.body).unwrap();
        assert!(first_body.starts_with("{\"cache_hit\":false,"), "{first_body}");

        let second = plan(&state, body.as_bytes());
        let second_body = String::from_utf8(second.body).unwrap();
        assert!(second_body.starts_with("{\"cache_hit\":true,"), "{second_body}");

        let result_of = |b: &str| b.split_once("\"result\":").map(|(_, r)| r.to_string());
        assert_eq!(result_of(&first_body), result_of(&second_body), "byte-identical schedules");
        assert_eq!(state.metrics.cache_hits.load(Relaxed), 1);
        assert_eq!(state.metrics.cache_misses.load(Relaxed), 1);
    }

    #[test]
    fn key_order_and_whitespace_still_hit_the_cache() {
        let state = AppState::new(32);
        let a = r#"{"seed": 3, "scenario": {
            "field_size": 500.0, "n": 10, "q": 2,
            "tau_min": 1.0, "tau_max": 20.0,
            "dist": { "Linear": { "sigma": 2.0 } },
            "horizon": 60.0, "slot": 10.0,
            "variable": false, "deployment": "Uniform"
        }}"#;
        let b = r#"{"scenario":{"q":2,"n":10,"field_size":500.0,"tau_min":1.0,"tau_max":20.0,"dist":{"Linear":{"sigma":2.0}},"horizon":60.0,"slot":10.0,"variable":false,"deployment":"Uniform"},"seed":3}"#;
        assert_eq!(plan(&state, a.as_bytes()).status, 200);
        assert_eq!(plan(&state, b.as_bytes()).status, 200);
        assert_eq!(state.metrics.cache_hits.load(Relaxed), 1, "near-duplicate request hit");
    }

    #[test]
    fn sparse_flag_is_echoed_and_changes_nothing_else() {
        let state = AppState::new(32);
        let plain = plan(&state, small_plan_body(5).as_bytes());
        let flagged_body =
            small_plan_body(5).replace("\"seed\": 5", "\"seed\": 5, \"sparse\": true");
        let flagged = plan(&state, flagged_body.as_bytes());
        assert_eq!(plain.status, 200);
        assert_eq!(flagged.status, 200);
        let text = |r: &Response| String::from_utf8(r.body.clone()).unwrap();
        let (plain, flagged) = (text(&plain), text(&flagged));
        assert!(plain.contains("\"sparse\":false"), "{plain}");
        assert!(flagged.contains("\"sparse\":true"), "{flagged}");
        // Everything from the schedule on is byte-identical.
        let schedule = |t: &str| t[t.find("\"schedule\":").expect("schedule field")..].to_string();
        assert_eq!(schedule(&plain), schedule(&flagged));
    }

    #[test]
    fn malformed_plan_inputs_are_typed_400s() {
        let state = AppState::new(32);
        for (body, kind) in [
            (r#"{"#.to_string(), "bad_json"),
            (r#"{"no_scenario": 1}"#.to_string(), "bad_json"),
            (small_plan_body(1).replace("\"q\": 2", "\"q\": 0"), "invalid_scenario"),
            (small_plan_body(1).replace("60.0,", "-60.0,"), "invalid_scenario"),
            (small_plan_body(1).replace("\"seed\": 1", "\"seed\": -3"), "bad_json"),
            (small_plan_body(1).replace("\"seed\": 1", "\"seed\": 1, \"sparse\": 7"), "bad_json"),
        ] {
            let r = plan(&state, body.as_bytes());
            assert_eq!(r.status, 400, "{body}");
            let text = String::from_utf8(r.body).unwrap();
            assert!(text.contains(&format!("\"kind\":\"{kind}\"")), "{text}");
        }
    }

    /// Every refine mode is part of the cache key (the mode lives in the
    /// request tree), so off/inline/background get distinct entries; the
    /// inline entry carries the refined schedule and a `refine` object
    /// with a non-negative improvement ratio.
    #[test]
    fn inline_refine_cuts_cost_and_records_metrics() {
        let state = AppState::new(32);
        let off = plan(&state, small_plan_body(9).as_bytes());
        let inline_body =
            small_plan_body(9).replace("\"seed\": 9", "\"seed\": 9, \"refine\": \"inline\"");
        let refined = plan(&state, inline_body.as_bytes());
        assert_eq!(off.status, 200);
        assert_eq!(refined.status, 200);
        assert_eq!(state.metrics.cache_misses.load(Relaxed), 2, "distinct cache entries");

        let cost = |r: &Response| {
            let body = std::str::from_utf8(&r.body).unwrap().to_string();
            let v = serde_json::parse_value(&body).unwrap();
            match v.get("result").and_then(|r| r.get("service_cost")) {
                Some(Value::Num(n)) => *n,
                other => panic!("no service_cost: {other:?}"),
            }
        };
        assert!(cost(&refined) <= cost(&off) + 1e-9, "refined plan must not cost more");
        let text = String::from_utf8(refined.body).unwrap();
        assert!(text.contains("\"refine\":{\"mode\":\"inline\",\"refined\":true"), "{text}");
        assert_eq!(state.metrics.refine_passes.load(Relaxed), 1);
        // The off-mode response must stay byte-compatible: no refine
        // object at all.
        let off_text = String::from_utf8(off.body).unwrap();
        assert!(!off_text.contains("\"refine\""), "{off_text}");
    }

    /// Background mode answers with the constructive plan immediately
    /// (`refined:false`), and draining the queue upgrades the cached
    /// entry in place: same key, same dispatch count, lower-or-equal
    /// cost, `refined:true`.
    #[test]
    fn background_refine_upgrades_the_cached_entry_in_place() {
        let state = AppState::new(32);
        let body =
            small_plan_body(11).replace("\"seed\": 11", "\"seed\": 11, \"refine\": \"background\"");
        let first = plan(&state, body.as_bytes());
        assert_eq!(first.status, 200);
        let first_text = String::from_utf8(first.body).unwrap();
        assert!(
            first_text.contains("\"refine\":{\"mode\":\"background\",\"refined\":false"),
            "{first_text}"
        );
        assert_eq!(state.refine_queue.len(), 1);

        assert_eq!(crate::refine::drain(&state), 1);
        assert_eq!(state.metrics.refine_upgrades.load(Relaxed), 1);
        assert_eq!(state.metrics.refine_jobs_dropped.load(Relaxed), 0);

        let second = plan(&state, body.as_bytes());
        let second_text = String::from_utf8(second.body).unwrap();
        assert!(second_text.starts_with("{\"cache_hit\":true,"), "{second_text}");
        assert!(
            second_text.contains("\"refine\":{\"mode\":\"background\",\"refined\":true"),
            "{second_text}"
        );
        let cost = |t: &str| {
            let v = serde_json::parse_value(t).unwrap();
            match v.get("result").and_then(|r| r.get("service_cost")) {
                Some(Value::Num(n)) => *n,
                other => panic!("no service_cost: {other:?}"),
            }
        };
        assert!(cost(&second_text) <= cost(&first_text) + 1e-9);
    }

    /// If the constructive entry is gone by the time its job runs (here:
    /// a zero-capacity cache, the degenerate case of LRU eviction), the
    /// upgrade is dropped and counted — never re-inserted over a live
    /// entry's slot.
    #[test]
    fn background_refine_drops_evicted_entries() {
        let state = AppState::new(0);
        let body =
            small_plan_body(13).replace("\"seed\": 13", "\"seed\": 13, \"refine\": \"background\"");
        assert_eq!(plan(&state, body.as_bytes()).status, 200);
        assert_eq!(crate::refine::drain(&state), 1);
        assert_eq!(state.metrics.refine_upgrades.load(Relaxed), 0);
        assert_eq!(state.metrics.refine_jobs_dropped.load(Relaxed), 1);
    }

    #[test]
    fn simulate_runs_with_and_without_faults() {
        let body = small_plan_body(2).replace("\"seed\": 2", "\"seed\": 2, \"algo\": \"Greedy\"");
        let r = simulate(body.as_bytes());
        assert_eq!(r.status, 200);
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("\"algo\":\"Greedy\""), "{text}");
        assert!(text.contains("\"service_cost\":"), "{text}");

        let faulty = small_plan_body(2).replace(
            "\"seed\": 2",
            r#""seed": 2, "faults": {"chargers": {"mtbf": 10.0, "mttr": 20.0}, "seed": 1}"#,
        );
        let r = simulate(faulty.as_bytes());
        assert_eq!(r.status, 200);
        let v = serde_json::parse_value(std::str::from_utf8(&r.body).unwrap()).unwrap();
        let breakdowns = v
            .get("result")
            .and_then(|r| r.get("faults"))
            .and_then(|f| f.get("breakdowns"))
            .cloned();
        assert!(matches!(breakdowns, Some(Value::Num(n)) if n > 0.0), "{breakdowns:?}");
    }

    fn num_field(body: &str, key: &str) -> f64 {
        let v = serde_json::parse_value(body).unwrap();
        match v.get(key) {
            Some(Value::Num(n)) => *n,
            other => panic!("no numeric `{key}` in {body}: {other:?}"),
        }
    }

    #[test]
    fn session_lifecycle_create_ingest_plan_delete() {
        let state = AppState::new(8);
        let created = session_create(&state, small_plan_body(9).as_bytes());
        assert_eq!(created.status, 200, "{:?}", created.body);
        let created_body = String::from_utf8(created.body).unwrap();
        let id = num_field(&created_body, "session") as u64;
        assert_eq!(state.sessions.len(), 1);

        // A batch that touches nothing stays planner-free.
        let r = session_telemetry(&state, id, br#"{"time": 0.5}"#);
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"replan\":\"none\""), "{body}");
        assert_eq!(num_field(&body, "planner_calls"), 0.0, "{body}");

        let plan = get_plan(&state, id);
        assert_eq!(plan.status, 200);
        let plan_body = String::from_utf8(plan.body).unwrap();
        assert!(plan_body.contains("\"assigned_cycles\""), "{plan_body}");

        assert_eq!(session_delete(&state, id).status, 200);
        assert_eq!(state.sessions.len(), 0);
        assert_eq!(get_plan(&state, id).status, 404);
        assert_eq!(session_delete(&state, id).status, 404);
    }

    #[test]
    fn session_errors_are_typed() {
        let state = AppState::new(8);
        // Create-time errors.
        for (body, kind) in [
            (r#"{"#.to_string(), "bad_json"),
            (r#"{"no_scenario": 1}"#.to_string(), "bad_json"),
            (small_plan_body(1).replace("\"q\": 2", "\"q\": 0"), "invalid_scenario"),
            (
                small_plan_body(1).replace("\"seed\": 1", "\"seed\": 1, \"margin\": 2.0"),
                "invalid_session",
            ),
            (
                small_plan_body(1).replace("\"seed\": 1", "\"seed\": 1, \"gamma\": \"x\""),
                "bad_json",
            ),
        ] {
            let r = session_create(&state, body.as_bytes());
            assert_eq!(r.status, 400, "{body}");
            let text = String::from_utf8(r.body).unwrap();
            assert!(text.contains(&format!("\"kind\":\"{kind}\"")), "{text}");
        }

        // Ingest-time errors against a real session.
        let created = session_create(&state, small_plan_body(2).as_bytes());
        let id = num_field(&String::from_utf8(created.body).unwrap(), "session") as u64;
        let r = session_telemetry(&state, id, br#"{"time": 1.0}"#);
        assert_eq!(r.status, 200);
        // Time travel and unknown sensors are typed 400s, not panics.
        let r = session_telemetry(&state, id, br#"{"time": 0.2}"#);
        assert_eq!(r.status, 400);
        assert!(String::from_utf8(r.body).unwrap().contains("invalid_telemetry"));
        let r = session_telemetry(
            &state,
            id,
            br#"{"time": 1.5, "records": [{"sensor": 999, "rate": 0.1}]}"#,
        );
        assert_eq!(r.status, 400);
        // Unknown session id.
        assert_eq!(session_telemetry(&state, 777, br#"{"time": 1.0}"#).status, 404);
    }

    #[test]
    fn session_eviction_is_counted() {
        // One shard so the capacity-1 LRU semantics are exact.
        let state = AppState::new(8).with_sessions(1, 1);
        let first = session_create(&state, small_plan_body(1).as_bytes());
        assert_eq!(first.status, 200);
        let first_id = num_field(&String::from_utf8(first.body).unwrap(), "session") as u64;
        let second = session_create(&state, small_plan_body(2).as_bytes());
        assert_eq!(second.status, 200);
        assert_eq!(state.sessions.len(), 1);
        assert_eq!(state.metrics.session_evictions.load(Relaxed), 1);
        assert_eq!(get_plan(&state, first_id).status, 404, "evicted session is gone");
    }

    /// Creates `count` sessions and returns their ids.
    fn make_sessions(state: &AppState, count: usize) -> Vec<u64> {
        (0..count)
            .map(|i| {
                let r = session_create(state, small_plan_body(100 + i as u64).as_bytes());
                assert_eq!(r.status, 200);
                num_field(&String::from_utf8(r.body).unwrap(), "session") as u64
            })
            .collect()
    }

    fn batch_req(body: Vec<u8>, binary_body: bool, binary_accept: bool) -> Request {
        let mut req = Request::new("POST", "/telemetry/batch", body);
        if binary_body {
            req.content_type = Some(wire::CONTENT_TYPE.to_string());
        }
        if binary_accept {
            req.accept = Some(wire::CONTENT_TYPE.to_string());
        }
        req
    }

    #[test]
    fn batch_json_applies_frames_in_order_and_reports_errors_in_place() {
        let state = AppState::new(8).with_sessions(16, 4).with_batch_threads(4);
        let ids = make_sessions(&state, 3);
        let body = format!(
            concat!(
                r#"{{"frames":["#,
                r#"{{"session":{a},"time":1.0}},"#,
                r#"{{"session":{b},"time":1.0,"records":[{{"sensor":0,"rate":0.5}}]}},"#,
                r#"{{"session":777,"time":1.0}},"#,
                r#"{{"session":{a},"time":0.5}},"#,
                r#"{{"session":{c},"time":2.0}}]}}"#
            ),
            a = ids[0],
            b = ids[1],
            c = ids[2],
        );
        let resp = telemetry_batch(&state, &batch_req(body.into_bytes(), false, false));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        let v = serde_json::parse_value(&text).unwrap();
        assert_eq!(num_field(&text, "frames"), 5.0);
        assert_eq!(num_field(&text, "errors"), 2.0, "{text}");
        let Some(Value::Arr(results)) = v.get("results") else {
            panic!("no results array: {text}");
        };
        assert_eq!(results.len(), 5);
        // Outcomes come back in request order: sessions in results match
        // the frames, and the two failures sit at positions 2 (unknown
        // session) and 3 (time travel within the group).
        let session_of = |r: &Value| match r.get("session") {
            Some(Value::Num(n)) => *n as u64,
            other => panic!("no session: {other:?}"),
        };
        assert_eq!(session_of(&results[0]), ids[0]);
        assert_eq!(session_of(&results[2]), 777);
        assert!(results[0].get("report").is_some(), "{text}");
        assert!(results[2].get("error").is_some(), "{text}");
        assert!(results[3].get("error").is_some(), "time travel rejected: {text}");
        assert!(results[4].get("report").is_some(), "later frame unaffected: {text}");
        assert_eq!(state.metrics.batch_frames.load(Relaxed), 5);
        assert_eq!(state.metrics.batch_frame_errors.load(Relaxed), 2);
    }

    #[test]
    fn batch_binary_round_trips_and_matches_sequential_ingest() {
        // Two identical states: one takes a binary batch, the other the
        // same frames one `session_telemetry` call at a time. Their final
        // plans must be byte-identical.
        let batched = AppState::new(8).with_sessions(16, 4).with_batch_threads(2);
        let sequential = AppState::new(8).with_sessions(16, 4);
        let b_ids = make_sessions(&batched, 2);
        let s_ids = make_sessions(&sequential, 2);
        assert_eq!(b_ids, s_ids, "deterministic session ids");

        let batches = vec![
            (b_ids[0], TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::rate(0, 0.9)] }),
            (b_ids[1], TelemetryBatch::tick(1.5)),
            (
                b_ids[0],
                TelemetryBatch { time: 2.0, records: vec![TelemetryRecord::level(1, 0.25)] },
            ),
        ];
        let frames: Vec<wire::Frame> =
            batches.iter().map(|(id, b)| wire::Frame::telemetry(*id, b.clone())).collect();

        let resp = telemetry_batch(&batched, &batch_req(wire::encode_frames(&frames), true, true));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, wire::CONTENT_TYPE);
        let outcomes = wire::decode_reports(&resp.body).expect("binary reports");
        assert_eq!(outcomes.len(), frames.len());

        for (id, batch) in &batches {
            let body = serde_json::to_string(batch).unwrap();
            let r = session_telemetry(&sequential, *id, body.as_bytes());
            assert_eq!(r.status, 200);
        }
        for &id in &b_ids {
            let b = get_plan(&batched, id).body;
            let s = get_plan(&sequential, id).body;
            assert_eq!(b, s, "batched and sequential plans diverge for session {id}");
        }
        // Binary reports carry the same ingest results the sequential
        // JSON path reported.
        for o in &outcomes {
            assert!(o.result.is_ok(), "{:?}", o.result);
        }
    }

    #[test]
    fn batch_binary_plan_summary_matches_json_plan() {
        let state = AppState::new(8);
        let ids = make_sessions(&state, 1);
        let r = session_telemetry(
            &state,
            ids[0],
            br#"{"time": 5.0, "records": [{"sensor": 0, "rate": 2.0}]}"#,
        );
        assert_eq!(r.status, 200);

        let mut req = Request::new("GET", format!("/session/{}/plan", ids[0]), Vec::new());
        req.accept = Some(wire::CONTENT_TYPE.to_string());
        let resp = session_plan(&state, ids[0], &req);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, wire::CONTENT_TYPE);
        let plan = wire::PlanWire::decode(&resp.body).expect("binary plan");

        let json = String::from_utf8(get_plan(&state, ids[0]).body).unwrap();
        assert_eq!(plan.revision, num_field(&json, "revision") as u64);
        assert_eq!(plan.now, num_field(&json, "now"));
        assert_eq!(plan.tau1, num_field(&json, "tau1"));
        assert_eq!(plan.service_cost, num_field(&json, "service_cost"));
        assert_eq!(plan.executed, num_field(&json, "executed") as u64);
        assert_eq!(plan.dispatches.len() as f64, num_field(&json, "dispatches"));
        assert!(!plan.assigned.is_empty());
    }

    /// Four bytes that are a well-formed length but the wrong magic: the
    /// same width as [`wire::MAGIC_FRAMES`] (`PBT1`), deliberately not
    /// any of the `P??1` magics, so the decoder's magic check — not a
    /// truncation check — must be what rejects it.
    const WRONG_MAGIC: [u8; 4] = *b"XXXX";

    #[test]
    fn batch_rejects_malformed_bodies() {
        let state = AppState::new(8);
        for (body, binary, kind) in [
            (b"{".to_vec(), false, "bad_json"),
            (br#"{"no_frames": 1}"#.to_vec(), false, "bad_json"),
            (WRONG_MAGIC.to_vec(), true, "bad_wire"),
            (wire::encode_frames(&[])[..4].to_vec(), true, "bad_wire"),
        ] {
            let r = telemetry_batch(&state, &batch_req(body, binary, false));
            assert_eq!(r.status, 400);
            let text = String::from_utf8(r.body).unwrap();
            assert!(text.contains(&format!("\"kind\":\"{kind}\"")), "{text}");
        }
        // An empty frame list is valid and a no-op.
        let r = telemetry_batch(&state, &batch_req(br#"{"frames": []}"#.to_vec(), false, false));
        assert_eq!(r.status, 200);
    }

    /// The refine knob must not open a parsing side door: binary garbage
    /// (wrong magic or real PBT1 frames) posted to `/plan` is still
    /// `bad_json`, and a bad `refine` value is rejected before any
    /// scenario work.
    #[test]
    fn plan_refine_path_rejects_bad_knobs_and_binary_bodies() {
        let state = AppState::new(8);
        for body in [WRONG_MAGIC.to_vec(), wire::encode_frames(&[])] {
            let r = plan(&state, &body);
            assert_eq!(r.status, 400);
            let text = String::from_utf8(r.body).unwrap();
            assert!(text.contains("\"kind\":\"bad_json\""), "{text}");
        }
        for body in [
            small_plan_body(1).replace("\"seed\": 1", "\"seed\": 1, \"refine\": \"sometimes\""),
            small_plan_body(1).replace("\"seed\": 1", "\"seed\": 1, \"refine\": 3"),
            small_plan_body(1).replace(
                "\"seed\": 1",
                "\"seed\": 1, \"refine\": \"inline\", \"refine_steps\": -1",
            ),
        ] {
            let r = plan(&state, body.as_bytes());
            assert_eq!(r.status, 400, "{body}");
            let text = String::from_utf8(r.body).unwrap();
            assert!(text.contains("\"kind\":\"bad_json\""), "{text}");
        }
    }

    use crate::journal::FsyncPolicy;

    fn journal_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perpetuum-handlers-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn with_journal(state: AppState, dir: &std::path::Path) -> AppState {
        let journal = JournalSet::open(
            dir,
            state.sessions.shard_count(),
            FsyncPolicy::Never,
            0,
            Arc::clone(&state.metrics),
        )
        .expect("open journal");
        state.with_journal(journal)
    }

    #[test]
    fn poisoned_session_is_quarantined_then_404() {
        let state = AppState::new(8);
        let ids = make_sessions(&state, 1);
        let slot = state.sessions.get(ids[0]).expect("present");
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = slot.lock().expect("clean lock");
            panic!("controller bug");
        }));
        let r = session_telemetry(&state, ids[0], br#"{"time": 1.0}"#);
        assert_eq!(r.status, 500);
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("session_quarantined"), "{text}");
        assert_eq!(state.metrics.sessions_quarantined.load(Relaxed), 1);
        // The quarantined session is gone, not wedged: plain 404s now.
        assert_eq!(session_telemetry(&state, ids[0], br#"{"time": 2.0}"#).status, 404);
        assert_eq!(get_plan(&state, ids[0]).status, 404);
        assert!(state.sessions.is_empty());
    }

    #[test]
    fn poisoned_session_fails_its_batch_frames_in_place() {
        let state = AppState::new(8).with_sessions(16, 4);
        let ids = make_sessions(&state, 2);
        let slot = state.sessions.get(ids[0]).expect("present");
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = slot.lock().expect("clean lock");
            panic!("controller bug");
        }));
        let frames = vec![
            wire::Frame::telemetry(ids[0], TelemetryBatch::tick(1.0)),
            wire::Frame::telemetry(ids[1], TelemetryBatch::tick(1.0)),
        ];
        let resp = telemetry_batch(&state, &batch_req(wire::encode_frames(&frames), true, true));
        assert_eq!(resp.status, 200);
        let outcomes = wire::decode_reports(&resp.body).expect("binary reports");
        assert!(outcomes[0].result.is_err(), "poisoned session fails in place");
        assert!(outcomes[1].result.is_ok(), "healthy session unaffected");
        assert_eq!(state.metrics.sessions_quarantined.load(Relaxed), 1);
    }

    /// Reviewer scenario: a journal flush failure after the controller
    /// already ingested must not leave a session whose live state is
    /// ahead of its durable state — a retrying client would double-ingest
    /// (the same `time` passes monotonicity). Fail-stop: quarantine.
    #[test]
    fn flush_failure_after_ingest_quarantines_the_session() {
        let dir = journal_dir("failflush");
        let state = with_journal(AppState::new(8).with_sessions(16, 4), &dir);
        let ids = make_sessions(&state, 1);
        assert_eq!(session_telemetry(&state, ids[0], br#"{"time": 1.0}"#).status, 200);

        state.journal.as_ref().unwrap().fail_flush.store(true, Relaxed);
        let r = session_telemetry(&state, ids[0], br#"{"time": 2.0}"#);
        assert_eq!(r.status, 500);
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("journal_error"), "{text}");
        assert!(text.contains("quarantined"), "{text}");
        // Fail-stop: the session is gone, so a retry 404s instead of
        // double-ingesting the batch it never saw acknowledged.
        assert_eq!(session_telemetry(&state, ids[0], br#"{"time": 2.0}"#).status, 404);
        assert_eq!(state.metrics.sessions_quarantined.load(Relaxed), 1);

        // Once flushing works again (the drop-flush), the re-staged
        // Frames ride along with the quarantine End: recovery sees a
        // closed stream, not a resurrected session.
        state.journal.as_ref().unwrap().fail_flush.store(false, Relaxed);
        drop(state);
        let recovered = AppState::new(8).with_sessions(16, 4);
        let journal = JournalSet::open(
            &dir,
            recovered.sessions.shard_count(),
            FsyncPolicy::Never,
            0,
            Arc::clone(&recovered.metrics),
        )
        .expect("reopen journal");
        let stats = journal.recover(&recovered.sessions).expect("recover");
        assert_eq!(stats.sessions, 0, "quarantined session stays dead");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_failure_on_create_does_not_leave_a_ghost_session() {
        let dir = journal_dir("failcreate");
        let state = with_journal(AppState::new(8).with_sessions(16, 4), &dir);
        state.journal.as_ref().unwrap().fail_flush.store(true, Relaxed);
        let r = session_create(&state, small_plan_body(1).as_bytes());
        assert_eq!(r.status, 500);
        assert!(String::from_utf8(r.body).unwrap().contains("journal_error"));
        assert!(state.sessions.is_empty(), "failed create leaves no live session");

        // The re-staged Create persists alongside its End tombstone on
        // the next successful flush: recovery sees a closed stream, not
        // a session the client was told failed.
        state.journal.as_ref().unwrap().fail_flush.store(false, Relaxed);
        drop(state);
        let recovered = AppState::new(8).with_sessions(16, 4);
        let journal = JournalSet::open(
            &dir,
            recovered.sessions.shard_count(),
            FsyncPolicy::Never,
            0,
            Arc::clone(&recovered.metrics),
        )
        .expect("reopen journal");
        let stats = journal.recover(&recovered.sessions).expect("recover");
        assert_eq!(stats.sessions, 0, "no ghost session after a failed create");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_failure_after_batch_quarantines_every_accepting_session() {
        let dir = journal_dir("failbatch");
        let state = with_journal(AppState::new(8).with_sessions(16, 4), &dir);
        let ids = make_sessions(&state, 2);
        state.journal.as_ref().unwrap().fail_flush.store(true, Relaxed);
        let frames = vec![
            wire::Frame::telemetry(ids[0], TelemetryBatch::tick(1.0)),
            wire::Frame::telemetry(ids[1], TelemetryBatch::tick(1.0)),
            wire::Frame::telemetry(777, TelemetryBatch::tick(1.0)),
        ];
        let resp = telemetry_batch(&state, &batch_req(wire::encode_frames(&frames), true, false));
        assert_eq!(resp.status, 500);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("journal_error"), "{text}");
        assert!(text.contains("2 session(s) quarantined"), "{text}");
        assert!(state.sessions.is_empty(), "both accepting sessions quarantined");
        assert_eq!(state.metrics.sessions_quarantined.load(Relaxed), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The three ingest endpoints share one core, so they share its error
    /// mapping. Every cell runs on a fresh journaled state holding one
    /// session and posts one frame (or one malformed body); it pins the
    /// status, the `kind` — for the batch endpoint's in-place errors, a
    /// fragment of the frame's error text — and how many records beyond
    /// the session's `Create` reach the WAL once flushing works again.
    #[test]
    fn ingest_endpoints_share_one_error_mapping() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Endpoint {
            Telemetry,
            Events,
            Batch,
        }
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Case {
            UnknownSession,
            UnknownSessionMalformedBody,
            MalformedBody,
            Rejected,
            SyncRequired,
            PoisonedSlot,
            FlushFailure,
        }
        use Case::*;
        use Endpoint::*;
        type Cell = Option<(u16, &'static str, usize)>;
        // Columns: telemetry (JSON), events (PBT1), batch (PBT1 in, JSON
        // out). A telemetry frame never needs a sync, so that cell is
        // empty; the batch endpoint gets an events frame for it.
        let table: [(Case, [Cell; 3]); 7] = [
            (
                UnknownSession,
                [
                    Some((404, "unknown_session", 0)),
                    Some((404, "unknown_session", 0)),
                    Some((200, "no session 777", 0)),
                ],
            ),
            (
                UnknownSessionMalformedBody,
                [
                    Some((404, "unknown_session", 0)),
                    Some((404, "unknown_session", 0)),
                    Some((400, "bad_wire", 0)),
                ],
            ),
            (
                MalformedBody,
                [
                    Some((400, "bad_json", 0)),
                    Some((400, "bad_wire", 0)),
                    Some((400, "bad_wire", 0)),
                ],
            ),
            (
                Rejected,
                [
                    Some((400, "invalid_telemetry", 0)),
                    Some((400, "invalid_events", 0)),
                    Some((200, "sensor 999 out of range", 0)),
                ],
            ),
            (
                SyncRequired,
                [None, Some((409, "sync_required", 0)), Some((200, "full replan required", 0))],
            ),
            (
                PoisonedSlot,
                [
                    Some((500, "session_quarantined", 1)),
                    Some((500, "session_quarantined", 1)),
                    Some((200, "was quarantined", 1)),
                ],
            ),
            (
                FlushFailure,
                [
                    Some((500, "journal_error", 2)),
                    Some((500, "journal_error", 2)),
                    Some((500, "journal_error", 2)),
                ],
            ),
        ];

        for (case, cells) in table {
            for (endpoint, cell) in [Telemetry, Events, Batch].into_iter().zip(cells) {
                let Some((status, kind, journaled)) = cell else { continue };
                let dir = journal_dir(&format!("table-{case:?}-{endpoint:?}"));
                let state = with_journal(AppState::new(8).with_sessions(16, 4), &dir);
                let live = make_sessions(&state, 1)[0];
                let id = if matches!(case, UnknownSession | UnknownSessionMalformedBody) {
                    777
                } else {
                    live
                };
                let frame = if endpoint == Events || case == SyncRequired {
                    let events = match case {
                        Rejected => vec![ClassEvent::new(999, 0.1, 0.1, 0.5)],
                        // A rate this high undercuts τ₁: a full replan.
                        SyncRequired => vec![ClassEvent::new(0, 1e6, 1e6, 0.5)],
                        _ => Vec::new(),
                    };
                    wire::Frame::events(id, EventBatch::new(1.0, events))
                } else {
                    let records = match case {
                        Rejected => vec![TelemetryRecord::rate(999, 0.1)],
                        _ => Vec::new(),
                    };
                    wire::Frame::telemetry(id, TelemetryBatch { time: 1.0, records })
                };
                let malformed = matches!(case, MalformedBody | UnknownSessionMalformedBody);
                let binary = if malformed {
                    WRONG_MAGIC.to_vec()
                } else {
                    wire::encode_frames(std::slice::from_ref(&frame))
                };
                match case {
                    PoisonedSlot => {
                        let slot = state.sessions.get(live).expect("present");
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            let _guard = slot.lock().expect("clean lock");
                            panic!("controller bug");
                        }));
                    }
                    FlushFailure => state.journal.as_ref().unwrap().fail_flush.store(true, Relaxed),
                    _ => {}
                }

                let r = match endpoint {
                    Telemetry => {
                        let body = match (&frame.payload, malformed) {
                            (wire::FramePayload::Telemetry(b), false) => {
                                serde_json::to_string(b).unwrap().into_bytes()
                            }
                            _ => b"{".to_vec(),
                        };
                        session_telemetry(&state, id, &body)
                    }
                    Events => {
                        let mut req = Request::new("POST", format!("/session/{id}/events"), binary);
                        req.content_type = Some(wire::CONTENT_TYPE.to_string());
                        session_events(&state, id, &req)
                    }
                    Batch => telemetry_batch(&state, &batch_req(binary, true, false)),
                };
                let text = String::from_utf8(r.body).unwrap();
                let cell = format!("{case:?} on {endpoint:?}: {text}");
                assert_eq!(r.status, status, "{cell}");
                if status == 200 {
                    let v = serde_json::parse_value(&text).unwrap();
                    let Some(Value::Arr(results)) = v.get("results") else { panic!("{cell}") };
                    let Some(Value::Str(error)) = results[0].get("error") else { panic!("{cell}") };
                    assert!(error.contains(kind), "{cell}");
                } else {
                    assert!(text.contains(&format!("\"kind\":\"{kind}\"")), "{cell}");
                }

                let journal = state.journal.as_ref().unwrap();
                journal.fail_flush.store(false, Relaxed);
                journal.flush().expect("flush");
                let records: usize = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .filter(|p| p.extension().is_some_and(|x| x == "wal"))
                    .flat_map(|p| crate::journal::decode_log(&std::fs::read(p).unwrap()).records)
                    .filter(|r| {
                        matches!(
                            r,
                            crate::journal::Record::Frames(_) | crate::journal::Record::End { .. }
                        )
                    })
                    .count();
                assert_eq!(records, journaled, "{cell}");
                drop(state);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn journaled_lifecycle_survives_recovery_byte_identically() {
        let dir = journal_dir("lifecycle");
        let state = with_journal(AppState::new(8).with_sessions(16, 4), &dir);
        let ids = make_sessions(&state, 2);
        let r = session_telemetry(
            &state,
            ids[0],
            br#"{"time": 1.0, "records": [{"sensor": 0, "rate": 0.9}]}"#,
        );
        assert_eq!(r.status, 200);
        assert_eq!(session_delete(&state, ids[1]).status, 200);
        let expected = get_plan(&state, ids[0]).body;
        drop(state); // crash: nothing flushed beyond the appends themselves

        let recovered = AppState::new(8).with_sessions(16, 4);
        let journal = JournalSet::open(
            &dir,
            recovered.sessions.shard_count(),
            FsyncPolicy::Never,
            0,
            Arc::clone(&recovered.metrics),
        )
        .expect("reopen journal");
        let stats = journal.recover(&recovered.sessions).expect("recover");
        assert_eq!(stats.sessions, 1);
        let recovered = recovered.with_journal(journal);
        assert_eq!(get_plan(&recovered, ids[0]).body, expected, "byte-identical plan");
        assert_eq!(get_plan(&recovered, ids[1]).status, 404, "deleted session stays dead");
        assert_eq!(recovered.metrics.sessions_recovered.load(Relaxed), 1);
        // Fresh sessions allocate past every journaled id.
        let more = make_sessions(&recovered, 1);
        assert!(more[0] > ids[1], "id counter resumed past {}, got {}", ids[1], more[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicted_session_stays_dead_after_recovery_and_404s_both_negotiations() {
        let dir = journal_dir("evict");
        // Capacity 1, one shard: the second create evicts the first.
        let state = with_journal(AppState::new(8).with_sessions(1, 1), &dir);
        let ids = make_sessions(&state, 1);
        assert_eq!(
            session_telemetry(&state, ids[0], br#"{"time": 1.0}"#).status,
            200,
            "journal holds state for the soon-evicted session"
        );
        let survivor = make_sessions(&state, 1)[0];
        assert_eq!(state.metrics.session_evictions.load(Relaxed), 1);

        // JSON negotiation: deterministic 404 with a typed error body.
        let r = session_telemetry(&state, ids[0], br#"{"time": 2.0}"#);
        assert_eq!(r.status, 404);
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("unknown_session"), "{text}");
        // Binary negotiation: the frame fails in place with an error body.
        let frames = vec![wire::Frame::telemetry(ids[0], TelemetryBatch::tick(2.0))];
        let resp = telemetry_batch(&state, &batch_req(wire::encode_frames(&frames), true, true));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, wire::CONTENT_TYPE);
        let outcomes = wire::decode_reports(&resp.body).expect("binary reports");
        assert!(
            matches!(&outcomes[0].result, Err(e) if e.contains("no session")),
            "{:?}",
            outcomes[0].result
        );
        drop(state);

        // Recovery must not resurrect the evicted session's stale state.
        let recovered = AppState::new(8).with_sessions(1, 1);
        let journal = JournalSet::open(
            &dir,
            recovered.sessions.shard_count(),
            FsyncPolicy::Never,
            0,
            Arc::clone(&recovered.metrics),
        )
        .expect("reopen journal");
        let stats = journal.recover(&recovered.sessions).expect("recover");
        assert_eq!(stats.sessions, 1, "only the survivor comes back");
        let recovered = recovered.with_journal(journal);
        assert_eq!(get_plan(&recovered, ids[0]).status, 404, "evicted session not resurrected");
        assert_eq!(get_plan(&recovered, survivor).status, 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_rejects_bad_algo_and_bad_faults() {
        let bad_algo = small_plan_body(2).replace("\"seed\": 2", "\"seed\": 2, \"algo\": \"Nope\"");
        let r = simulate(bad_algo.as_bytes());
        assert_eq!(r.status, 400);
        let bad_faults = small_plan_body(2).replace(
            "\"seed\": 2",
            r#""seed": 2, "faults": {"chargers": {"mtbf": -1.0, "mttr": 20.0}}"#,
        );
        let r = simulate(bad_faults.as_bytes());
        assert_eq!(r.status, 400);
        assert!(String::from_utf8(r.body).unwrap().contains("invalid_faults"));
    }
}
