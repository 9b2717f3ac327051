//! Deterministic closed-loop scheduling controller.
//!
//! [`OnlineController`] wraps a variable-cycle charging plan (paper §V,
//! Algorithm 3 + the `V^a` repair) with a streaming telemetry loop:
//!
//! 1. **Rate tracking** — every reported rate sample feeds a per-sensor
//!    [`EwmaPredictor`]; the working estimate is the pessimistic
//!    `max(predicted, last observed)` so the controller never plans a longer
//!    cycle than the freshest sample justifies.
//! 2. **Drift detection** — a batch invalidates the running plan only if a
//!    *touched* sensor's achievable cycle `τ̂_i` leaves the power-of-two
//!    applicability band `[τ'_i, 2·τ'_i)` of its scheduled cycle. In-band
//!    wobble is absorbed with **zero planner invocations**.
//! 3. **Incremental replanning** — when only rounding classes shift (and
//!    `τ₁`/`K` survive), the affected cumulative sets `D_k` are *spliced*
//!    by the persistent [`IncrementalPlanner`] (bounded candidate-edge
//!    forest surgery + warm-started tour repair) and future dispatches are
//!    retargeted in place; the dispatch timeline is untouched. A `τ₁`
//!    undercut or a class-structure change falls back to a full
//!    Algorithm-3 round with `V^a` repair, which re-seeds the planner.
//! 4. **Emergency dispatch** — a min-heap of predicted death times (same
//!    shape as the simulator's death-prediction queue) is checked after
//!    every batch; a sensor whose predicted death precedes its next
//!    scheduled visit gets an immediate rescue tour appended at `now`.
//!
//! The controller is pure state-machine: no clocks, no RNG, no I/O. The
//! same construction arguments and telemetry stream therefore produce a
//! byte-identical plan sequence (pinned by `tests/determinism.rs`).
//!
//! Stale *modified* repair sets from an earlier full replan are not
//! rewritten by later incremental rounds — if drift makes one insufficient,
//! the deadline queue catches the affected sensor and issues a rescue
//! dispatch, so safety never depends on repair-set freshness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use perpetuum_core::incremental::{IncrementalConfig, IncrementalPlanner};
use perpetuum_core::network::Network;
use perpetuum_core::recovery::degraded_tour_set;
use perpetuum_core::refine::{refine, Budget};
use perpetuum_core::rounding::power_class;
use perpetuum_core::schedule::ScheduleSeries;
use perpetuum_core::var::{replan_variable_detailed, RepairStrategy, VarInput};
use perpetuum_energy::predictor::{schedule_still_applicable, EwmaPredictor};
use serde::{Serialize, Value};

use crate::events::EventBatch;
use crate::telemetry::TelemetryBatch;

/// Comparison slack for dispatch times, matching the sim engine's epsilon.
const EPS: f64 = 1e-9;

/// Base seed for full-replan refinement, xor-folded with the replan
/// counter so every round walks a fresh (but reproducible) trajectory.
const REFINE_SEED: u64 = 0x5EED_0F12_3456_789A;

/// Typed ingest/construction failures. The serve layer maps these onto
/// HTTP 4xx bodies; the sim harness treats any of them as a bug.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// The network has no sensors.
    EmptyNetwork,
    /// The network has no depots — nothing can ever be dispatched.
    NoChargers,
    /// A configuration field is outside its valid range.
    BadConfig { field: &'static str, value: f64 },
    /// A per-sensor vector does not have one entry per sensor.
    LengthMismatch { field: &'static str, expected: usize, got: usize },
    /// A numeric field is NaN or infinite.
    NonFinite { field: &'static str, value: f64 },
    /// A numeric field must be positive (or non-negative) and is not.
    NotPositive { field: &'static str, value: f64 },
    /// Batch time runs backwards relative to the controller clock.
    TimeNotMonotone { time: f64, now: f64 },
    /// A record names a sensor outside `0..n`.
    UnknownSensor { sensor: usize, n: usize },
    /// A suppressed-event batch would trigger a *full* replan, whose new
    /// `τ₁` grid depends on every sensor's current estimate — the client
    /// fleet must retry with a sync batch covering all sensors. The
    /// controller is left untouched (nothing was ingested).
    SyncRequired,
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyNetwork => write!(f, "network has no sensors"),
            Self::NoChargers => write!(f, "network has no depots/chargers"),
            Self::BadConfig { field, value } => {
                write!(f, "config field `{field}` out of range: {value}")
            }
            Self::LengthMismatch { field, expected, got } => {
                write!(f, "`{field}` must have {expected} entries, got {got}")
            }
            Self::NonFinite { field, value } => {
                write!(f, "`{field}` must be finite, got {value}")
            }
            Self::NotPositive { field, value } => {
                write!(f, "`{field}` must be positive, got {value}")
            }
            Self::TimeNotMonotone { time, now } => {
                write!(f, "batch time {time} precedes controller clock {now}")
            }
            Self::UnknownSensor { sensor, n } => {
                write!(f, "sensor {sensor} out of range (n = {n})")
            }
            Self::SyncRequired => {
                write!(f, "full replan required: retry with a sync batch covering all sensors")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// Controller tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Monitoring period end `T` (same clock as batch times).
    pub horizon: f64,
    /// EWMA discount for the per-sensor rate predictors.
    pub gamma: f64,
    /// Safety margin in `[0, 1)`: achievable cycles and residual lifetimes
    /// are shrunk by `1 - margin` before planning, trading service cost for
    /// robustness to under-reported rates. The same margin doubles as
    /// replan *hysteresis* — see [`OnlineController`]'s band test — so
    /// under steady upward drift the replan cadence is
    /// `log(1/(1-margin)) / log(1+drift)` slots instead of every slot.
    pub margin: f64,
    /// Extra head start (time units) required between a predicted death and
    /// the next scheduled visit before the visit counts as "in time".
    pub emergency_slack: f64,
    /// Anytime-refinement step budget applied to every *full* replan's
    /// fresh plan (`perpetuum_core::refine`; 0 = constructive plans
    /// only). Refinement is seeded from the replan counter, so the
    /// controller stays byte-deterministic. Incremental splices are not
    /// refined — their point is to be cheap.
    pub refine_steps: u64,
}

impl OnlineConfig {
    /// Paper-default controller over a monitoring period of `horizon`.
    pub fn new(horizon: f64) -> Self {
        Self {
            horizon,
            gamma: EwmaPredictor::DEFAULT_GAMMA,
            margin: 0.0,
            emergency_slack: 0.0,
            refine_steps: 0,
        }
    }

    /// Override the EWMA discount.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Override the planning safety margin.
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// Override the emergency head-start slack.
    pub fn with_emergency_slack(mut self, slack: f64) -> Self {
        self.emergency_slack = slack;
        self
    }

    /// Override the full-replan refinement budget.
    pub fn with_refine_steps(mut self, steps: u64) -> Self {
        self.refine_steps = steps;
        self
    }

    fn validate(&self) -> Result<(), OnlineError> {
        if !self.horizon.is_finite() {
            return Err(OnlineError::NonFinite { field: "horizon", value: self.horizon });
        }
        if self.horizon <= 0.0 {
            return Err(OnlineError::NotPositive { field: "horizon", value: self.horizon });
        }
        if !(self.gamma > 0.0 && self.gamma < 1.0) {
            return Err(OnlineError::BadConfig { field: "gamma", value: self.gamma });
        }
        if !(self.margin >= 0.0 && self.margin < 1.0) {
            return Err(OnlineError::BadConfig { field: "margin", value: self.margin });
        }
        if !(self.emergency_slack >= 0.0 && self.emergency_slack.is_finite()) {
            return Err(OnlineError::BadConfig {
                field: "emergency_slack",
                value: self.emergency_slack,
            });
        }
        Ok(())
    }
}

/// What a batch did to the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanKind {
    /// All touched sensors stayed inside their applicability bands — the
    /// planner was not invoked.
    None,
    /// Only affected cumulative sets were re-routed and retargeted.
    Incremental,
    /// A full Algorithm-3 + repair round replaced the series.
    Full,
}

impl ReplanKind {
    /// Stable lowercase name (used in JSON responses).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Incremental => "incremental",
            Self::Full => "full",
        }
    }
}

impl fmt::Display for ReplanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-batch ingest outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    /// Plan revision after this batch (bumps on any plan mutation).
    pub revision: u64,
    /// Controller clock after this batch.
    pub time: f64,
    /// Replanning tier this batch triggered.
    pub replan: ReplanKind,
    /// Touched sensors whose rounding class left its applicability band.
    pub class_changes: usize,
    /// Emergency rescue sensors dispatched by this batch.
    pub emergency_sensors: usize,
    /// Planner invocations (tour constructions / full replans) performed by
    /// this batch — zero for any class-stable batch.
    pub planner_calls: usize,
}

impl IngestReport {
    /// JSON view for the serve layer.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("revision".to_string(), Value::Num(self.revision as f64)),
            ("time".to_string(), Value::Num(self.time)),
            ("replan".to_string(), Value::Str(self.replan.as_str().to_string())),
            ("class_changes".to_string(), Value::Num(self.class_changes as f64)),
            ("emergency_sensors".to_string(), Value::Num(self.emergency_sensors as f64)),
            ("planner_calls".to_string(), Value::Num(self.planner_calls as f64)),
        ])
    }
}

/// Predicted death entry in the emergency queue. Ordered by time, then
/// sensor, then stamp — a total order, so heap behaviour is deterministic.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    time: f64,
    sensor: usize,
    stamp: u64,
}

impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Deadline {}

impl PartialOrd for Deadline {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Deadline {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.sensor.cmp(&other.sensor))
            .then(self.stamp.cmp(&other.stamp))
    }
}

/// The closed-loop controller. See the module docs for the control law.
#[derive(Debug)]
pub struct OnlineController {
    network: Network,
    cfg: OnlineConfig,
    capacities: Vec<f64>,

    // --- per-sensor estimator state -----------------------------------
    predictors: Vec<EwmaPredictor>,
    last_rate: Vec<f64>,
    level: Vec<f64>,
    level_time: Vec<f64>,

    // --- plan state ----------------------------------------------------
    now: f64,
    tau1: f64,
    class_of: Vec<usize>,
    assigned: Vec<f64>,
    series: ScheduleSeries,
    /// `base_ids[k]` = current set index serving cumulative class `D_k`.
    base_ids: Vec<usize>,
    /// Dispatches `< next_dispatch` have been executed (charges applied).
    next_dispatch: usize,
    /// Persistent forest/tour state backing the incremental tier; re-seeded
    /// by every full replan.
    planner: Option<IncrementalPlanner>,

    // --- emergency queue ----------------------------------------------
    heap: BinaryHeap<Reverse<Deadline>>,
    stamp: Vec<u64>,

    // --- charge log (for edge-client mirroring) ------------------------
    /// When enabled, every applied charge is appended as `(time, sensor)`
    /// so a harness can forward completed charges to `SensorClient`s.
    log_charges: bool,
    charged: Vec<(f64, usize)>,

    // --- counters ------------------------------------------------------
    revision: u64,
    planner_calls: usize,
    full_replans: usize,
    incremental_replans: usize,
    emergency_dispatches: usize,
}

impl OnlineController {
    /// Build a controller and compute the initial plan from deployment-time
    /// rate estimates (sensors start at full batteries, `now = 0`).
    pub fn new(
        network: Network,
        capacities: Vec<f64>,
        initial_rates: Vec<f64>,
        cfg: OnlineConfig,
    ) -> Result<Self, OnlineError> {
        cfg.validate()?;
        let n = network.n();
        if n == 0 {
            return Err(OnlineError::EmptyNetwork);
        }
        if network.q() == 0 {
            return Err(OnlineError::NoChargers);
        }
        if capacities.len() != n {
            return Err(OnlineError::LengthMismatch {
                field: "capacities",
                expected: n,
                got: capacities.len(),
            });
        }
        if initial_rates.len() != n {
            return Err(OnlineError::LengthMismatch {
                field: "initial_rates",
                expected: n,
                got: initial_rates.len(),
            });
        }
        for &c in &capacities {
            if !c.is_finite() {
                return Err(OnlineError::NonFinite { field: "capacities", value: c });
            }
            if c <= 0.0 {
                return Err(OnlineError::NotPositive { field: "capacities", value: c });
            }
        }
        for &r in &initial_rates {
            if !r.is_finite() {
                return Err(OnlineError::NonFinite { field: "initial_rates", value: r });
            }
            if r <= 0.0 {
                return Err(OnlineError::NotPositive { field: "initial_rates", value: r });
            }
        }

        let mut ctl = Self {
            predictors: initial_rates.iter().map(|&r| EwmaPredictor::new(cfg.gamma, r)).collect(),
            last_rate: initial_rates,
            level: capacities.clone(),
            level_time: vec![0.0; n],
            now: 0.0,
            tau1: 1.0,
            class_of: vec![0; n],
            assigned: vec![1.0; n],
            series: ScheduleSeries::new(),
            base_ids: Vec::new(),
            next_dispatch: 0,
            planner: None,
            heap: BinaryHeap::new(),
            stamp: vec![0; n],
            log_charges: false,
            charged: Vec::new(),
            revision: 0,
            planner_calls: 0,
            full_replans: 0,
            incremental_replans: 0,
            emergency_dispatches: 0,
            network,
            cfg,
            capacities,
        };
        ctl.full_replan();
        Ok(ctl)
    }

    // --- estimator views ----------------------------------------------

    /// Pessimistic working rate: the EWMA prediction, floored by the most
    /// recent raw sample so a sudden rate spike takes effect immediately.
    pub fn rate_estimate(&self, sensor: usize) -> f64 {
        self.predictors[sensor].predicted_rate().max(self.last_rate[sensor])
    }

    /// Estimated residual energy at time `t` under linear drain.
    fn level_at(&self, sensor: usize, t: f64) -> f64 {
        let drained = self.rate_estimate(sensor) * (t - self.level_time[sensor]);
        (self.level[sensor] - drained).max(0.0)
    }

    /// Current residual-energy estimate.
    pub fn level_estimate(&self, sensor: usize) -> f64 {
        self.level_at(sensor, self.now)
    }

    /// Achievable charging cycle `τ̂_i`: full-battery lifetime shrunk by the
    /// safety margin, clamped to the horizon (keeps the partition finite
    /// when a sensor's working rate is ~0).
    fn tau_hat(&self, sensor: usize) -> f64 {
        let rate = self.rate_estimate(sensor);
        if rate <= 0.0 {
            return self.cfg.horizon;
        }
        (self.capacities[sensor] / rate * (1.0 - self.cfg.margin)).min(self.cfg.horizon)
    }

    /// The applicability band test with margin hysteresis. With zero
    /// margin this is exactly [`schedule_still_applicable`]:
    /// `τ'_i <= τ̂ < 2·τ'_i`. With a positive margin the low edge relaxes
    /// to `τ'_i·(1 − margin)` — safe, because `τ̂` is itself the
    /// `(1 − margin)`-shrunk cycle, so the *true* achievable cycle is
    /// still at least `τ'_i` there. Without this slack the `τ₁`-anchor
    /// sensor (whose assigned cycle equals its planned `τ̂` exactly) would
    /// trigger a full replan on every infinitesimal rate increase.
    fn still_applicable(&self, sensor: usize, tau: f64) -> bool {
        let assigned = self.assigned[sensor];
        if self.cfg.margin == 0.0 {
            return schedule_still_applicable(assigned, tau);
        }
        tau >= assigned * (1.0 - self.cfg.margin) && tau < 2.0 * assigned
    }

    /// Predicted absolute death time under the working rate.
    fn death_time(&self, sensor: usize) -> f64 {
        let rate = self.rate_estimate(sensor);
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        self.level_time[sensor] + self.level[sensor] / rate
    }

    // --- accessors ------------------------------------------------------

    /// Sensor/depot geometry.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Controller clock (time of the latest batch).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Plan revision; bumps on every plan mutation.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Current base cycle `τ₁`.
    pub fn tau1(&self) -> f64 {
        self.tau1
    }

    /// Monitoring-period horizon the controller was configured with.
    pub fn horizon(&self) -> f64 {
        self.cfg.horizon
    }

    /// How many dispatches of [`Self::series`] have already executed
    /// (charges applied); the rest are pending.
    pub fn executed_dispatches(&self) -> usize {
        self.next_dispatch
    }

    /// Currently assigned (rounded) cycles `τ'_i`.
    pub fn assigned_cycles(&self) -> &[f64] {
        &self.assigned
    }

    /// The full schedule series (executed + pending dispatches).
    pub fn series(&self) -> &ScheduleSeries {
        &self.series
    }

    /// Cumulative planner invocations (tour constructions + full replans).
    pub fn planner_calls(&self) -> usize {
        self.planner_calls
    }

    /// Cumulative full replans.
    pub fn full_replans(&self) -> usize {
        self.full_replans
    }

    /// Cumulative incremental (per-class) replans.
    pub fn incremental_replans(&self) -> usize {
        self.incremental_replans
    }

    /// Cumulative emergency rescue dispatches.
    pub fn emergency_dispatches(&self) -> usize {
        self.emergency_dispatches
    }

    /// Enable (or disable) the charge log. Off by default — long-lived
    /// serve sessions must not accumulate an unbounded log; a closed-loop
    /// harness that mirrors charges into edge clients turns it on.
    pub fn set_charge_log(&mut self, enabled: bool) {
        self.log_charges = enabled;
        if !enabled {
            self.charged.clear();
        }
    }

    /// Drain the charge log: every `(time, sensor)` charge applied since
    /// the last drain, in application order. Always empty unless
    /// [`Self::set_charge_log`] enabled logging.
    pub fn take_charges(&mut self) -> Vec<(f64, usize)> {
        std::mem::take(&mut self.charged)
    }

    // --- ingest ---------------------------------------------------------

    /// Ingest one telemetry batch: advance the clock (executing due
    /// dispatches), update estimators, detect class drift, replan at the
    /// cheapest sufficient tier and run the emergency check.
    pub fn ingest(&mut self, batch: &TelemetryBatch) -> Result<IngestReport, OnlineError> {
        if !batch.time.is_finite() {
            return Err(OnlineError::NonFinite { field: "time", value: batch.time });
        }
        if batch.time < self.now - EPS {
            return Err(OnlineError::TimeNotMonotone { time: batch.time, now: self.now });
        }
        let n = self.network.n();
        for r in &batch.records {
            if r.sensor >= n {
                return Err(OnlineError::UnknownSensor { sensor: r.sensor, n });
            }
            if let Some(rate) = r.rate {
                if !rate.is_finite() {
                    return Err(OnlineError::NonFinite { field: "rate", value: rate });
                }
                if rate < 0.0 {
                    return Err(OnlineError::NotPositive { field: "rate", value: rate });
                }
            }
            if let Some(level) = r.level {
                if !level.is_finite() {
                    return Err(OnlineError::NonFinite { field: "level", value: level });
                }
                if level < 0.0 {
                    return Err(OnlineError::NotPositive { field: "level", value: level });
                }
            }
        }

        let planner_before = self.planner_calls;
        let t = batch.time.max(self.now);
        // Dispatches strictly before the batch time are already reflected
        // in the reported levels; dispatches scheduled at exactly `t` are
        // not (the report is read first, then the fleet goes out) and are
        // executed *after* the measurements below — otherwise a stale
        // pre-charge reading would spawn a phantom emergency.
        self.execute_due(t - EPS);
        self.now = t;

        // Apply the measurements. Settle each touched sensor's drain
        // estimate to `now` under the old rate *before* swapping rates, so
        // a rate change is not applied retroactively.
        let mut touched: Vec<usize> = Vec::with_capacity(batch.records.len());
        for r in &batch.records {
            let i = r.sensor;
            self.level[i] = self.level_at(i, t);
            self.level_time[i] = t;
            if let Some(rate) = r.rate {
                self.predictors[i].observe(rate);
                self.last_rate[i] = rate;
            }
            if let Some(level) = r.level {
                self.level[i] = level.min(self.capacities[i]);
            }
            touched.push(i);
        }
        touched.sort_unstable();
        touched.dedup();
        self.execute_due(t + EPS);

        // Drift detection: only touched sensors can have left their bands.
        let mut need_full = false;
        let mut changes: Vec<(usize, usize)> = Vec::new();
        for &i in &touched {
            let tau = self.tau_hat(i);
            if self.still_applicable(i, tau) {
                continue;
            }
            if tau < self.tau1 {
                // τ₁ undercut: the whole power-of-two grid shifts.
                need_full = true;
                changes.push((i, 0));
            } else {
                changes.push((i, power_class(self.tau1, tau)));
            }
        }
        let class_changes = changes.len();

        let mut replan = ReplanKind::None;
        if !changes.is_empty() && self.now < self.cfg.horizon {
            if !need_full && self.try_incremental(&changes) {
                replan = ReplanKind::Incremental;
            } else {
                self.full_replan();
                replan = ReplanKind::Full;
            }
        }

        for &i in &touched {
            self.push_deadline(i);
        }
        let emergency_sensors = self.check_emergencies();

        Ok(IngestReport {
            revision: self.revision,
            time: self.now,
            replan,
            class_changes,
            emergency_sensors,
            planner_calls: self.planner_calls - planner_before,
        })
    }

    /// Ingest a suppressed-event batch from edge clients: reconstruct the
    /// per-sensor estimator state carried by each [`crate::ClassEvent`]
    /// verbatim
    /// (`EwmaPredictor::from_state` — *not* a re-observation), then run the
    /// same drift/replan/emergency machinery as [`Self::ingest`].
    ///
    /// Because every event carries the exact post-observation state the
    /// full per-slot stream would have produced, the resulting plan
    /// sequence is byte-identical to streaming — provided the clients'
    /// drift tests mirror this controller's (they share the float
    /// expressions via `perpetuum-client`) and their plan/charge pictures
    /// are kept fresh.
    ///
    /// A batch that needs a **full** replan is refused with
    /// [`OnlineError::SyncRequired`] *before any state is mutated* unless
    /// [`EventBatch::sync`] is set: the new `τ₁` grid depends on every
    /// sensor's current estimate, so the fleet must report everyone. The
    /// tier decision is dry-run on the event payloads — valid because
    /// `τ̂` depends only on the event state and clock advancement never
    /// touches `assigned`/`τ₁`. A sync batch must carry one event per
    /// sensor (duplicates are tolerated; the last wins).
    pub fn ingest_events(&mut self, batch: &EventBatch) -> Result<IngestReport, OnlineError> {
        if !batch.time.is_finite() {
            return Err(OnlineError::NonFinite { field: "time", value: batch.time });
        }
        if batch.time < self.now - EPS {
            return Err(OnlineError::TimeNotMonotone { time: batch.time, now: self.now });
        }
        let n = self.network.n();
        for e in &batch.events {
            if e.sensor >= n {
                return Err(OnlineError::UnknownSensor { sensor: e.sensor, n });
            }
            if !e.rho_hat.is_finite() {
                return Err(OnlineError::NonFinite { field: "rho_hat", value: e.rho_hat });
            }
            if !e.last_rate.is_finite() {
                return Err(OnlineError::NonFinite { field: "last_rate", value: e.last_rate });
            }
            if e.last_rate < 0.0 {
                return Err(OnlineError::NotPositive { field: "last_rate", value: e.last_rate });
            }
            if !e.level.is_finite() {
                return Err(OnlineError::NonFinite { field: "level", value: e.level });
            }
            if e.level < 0.0 {
                return Err(OnlineError::NotPositive { field: "level", value: e.level });
            }
        }

        // Last event per sensor wins; `touched` in sorted order matches
        // `ingest`'s sort+dedup, so the change list (and therefore every
        // planner call) comes out in the identical order.
        let mut last_event: Vec<Option<&crate::events::ClassEvent>> = vec![None; n];
        let mut touched: Vec<usize> = Vec::with_capacity(batch.events.len());
        for e in &batch.events {
            if last_event[e.sensor].is_none() {
                touched.push(e.sensor);
            }
            last_event[e.sensor] = Some(e);
        }
        touched.sort_unstable();
        if batch.sync && touched.len() != n {
            return Err(OnlineError::LengthMismatch {
                field: "sync_events",
                expected: n,
                got: batch.events.len(),
            });
        }

        // Dry-run the drift decision on the post-event state, before any
        // mutation, so a refused batch leaves the controller untouched.
        let t = batch.time.max(self.now);
        let mut need_full = false;
        let mut changes: Vec<(usize, usize)> = Vec::new();
        for &i in &touched {
            let e = last_event[i].expect("touched implies an event");
            let rate = e.rho_hat.max(e.last_rate);
            let tau = if rate <= 0.0 {
                self.cfg.horizon
            } else {
                (self.capacities[i] / rate * (1.0 - self.cfg.margin)).min(self.cfg.horizon)
            };
            if self.still_applicable(i, tau) {
                continue;
            }
            if tau < self.tau1 {
                need_full = true;
                changes.push((i, 0));
            } else {
                changes.push((i, power_class(self.tau1, tau)));
            }
        }
        let class_changes = changes.len();
        let will_replan = !changes.is_empty() && t < self.cfg.horizon;
        if will_replan && (need_full || !self.incremental_feasible(&changes)) && !batch.sync {
            return Err(OnlineError::SyncRequired);
        }

        // Commit: same clock/charge choreography as `ingest`, but the
        // estimator state is *adopted*, not re-derived.
        let planner_before = self.planner_calls;
        self.execute_due(t - EPS);
        self.now = t;
        for &i in &touched {
            let e = last_event[i].expect("touched implies an event");
            self.predictors[i] = EwmaPredictor::from_state(self.cfg.gamma, e.rho_hat);
            self.last_rate[i] = e.last_rate;
            self.level[i] = e.level.min(self.capacities[i]);
            self.level_time[i] = t;
        }
        self.execute_due(t + EPS);

        let mut replan = ReplanKind::None;
        if will_replan {
            if !need_full && self.try_incremental(&changes) {
                replan = ReplanKind::Incremental;
            } else {
                self.full_replan();
                replan = ReplanKind::Full;
            }
        }

        for &i in &touched {
            self.push_deadline(i);
        }
        let emergency_sensors = self.check_emergencies();

        Ok(IngestReport {
            revision: self.revision,
            time: self.now,
            replan,
            class_changes,
            emergency_sensors,
            planner_calls: self.planner_calls - planner_before,
        })
    }

    /// Execute every pending dispatch with time `<= limit`: covered
    /// sensors are considered recharged to capacity at the dispatch time
    /// (the fleet's travel time is below the slot scale, as in the paper's
    /// instantaneous-service model).
    fn execute_due(&mut self, limit: f64) {
        while self.next_dispatch < self.series.dispatch_count() {
            let d = self.series.dispatches()[self.next_dispatch];
            if d.time > limit {
                break;
            }
            let covered: Vec<usize> = self.series.sets()[d.set].sensors().to_vec();
            for i in covered {
                self.level[i] = self.capacities[i];
                self.level_time[i] = d.time;
                self.push_deadline(i);
                if self.log_charges {
                    self.charged.push((d.time, i));
                }
            }
            self.next_dispatch += 1;
        }
    }

    /// Advance the clock to `t`, executing everything due by then.
    fn advance_to(&mut self, t: f64) {
        self.execute_due(t + EPS);
        self.now = t;
    }

    /// Queue (or refresh) a sensor's predicted-death deadline. Deadlines at
    /// or past the horizon are not queued — any state change re-pushes, so
    /// nothing is lost by dropping them.
    fn push_deadline(&mut self, sensor: usize) {
        self.stamp[sensor] += 1;
        let death = self.death_time(sensor);
        if death < self.cfg.horizon {
            self.heap.push(Reverse(Deadline { time: death, sensor, stamp: self.stamp[sensor] }));
        }
    }

    /// First pending dispatch that covers `sensor`, if any.
    fn next_charge_time(&self, sensor: usize) -> Option<f64> {
        self.series.dispatches()[self.next_dispatch..]
            .iter()
            .find(|d| self.series.sets()[d.set].contains_sensor(sensor))
            .map(|d| d.time)
    }

    /// Incremental tier: splice only the cumulative sets whose membership
    /// changed (persistent-forest surgery + warm-started tour repair via
    /// [`IncrementalPlanner::apply_migrations`]), retarget their future
    /// dispatches and keep the timeline. Returns `false` (without
    /// mutating) when the change is structural — a new class above `K`, a
    /// vanished top class, or an emptied set — and a full replan is
    /// required instead.
    fn try_incremental(&mut self, changes: &[(usize, usize)]) -> bool {
        if !self.incremental_feasible(changes) {
            return false;
        }
        let Some(planner) = self.planner.as_mut() else {
            return false; // unreachable: feasibility already checked
        };

        // Commit: splice the affected forests and swap the rebuilt sets in.
        for k in planner.apply_migrations(&self.network, changes) {
            self.planner_calls += 1;
            let id = self.series.add_set(planner.tour_set(k).clone());
            self.series.retarget_dispatches(self.base_ids[k], id, self.now);
            self.base_ids[k] = id;
        }
        for &(i, k) in changes {
            self.class_of[i] = k;
            self.assigned[i] = self.tau1 * f64::powi(2.0, k as i32);
        }
        self.incremental_replans += 1;
        self.revision += 1;
        true
    }

    /// Read-only feasibility half of [`Self::try_incremental`]: `true` iff
    /// the change set is non-structural and the persistent planner can
    /// splice it. Used both as the commit guard and as the *dry-run* tier
    /// decision of [`Self::ingest_events`] — the inputs (`changes`,
    /// `class_of`, `base_ids`) are untouched by clock advancement, so the
    /// pre-mutation answer is the post-mutation answer.
    fn incremental_feasible(&self, changes: &[(usize, usize)]) -> bool {
        let n = self.network.n();
        let k_max = self.base_ids.len() - 1;
        let mut new_class = self.class_of.clone();
        for &(i, k) in changes {
            if k > k_max {
                return false;
            }
            new_class[i] = k;
        }
        if new_class.iter().copied().max() != Some(k_max) {
            return false;
        }

        // Classes whose cumulative set D_k gained or lost a sensor: moving
        // i from class a to class b (a < b) removes it from D_a..D_{b-1}.
        // An emptied set stays structural (the grid would dispatch hollow
        // tours), so it falls through to the full tier like before.
        let mut affected = vec![false; k_max + 1];
        for &(i, k) in changes {
            let old = self.class_of[i];
            affected[old.min(k)..old.max(k)].fill(true);
        }
        for (k, _) in affected.iter().enumerate().filter(|(_, &a)| a) {
            if !(0..n).any(|i| new_class[i] <= k) {
                return false;
            }
        }
        self.planner.is_some()
    }

    /// Full tier: rebuild the plan from scratch with Algorithm 3 + the
    /// nearest-scheduling `V^a` repair, then execute any immediate repair
    /// dispatch the planner scheduled at `now`.
    fn full_replan(&mut self) {
        let n = self.network.n();
        let taus: Vec<f64> = (0..n).map(|i| self.tau_hat(i)).collect();
        let residuals: Vec<f64> = (0..n)
            .map(|i| {
                let rate = self.rate_estimate(i);
                if rate <= 0.0 {
                    return taus[i];
                }
                (self.level_at(i, self.now) / rate * (1.0 - self.cfg.margin)).min(taus[i])
            })
            .collect();
        let input = VarInput {
            network: &self.network,
            max_cycles: &taus,
            residuals: &residuals,
            now: self.now,
            horizon: self.cfg.horizon,
        };
        let detailed = replan_variable_detailed(&input, RepairStrategy::NearestScheduling);
        let (plan, planner) =
            IncrementalPlanner::from_detailed(&input, detailed, IncrementalConfig::default());
        self.planner = Some(planner);
        self.planner_calls += 1;
        self.full_replans += 1;
        self.series = plan.series;
        if self.cfg.refine_steps > 0 {
            // Anytime upgrade of the fresh constructive plan. Set ids and
            // dispatch times are preserved exactly, so `base_ids` below
            // stays valid and feasibility is untouched; the seed advances
            // with the replan counter, keeping the controller
            // byte-deterministic. Later incremental splices overwrite a
            // refined base set with a constructive one — cheapness is the
            // splice tier's contract, and the next full round re-refines.
            let budget = Budget::steps(self.cfg.refine_steps);
            let (refined, _) = refine(
                &self.network,
                &self.series,
                &budget,
                REFINE_SEED ^ self.full_replans as u64,
            );
            self.series = refined;
        }
        self.base_ids = plan.base_set_ids;
        self.assigned = plan.assigned_cycles;
        self.tau1 = self.assigned.iter().copied().fold(f64::INFINITY, f64::min);
        self.class_of = self.assigned.iter().map(|&a| power_class(self.tau1, a)).collect();
        self.next_dispatch = 0;
        self.revision += 1;
        // The repair tier may have scheduled `(C'_0, now)` — execute it.
        let t = self.now;
        self.advance_to(t);
    }

    /// Drain the deadline queue: any live deadline before the horizon whose
    /// sensor is not visited in time gets folded into one rescue dispatch
    /// at `now`. Returns the number of rescued sensors.
    fn check_emergencies(&mut self) -> usize {
        if self.now >= self.cfg.horizon {
            return 0;
        }
        let mut safe: Vec<Deadline> = Vec::new();
        let mut urgent: Vec<usize> = Vec::new();
        while let Some(Reverse(d)) = self.heap.pop() {
            if d.stamp != self.stamp[d.sensor] {
                continue; // superseded by a newer estimate
            }
            if d.time >= self.cfg.horizon {
                continue;
            }
            let visit_by = d.time - self.cfg.emergency_slack;
            match self.next_charge_time(d.sensor) {
                Some(t) if t <= visit_by + EPS => safe.push(d),
                _ => urgent.push(d.sensor),
            }
        }
        for d in safe {
            self.heap.push(Reverse(d));
        }
        if urgent.is_empty() {
            return 0;
        }
        urgent.sort_unstable();
        urgent.dedup();

        let alive = vec![true; self.network.q()];
        let Some(set) = degraded_tour_set(&self.network, &urgent, &alive) else {
            return 0; // unreachable: q >= 1 and all chargers are up
        };
        self.planner_calls += 1;
        let id = self.series.add_set(set);
        self.series.push_dispatch(self.now, id);
        self.series.sort_by_time();
        for &i in &urgent {
            self.level[i] = self.capacities[i];
            self.level_time[i] = self.now;
            if self.log_charges {
                self.charged.push((self.now, i));
            }
        }
        // The sort may have interleaved the rescue with executed history;
        // re-derive the executed prefix (everything due by `now` has been
        // executed, including the rescue itself).
        self.next_dispatch =
            self.series.dispatches().iter().filter(|d| d.time <= self.now + EPS).count();
        for &i in &urgent {
            self.push_deadline(i);
        }
        self.emergency_dispatches += 1;
        self.revision += 1;
        urgent.len()
    }

    // --- plan export ----------------------------------------------------

    /// The not-yet-executed tail of the plan as a fresh series whose
    /// dispatches all satisfy `time >= from` — the shape the sim engine's
    /// `PlanUpdate::Replace` requires.
    pub fn pending_series(&self, from: f64) -> ScheduleSeries {
        let mut out = ScheduleSeries::new();
        let mut remap = vec![usize::MAX; self.series.sets().len()];
        for d in self.series.dispatches() {
            if d.time < from - EPS {
                continue;
            }
            if remap[d.set] == usize::MAX {
                remap[d.set] = out.add_set(self.series.sets()[d.set].clone());
            }
            out.push_dispatch(d.time, remap[d.set]);
        }
        out
    }

    /// Deterministic JSON view of the current plan and counters.
    pub fn plan_value(&self) -> Value {
        Value::Obj(vec![
            ("revision".to_string(), Value::Num(self.revision as f64)),
            ("now".to_string(), Value::Num(self.now)),
            ("horizon".to_string(), Value::Num(self.cfg.horizon)),
            ("tau1".to_string(), Value::Num(self.tau1)),
            ("planner_calls".to_string(), Value::Num(self.planner_calls as f64)),
            ("full_replans".to_string(), Value::Num(self.full_replans as f64)),
            ("incremental_replans".to_string(), Value::Num(self.incremental_replans as f64)),
            ("emergency_dispatches".to_string(), Value::Num(self.emergency_dispatches as f64)),
            (
                "assigned_cycles".to_string(),
                Value::Arr(self.assigned.iter().map(|&c| Value::Num(c)).collect()),
            ),
            ("service_cost".to_string(), Value::Num(self.series.service_cost())),
            ("dispatches".to_string(), Value::Num(self.series.dispatch_count() as f64)),
            ("executed".to_string(), Value::Num(self.next_dispatch as f64)),
            ("schedule".to_string(), self.series.to_value()),
        ])
    }

    /// [`Self::plan_value`] rendered to a string; byte-identical across
    /// runs fed the same construction arguments and telemetry stream.
    pub fn plan_json(&self) -> String {
        serde_json::to_string(&self.plan_value()).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{TelemetryBatch, TelemetryRecord};
    use perpetuum_geom::Point2;

    /// 5 sensors on a line, one depot. Cycles 4, 5.5, 6.5, 13, 14 →
    /// τ₁ = 4, classes [0, 0, 0, 1, 1], assigned [4, 4, 4, 8, 8].
    fn controller() -> OnlineController {
        let sensors = vec![(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0), (40.0, 0.0)]
            .into_iter()
            .map(|(x, y)| Point2::new(x, y))
            .collect();
        let depots = vec![Point2::new(20.0, 30.0)];
        let network = Network::new(sensors, depots);
        let cycles = [4.0, 5.5, 6.5, 13.0, 14.0];
        let rates: Vec<f64> = cycles.iter().map(|c| 1.0 / c).collect();
        OnlineController::new(network, vec![1.0; 5], rates, OnlineConfig::new(100.0))
            .expect("valid controller")
    }

    #[test]
    fn initial_plan_matches_the_rounding_partition() {
        let ctl = controller();
        assert_eq!(ctl.tau1(), 4.0);
        assert_eq!(ctl.assigned_cycles(), &[4.0, 4.0, 4.0, 8.0, 8.0]);
        assert_eq!(ctl.planner_calls(), 1);
        assert_eq!(ctl.full_replans(), 1);
        assert!(ctl.series().dispatch_count() > 0);
    }

    #[test]
    fn in_band_wobble_is_planner_free() {
        let mut ctl = controller();
        let calls = ctl.planner_calls();
        let rev = ctl.revision();
        // Sensor 1: τ 5.5 → 5.0; sensor 3: τ 13 → 11. Both stay in-band.
        let batch = TelemetryBatch {
            time: 1.0,
            records: vec![
                TelemetryRecord::rate(1, 1.0 / 5.0),
                TelemetryRecord::rate(3, 1.0 / 11.0),
            ],
        };
        let report = ctl.ingest(&batch).expect("ingest");
        assert_eq!(report.replan, ReplanKind::None);
        assert_eq!(report.class_changes, 0);
        assert_eq!(report.planner_calls, 0, "class-stable batch must not plan");
        assert_eq!(ctl.planner_calls(), calls);
        assert_eq!(ctl.revision(), rev, "no mutation, no new revision");
    }

    #[test]
    fn class_drop_triggers_incremental_replan_only() {
        let mut ctl = controller();
        let calls = ctl.planner_calls();
        // Sensor 3: τ 13 → 5 (class 1 → 0); sensor 4 keeps class 1 alive.
        let batch = TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::rate(3, 0.2)] };
        let report = ctl.ingest(&batch).expect("ingest");
        assert_eq!(report.replan, ReplanKind::Incremental);
        assert_eq!(report.class_changes, 1);
        assert_eq!(report.planner_calls, 1, "exactly one re-routed class set");
        assert_eq!(ctl.planner_calls(), calls + 1);
        assert_eq!(ctl.incremental_replans(), 1);
        assert_eq!(ctl.full_replans(), 1, "no second full replan");
        assert_eq!(ctl.assigned_cycles()[3], 4.0);
        // The re-routed D_0 must now include sensor 3.
        let d0 = &ctl.series().sets()[ctl.base_ids[0]];
        assert!(d0.contains_sensor(3));
        assert!(d0.contains_sensor(0));
    }

    /// Full-replan refinement must only ever lower the travel bill, keep
    /// the dispatch grid intact (so `base_ids` and emergency targeting
    /// stay valid), and leave the controller byte-deterministic.
    #[test]
    fn refine_steps_cuts_full_replan_cost_deterministically() {
        let mut s = 0xDECAFu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let sensors: Vec<Point2> =
            (0..40).map(|_| Point2::new(next() * 200.0, next() * 200.0)).collect();
        let depots = vec![Point2::new(50.0, 50.0), Point2::new(150.0, 150.0)];
        let network = Network::new(sensors, depots);
        let cycles: Vec<f64> = (0..40).map(|i| 6.0 + (i % 4) as f64 * 4.0).collect();
        let rates: Vec<f64> = cycles.iter().map(|c| 1.0 / c).collect();

        let build = |steps: u64| {
            OnlineController::new(
                network.clone(),
                vec![1.0; 40],
                rates.clone(),
                OnlineConfig::new(200.0).with_refine_steps(steps),
            )
            .expect("valid controller")
        };
        let plain = build(0);
        let refined = build(300_000);
        let refined_again = build(300_000);

        assert!(
            refined.series().service_cost() < plain.series().service_cost(),
            "refinement found no gain on a 40-sensor scatter: {} vs {}",
            refined.series().service_cost(),
            plain.series().service_cost()
        );
        assert_eq!(refined.series().dispatches(), plain.series().dispatches());
        assert_eq!(refined.series().sets().len(), plain.series().sets().len());
        let bytes =
            |c: &OnlineController| serde_json::to_string(c.series()).expect("serialize series");
        assert_eq!(bytes(&refined), bytes(&refined_again), "refined replans must be reproducible");
    }

    #[test]
    fn margin_hysteresis_absorbs_small_anchor_rate_increases() {
        let sensors = vec![(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0), (40.0, 0.0)]
            .into_iter()
            .map(|(x, y)| Point2::new(x, y))
            .collect();
        let network = Network::new(sensors, vec![Point2::new(20.0, 30.0)]);
        let cycles = [4.0, 5.5, 6.5, 13.0, 14.0];
        let rates: Vec<f64> = cycles.iter().map(|c| 1.0 / c).collect();
        let cfg = OnlineConfig::new(100.0).with_margin(0.2);
        let mut ctl = OnlineController::new(network, vec![1.0; 5], rates, cfg).expect("controller");
        // Anchor sensor 0: +10% rate sits inside the 20% hysteresis zone.
        let small = TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::rate(0, 0.275)] };
        let report = ctl.ingest(&small).expect("ingest");
        assert_eq!(report.replan, ReplanKind::None, "hysteresis must absorb +10%");
        assert_eq!(report.planner_calls, 0);
        // +40% blows through the zone and forces a full replan.
        let big = TelemetryBatch { time: 2.0, records: vec![TelemetryRecord::rate(0, 0.35)] };
        let report = ctl.ingest(&big).expect("ingest");
        assert_eq!(report.replan, ReplanKind::Full, "+40% must replan");
    }

    #[test]
    fn tau1_undercut_triggers_full_replan() {
        let mut ctl = controller();
        // Sensor 0: τ 4 → 2, below τ₁ — the grid itself must move.
        let batch = TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::rate(0, 0.5)] };
        let report = ctl.ingest(&batch).expect("ingest");
        assert_eq!(report.replan, ReplanKind::Full);
        assert_eq!(ctl.full_replans(), 2);
        assert!(ctl.tau1() <= 2.0 + EPS, "new tau1 {} must fit sensor 0", ctl.tau1());
    }

    #[test]
    fn vanishing_top_class_falls_back_to_full_replan() {
        let mut ctl = controller();
        // Both class-1 sensors speed up into class 0 — K shrinks, so the
        // incremental tier must refuse and a full replan runs.
        let batch = TelemetryBatch {
            time: 1.0,
            records: vec![TelemetryRecord::rate(3, 0.2), TelemetryRecord::rate(4, 0.2)],
        };
        let report = ctl.ingest(&batch).expect("ingest");
        assert_eq!(report.replan, ReplanKind::Full);
        assert_eq!(ctl.full_replans(), 2);
    }

    #[test]
    fn level_crash_triggers_emergency_dispatch() {
        let mut ctl = controller();
        let rev = ctl.revision();
        // Sensor 2 reports 5% battery at t = 1; death ≈ 1.33, first
        // scheduled visit at τ₁ = 4 — far too late.
        let batch = TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::level(2, 0.05)] };
        let report = ctl.ingest(&batch).expect("ingest");
        assert_eq!(report.replan, ReplanKind::None, "no class left its band");
        assert_eq!(report.emergency_sensors, 1);
        assert_eq!(ctl.emergency_dispatches(), 1);
        assert!(ctl.revision() > rev);
        // The rescue recharged the sensor (estimate restored to capacity).
        assert!((ctl.level_estimate(2) - 1.0).abs() < 1e-12);
        // A rescue dispatch sits at `now` and is already executed.
        let rescued = ctl.series().dispatches().iter().any(|d| (d.time - 1.0).abs() < EPS);
        assert!(rescued, "rescue dispatch at t = 1 missing");
    }

    #[test]
    fn clock_advance_executes_due_dispatches() {
        let mut ctl = controller();
        let report = ctl.ingest(&TelemetryBatch::tick(4.5)).expect("ingest");
        assert_eq!(report.replan, ReplanKind::None);
        assert!(ctl.next_dispatch >= 1, "dispatch at τ₁ = 4 must have executed");
        // Class-0 sensors were recharged at t = 4.
        assert!((ctl.level_at(0, 4.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_travel_is_rejected() {
        let mut ctl = controller();
        ctl.ingest(&TelemetryBatch::tick(5.0)).expect("forward");
        let err = ctl.ingest(&TelemetryBatch::tick(4.0)).expect_err("backward");
        assert_eq!(err, OnlineError::TimeNotMonotone { time: 4.0, now: 5.0 });
    }

    #[test]
    fn bad_records_are_rejected_with_typed_errors() {
        let mut ctl = controller();
        let unknown = TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::rate(9, 0.1)] };
        assert_eq!(
            ctl.ingest(&unknown).expect_err("unknown sensor"),
            OnlineError::UnknownSensor { sensor: 9, n: 5 }
        );
        let nan = TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::rate(0, f64::NAN)] };
        assert!(matches!(
            ctl.ingest(&nan).expect_err("nan rate"),
            OnlineError::NonFinite { field: "rate", .. }
        ));
        let neg = TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::level(0, -0.1)] };
        assert!(matches!(
            ctl.ingest(&neg).expect_err("negative level"),
            OnlineError::NotPositive { field: "level", .. }
        ));
        // Rejected batches leave the clock untouched.
        assert_eq!(ctl.now(), 0.0);
    }

    #[test]
    fn pending_series_contains_only_future_dispatches() {
        let mut ctl = controller();
        ctl.ingest(&TelemetryBatch::tick(9.0)).expect("ingest");
        let pending = ctl.pending_series(9.0);
        assert!(pending.dispatches().iter().all(|d| d.time >= 9.0 - EPS));
        // Full plan keeps history; the tail is a strict suffix.
        let full = ctl.series().dispatch_count();
        assert!(pending.dispatch_count() < full);
        assert!(pending.dispatch_count() > 0);
    }

    #[test]
    fn invalid_construction_arguments_are_typed_errors() {
        let net = Network::new(vec![Point2::new(0.0, 0.0)], vec![Point2::new(1.0, 1.0)]);
        let cfg = OnlineConfig::new(10.0);
        assert!(matches!(
            OnlineController::new(net.clone(), vec![1.0, 2.0], vec![0.5], cfg),
            Err(OnlineError::LengthMismatch { field: "capacities", .. })
        ));
        assert!(matches!(
            OnlineController::new(net.clone(), vec![1.0], vec![-0.5], cfg),
            Err(OnlineError::NotPositive { field: "initial_rates", .. })
        ));
        assert!(matches!(
            OnlineController::new(net, vec![1.0], vec![0.5], OnlineConfig::new(-1.0)),
            Err(OnlineError::NotPositive { field: "horizon", .. })
        ));
    }
}
