//! Deterministic closed-loop scheduling controller.
//!
//! [`OnlineController`] wraps a variable-cycle charging plan (paper §V,
//! Algorithm 3 + the `V^a` repair) with a streaming telemetry loop:
//!
//! 1. **Rate tracking** — every sensor runs a [`SensorEstimator`], the
//!    same type the edge client runs: an EWMA predictor whose working
//!    estimate is the pessimistic `max(predicted, last observed)`, so the
//!    controller never plans a longer cycle than the freshest sample
//!    justifies.
//! 2. **Drift detection** — a batch invalidates the running plan only if a
//!    *touched* sensor's achievable cycle `τ̂_i` leaves the power-of-two
//!    applicability band `[τ'_i, 2·τ'_i)` of its scheduled cycle
//!    ([`SensorEstimator::drift`]). In-band wobble is absorbed with **zero
//!    planner invocations**.
//! 3. **Incremental replanning** — when only rounding classes shift (and
//!    `τ₁`/`K` survive), the affected cumulative sets `D_k` are *spliced*
//!    by the persistent [`IncrementalPlanner`] (bounded candidate-edge
//!    forest surgery + warm-started tour repair) and future dispatches are
//!    retargeted in place; the dispatch timeline is untouched. A `τ₁`
//!    undercut or a class-structure change falls back to a full
//!    Algorithm-3 round with `V^a` repair, which re-seeds the planner.
//! 4. **Emergency dispatch** — after every batch, a sensor whose predicted
//!    death precedes its next scheduled visit gets an immediate rescue
//!    tour appended at `now`. Every plan mutation bumps `revision` and
//!    every charge or report re-pushes the sensor's predicted death, so
//!    while the revision stands a batch examines only the sensors it
//!    re-pushed (touched or charged); after a bump it examines all `n`.
//!    Their next visits come from one walk over the pending dispatches
//!    ([`ScheduleSeries::next_charge_times`]).
//!
//! The controller is pure state-machine: no clocks, no RNG, no I/O. The
//! same construction arguments and telemetry stream therefore produce a
//! byte-identical plan sequence (pinned by `tests/determinism.rs`).
//!
//! Stale *modified* repair sets from an earlier full replan are not
//! rewritten by later incremental rounds — if drift makes one insufficient,
//! the emergency check catches the affected sensor and issues a rescue
//! dispatch, so safety never depends on repair-set freshness.

use std::fmt;

use perpetuum_core::incremental::IncrementalPlanner;
use perpetuum_core::network::Network;
use perpetuum_core::recovery::degraded_tour_set;
use perpetuum_core::schedule::ScheduleSeries;
use perpetuum_core::var::{RepairStrategy, VarInput, VarPlan};
use perpetuum_energy::predictor::{Drift, EwmaPredictor, SensorEstimator};
use serde::{Serialize, Value};

use crate::events::EventBatch;
use crate::telemetry::TelemetryBatch;

/// Comparison slack for dispatch times, matching the sim engine's epsilon.
const EPS: f64 = 1e-9;

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
}

impl OnlineConfig {
    /// Paper-default controller over a monitoring period of `horizon`.
    pub fn new(horizon: f64) -> Self {
        Self { horizon, gamma: EwmaPredictor::DEFAULT_GAMMA, margin: 0.0, emergency_slack: 0.0 }
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

/// The closed-loop controller. See the module docs for the control law.
#[derive(Debug)]
pub struct OnlineController {
    network: Network,
    cfg: OnlineConfig,
    /// One estimator per sensor: the type the edge client runs too.
    sensors: Vec<SensorEstimator>,

    // --- plan state ----------------------------------------------------
    now: f64,
    series: ScheduleSeries,
    /// `base_ids[k]` = current set index serving cumulative class `D_k`.
    base_ids: Vec<usize>,
    /// Dispatches `< next_dispatch` have been executed (charges applied).
    next_dispatch: usize,
    /// The cycle partition (`τ₁`, every sensor's class) and the persistent
    /// forest/tour state backing the incremental tier; re-seeded by every
    /// full replan.
    planner: IncrementalPlanner,

    // --- emergency check ----------------------------------------------
    /// Predicted death of each sensor as of its last re-push; live only
    /// below the horizon (`INFINITY` until the first re-push).
    deadline: Vec<f64>,
    /// Sensors re-pushed since the last check, possibly repeated.
    dirty: Vec<usize>,
    /// Plan revision the last check ran against.
    checked_revision: u64,
    /// Live deadlines examined by all checks so far.
    examined: u64,

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

        let sensors: Vec<SensorEstimator> = capacities
            .iter()
            .zip(&initial_rates)
            .map(|(&c, &r)| SensorEstimator::new(cfg.gamma, cfg.margin, cfg.horizon, c, r))
            .collect();
        let (plan, planner) = plan_from_scratch(&network, &sensors, 0.0, cfg.horizon);
        let mut ctl = Self {
            sensors,
            now: 0.0,
            series: ScheduleSeries::new(),
            base_ids: Vec::new(),
            next_dispatch: 0,
            planner,
            deadline: vec![f64::INFINITY; n],
            dirty: Vec::new(),
            checked_revision: 0,
            examined: 0,
            revision: 0,
            planner_calls: 0,
            full_replans: 0,
            incremental_replans: 0,
            emergency_dispatches: 0,
            network,
            cfg,
        };
        ctl.adopt_plan(plan);
        Ok(ctl)
    }

    // --- estimator views ----------------------------------------------

    /// Pessimistic working rate: the EWMA prediction, floored by the most
    /// recent raw sample so a sudden rate spike takes effect immediately.
    pub fn rate_estimate(&self, sensor: usize) -> f64 {
        self.sensors[sensor].rate_estimate()
    }

    /// Current residual-energy estimate.
    pub fn level_estimate(&self, sensor: usize) -> f64 {
        self.sensors[sensor].level_at(self.now)
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
        self.planner.tau1()
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
    pub fn assigned_cycles(&self) -> Vec<f64> {
        (0..self.network.n()).map(|i| self.planner.assigned_cycle(i)).collect()
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

    // --- ingest ---------------------------------------------------------

    /// Ingest one telemetry batch: advance the clock (executing due
    /// dispatches), update estimators, detect class drift, replan at the
    /// cheapest sufficient tier and run the emergency check.
    pub fn ingest(&mut self, batch: &TelemetryBatch) -> Result<IngestReport, OnlineError> {
        let t = self.check_time(batch.time)?;
        for r in &batch.records {
            self.check_record(r.sensor, &[("rate", r.rate, false), ("level", r.level, false)])?;
        }

        // Dispatches strictly before the batch time are already reflected
        // in the reported levels; dispatches scheduled at exactly `t` are
        // not (the report is read first, then the fleet goes out) and are
        // executed *after* the measurements below — otherwise a stale
        // pre-charge reading would spawn a phantom emergency.
        self.execute_due(t - EPS);
        self.now = t;

        // Apply the measurements in order; the estimator settles each
        // level under the old rate before folding a new one in.
        let mut touched: Vec<usize> = Vec::with_capacity(batch.records.len());
        for r in &batch.records {
            let est = &mut self.sensors[r.sensor];
            match r.rate {
                Some(rate) => est.observe(t, rate),
                None => est.settle(t),
            }
            if let Some(level) = r.level {
                est.set_level(t, level);
            }
            touched.push(r.sensor);
        }
        touched.sort_unstable();
        touched.dedup();
        self.execute_due(t + EPS);

        let (changes, need_full) = self.drift(touched.iter().map(|&i| (i, &self.sensors[i])));
        Ok(self.finish_batch(&touched, &changes, need_full))
    }

    /// Ingest a suppressed-event batch from edge clients: adopt the
    /// per-sensor estimator state carried by each [`crate::ClassEvent`]
    /// verbatim ([`SensorEstimator::adopt`] — *not* a re-observation),
    /// then run the same drift/replan/emergency machinery as
    /// [`Self::ingest`].
    ///
    /// Because every event carries the exact post-observation state the
    /// full per-slot stream would have produced, the resulting plan
    /// sequence is byte-identical to streaming — provided the clients run
    /// the same estimator (`perpetuum-client` wraps this very
    /// [`SensorEstimator`]) and their plan/charge pictures are kept fresh.
    ///
    /// A batch that needs a **full** replan is refused with
    /// [`OnlineError::SyncRequired`] *before any state is mutated* unless
    /// [`EventBatch::sync`] is set: the new `τ₁` grid depends on every
    /// sensor's current estimate, so the fleet must report everyone. The
    /// tier decision is dry-run on copies of the adopted estimators —
    /// valid because `τ̂` depends only on the event state and clock
    /// advancement never touches the plan's classes. A sync batch must
    /// carry one event per sensor (duplicates are tolerated; the last
    /// wins).
    pub fn ingest_events(&mut self, batch: &EventBatch) -> Result<IngestReport, OnlineError> {
        let t = self.check_time(batch.time)?;
        for e in &batch.events {
            let values = [
                ("rho_hat", Some(e.rho_hat), true),
                ("last_rate", Some(e.last_rate), false),
                ("level", Some(e.level), false),
            ];
            self.check_record(e.sensor, &values)?;
        }

        // Adopt each event on a copy of its sensor's estimator. Adoption
        // overwrites the whole state, so the last event per sensor wins:
        // stable-sorting the reversed batch puts it first in its sensor's
        // run, which the dedup keeps. Sorted by sensor is the order
        // `ingest`'s sort+dedup gives, so the change list (and therefore
        // every planner call) comes out identical.
        let mut adopted: Vec<(usize, SensorEstimator)> = batch
            .events
            .iter()
            .rev()
            .map(|e| {
                let mut est = self.sensors[e.sensor];
                est.adopt(t, e.rho_hat, e.last_rate, e.level);
                (e.sensor, est)
            })
            .collect();
        adopted.sort_by_key(|&(i, _)| i);
        adopted.dedup_by_key(|&mut (i, _)| i);
        let n = self.network.n();
        if batch.sync && adopted.len() != n {
            return Err(OnlineError::LengthMismatch {
                field: "sync_events",
                expected: n,
                got: batch.events.len(),
            });
        }

        // Dry-run the drift decision before any mutation, so a refused
        // batch leaves the controller untouched.
        let (changes, need_full) = self.drift(adopted.iter().map(|(i, est)| (*i, est)));
        let will_replan = !changes.is_empty() && t < self.cfg.horizon;
        if will_replan && (need_full || !self.incremental_feasible(&changes)) && !batch.sync {
            return Err(OnlineError::SyncRequired);
        }

        // Commit: same clock/charge choreography as `ingest`; adoption
        // overwrites the whole estimator, so the copies are the result.
        self.execute_due(t - EPS);
        self.now = t;
        for &(i, est) in &adopted {
            self.sensors[i] = est;
        }
        self.execute_due(t + EPS);

        let touched: Vec<usize> = adopted.iter().map(|&(i, _)| i).collect();
        Ok(self.finish_batch(&touched, &changes, need_full))
    }

    /// The clock a batch at `time` moves to, or why the batch is refused.
    fn check_time(&self, time: f64) -> Result<f64, OnlineError> {
        if !time.is_finite() {
            return Err(OnlineError::NonFinite { field: "time", value: time });
        }
        if time < self.now - EPS {
            return Err(OnlineError::TimeNotMonotone { time, now: self.now });
        }
        Ok(time.max(self.now))
    }

    /// Rejects a record for an unknown sensor, or with a reported
    /// `(field, value, signed)` that is non-finite, or negative where not
    /// `signed`.
    fn check_record(
        &self,
        sensor: usize,
        values: &[(&'static str, Option<f64>, bool)],
    ) -> Result<(), OnlineError> {
        let n = self.network.n();
        if sensor >= n {
            return Err(OnlineError::UnknownSensor { sensor, n });
        }
        for &(field, value, signed) in values {
            let Some(value) = value else { continue };
            if !value.is_finite() {
                return Err(OnlineError::NonFinite { field, value });
            }
            if value < 0.0 && !signed {
                return Err(OnlineError::NotPositive { field, value });
            }
        }
        Ok(())
    }

    /// Drift detection over the given sensors' estimators, in order: the
    /// `(sensor, new class)` changes of those out of band, and whether any
    /// undercuts `τ₁` (recorded as class 0; the whole power-of-two grid
    /// shifts, so a full replan follows).
    fn drift<'a>(
        &self,
        sensors: impl Iterator<Item = (usize, &'a SensorEstimator)>,
    ) -> (Vec<(usize, usize)>, bool) {
        let tau1 = self.planner.tau1();
        let mut need_full = false;
        let mut changes = Vec::new();
        for (i, est) in sensors {
            match est.drift(tau1, self.planner.assigned_cycle(i)) {
                Drift::InBand => {}
                Drift::Class(k) => changes.push((i, k)),
                Drift::Undercut => {
                    need_full = true;
                    changes.push((i, 0));
                }
            }
        }
        (changes, need_full)
    }

    /// Shared tail of both ingest paths, once the batch's measurements are
    /// in: replan at the cheapest sufficient tier, re-push the touched
    /// sensors and run the emergency check.
    fn finish_batch(
        &mut self,
        touched: &[usize],
        changes: &[(usize, usize)],
        need_full: bool,
    ) -> IngestReport {
        let planner_before = self.planner_calls;
        let mut replan = ReplanKind::None;
        if !changes.is_empty() && self.now < self.cfg.horizon {
            replan = if !need_full && self.try_incremental(changes) {
                ReplanKind::Incremental
            } else {
                self.full_replan();
                ReplanKind::Full
            };
        }
        for &i in touched {
            self.push_deadline(i);
        }
        let emergency_sensors = self.check_emergencies();
        IngestReport {
            revision: self.revision,
            time: self.now,
            replan,
            class_changes: changes.len(),
            emergency_sensors,
            planner_calls: self.planner_calls - planner_before,
        }
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
                self.sensors[i].recharged(d.time);
                self.push_deadline(i);
            }
            self.next_dispatch += 1;
        }
    }

    /// Advance the clock to `t`, executing everything due by then.
    fn advance_to(&mut self, t: f64) {
        self.execute_due(t + EPS);
        self.now = t;
    }

    /// Re-push a sensor: refresh its predicted death and mark it for the
    /// next check. Every change to a sensor's estimate or charge state
    /// must come through here.
    fn push_deadline(&mut self, sensor: usize) {
        self.deadline[sensor] = self.sensors[sensor].death_time();
        self.dirty.push(sensor);
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

        // Commit: migrate the classes, splice the affected forests and
        // swap the rebuilt sets in.
        for k in self.planner.apply_migrations(&self.network, changes) {
            self.planner_calls += 1;
            let id = self.series.add_set(self.planner.tour_set(k).clone());
            self.series.retarget_dispatches(self.base_ids[k], id, self.now);
            self.base_ids[k] = id;
        }
        self.incremental_replans += 1;
        self.revision += 1;
        true
    }

    /// Read-only feasibility half of [`Self::try_incremental`]: `true` iff
    /// the change set is non-structural and the persistent planner can
    /// splice it. Used both as the commit guard and as the *dry-run* tier
    /// decision of [`Self::ingest_events`] — the inputs (`changes` and the
    /// planner's classes) are untouched by clock advancement, so the
    /// pre-mutation answer is the post-mutation answer.
    fn incremental_feasible(&self, changes: &[(usize, usize)]) -> bool {
        let n = self.network.n();
        let k_max = self.planner.k_max();
        let class_of = self.planner.class_of();
        let mut new_class = class_of.to_vec();
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
            let old = class_of[i];
            affected[old.min(k)..old.max(k)].fill(true);
        }
        (0..=k_max).filter(|&k| affected[k]).all(|k| (0..n).any(|i| new_class[i] <= k))
    }

    /// Full tier: rebuild the plan from scratch with Algorithm 3 + the
    /// nearest-scheduling `V^a` repair, re-seeding the planner.
    fn full_replan(&mut self) {
        let (plan, planner) =
            plan_from_scratch(&self.network, &self.sensors, self.now, self.cfg.horizon);
        self.planner = planner;
        self.adopt_plan(plan);
    }

    /// Installs a from-scratch plan, then executes any immediate repair
    /// dispatch it scheduled at `now`.
    fn adopt_plan(&mut self, plan: VarPlan) {
        self.planner_calls += 1;
        self.full_replans += 1;
        self.series = plan.series;
        self.base_ids = plan.base_set_ids;
        self.next_dispatch = 0;
        self.revision += 1;
        // The repair tier may have scheduled `(C'_0, now)` — execute it.
        let t = self.now;
        self.advance_to(t);
    }

    /// Emergency check: every sensor whose live deadline (before the
    /// horizon) its next visit misses is folded into one rescue dispatch
    /// at `now` — examining only re-pushed sensors while the revision
    /// stands (module docs, step 4). Returns the number of rescued sensors.
    fn check_emergencies(&mut self) -> usize {
        let mut examine = std::mem::take(&mut self.dirty);
        if self.now >= self.cfg.horizon {
            return 0;
        }
        if self.checked_revision != self.revision {
            examine = (0..self.network.n()).collect();
            self.checked_revision = self.revision;
        }
        examine.sort_unstable();
        examine.dedup();
        examine.retain(|&i| self.deadline[i] < self.cfg.horizon);
        self.examined += examine.len() as u64;
        let next = self.series.next_charge_times(self.next_dispatch, &examine, self.network.n());
        // A sensor no pending dispatch covers (`INFINITY`) is urgent.
        examine.retain(|&i| next[i] > self.deadline[i] - self.cfg.emergency_slack + EPS);
        let urgent = examine;
        #[cfg(test)]
        assert_eq!(urgent, self.brute_force_urgent(), "check disagrees with a full scan");
        if urgent.is_empty() {
            return 0;
        }

        let alive = vec![true; self.network.q()];
        let Some(set) = degraded_tour_set(&self.network, &urgent, &alive) else {
            return 0; // unreachable: q >= 1 and all chargers are up
        };
        self.planner_calls += 1;
        let id = self.series.add_set(set);
        self.series.push_dispatch(self.now, id);
        self.series.sort_by_time();
        for &i in &urgent {
            self.sensors[i].recharged(self.now);
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
    pub(crate) fn plan_value(&self) -> Value {
        Value::Obj(vec![
            ("revision".to_string(), Value::Num(self.revision as f64)),
            ("now".to_string(), Value::Num(self.now)),
            ("horizon".to_string(), Value::Num(self.cfg.horizon)),
            ("tau1".to_string(), Value::Num(self.planner.tau1())),
            ("planner_calls".to_string(), Value::Num(self.planner_calls as f64)),
            ("full_replans".to_string(), Value::Num(self.full_replans as f64)),
            ("incremental_replans".to_string(), Value::Num(self.incremental_replans as f64)),
            ("emergency_dispatches".to_string(), Value::Num(self.emergency_dispatches as f64)),
            (
                "assigned_cycles".to_string(),
                Value::Arr(self.assigned_cycles().into_iter().map(Value::Num).collect()),
            ),
            ("service_cost".to_string(), Value::Num(self.series.service_cost())),
            ("dispatches".to_string(), Value::Num(self.series.dispatch_count() as f64)),
            ("executed".to_string(), Value::Num(self.next_dispatch as f64)),
            ("schedule".to_string(), self.series.to_value()),
        ])
    }

    /// Deterministic JSON view of the current plan and counters, rendered
    /// to a string; byte-identical across runs fed the same construction
    /// arguments and telemetry stream.
    pub fn plan_json(&self) -> String {
        serde_json::to_string(&self.plan_value()).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Algorithm 3 + the nearest-scheduling `V^a` repair over the sensors'
/// current estimates at `now`, with the incremental planner seeded from it.
fn plan_from_scratch(
    network: &Network,
    sensors: &[SensorEstimator],
    now: f64,
    horizon: f64,
) -> (VarPlan, IncrementalPlanner) {
    let taus: Vec<f64> = sensors.iter().map(SensorEstimator::tau_hat).collect();
    let residuals: Vec<f64> = sensors.iter().map(|s| s.residual_hat(now)).collect();
    let input = VarInput { network, max_cycles: &taus, residuals: &residuals, now, horizon };
    IncrementalPlanner::seed(&input, RepairStrategy::NearestScheduling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ClassEvent;
    use crate::telemetry::{TelemetryBatch, TelemetryRecord};
    use perpetuum_geom::Point2;
    use proptest::prelude::*;

    impl OnlineController {
        /// Brute-force emergency verdicts, asserted against every
        /// incremental check: each live deadline (which must equal the
        /// sensor's current predicted death — every estimate change
        /// re-pushes) checked against a linear scan of the pending
        /// dispatches and of their sets' sensors.
        pub(super) fn brute_force_urgent(&self) -> Vec<usize> {
            (0..self.network.n())
                .filter(|&i| {
                    let death = self.deadline[i];
                    if death == f64::INFINITY {
                        return false; // never re-pushed
                    }
                    let current = self.sensors[i].death_time();
                    assert_eq!(death.to_bits(), current.to_bits(), "stale deadline {i}");
                    if death >= self.cfg.horizon {
                        return false;
                    }
                    let first = self.series.dispatches()[self.next_dispatch..]
                        .iter()
                        .find(|d| self.series.sets()[d.set].sensors().contains(&i));
                    !matches!(first, Some(d) if d.time <= death - self.cfg.emergency_slack + EPS)
                })
                .collect()
        }
    }

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
        assert!((ctl.sensors[0].level_at(4.0) - 1.0).abs() < 1e-12);
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
    #[test]
    fn the_last_event_per_sensor_wins() {
        let (mut twice, mut once) = (controller(), controller());
        let first = ClassEvent::new(3, 0.2, 0.2, 0.5);
        let last = ClassEvent::new(3, 0.1, 0.09, 0.7);
        let a = twice.ingest_events(&EventBatch::new(1.0, vec![first, last])).expect("ingest");
        let b = once.ingest_events(&EventBatch::new(1.0, vec![last])).expect("ingest");
        assert_eq!(a, b);
        assert_eq!(twice.sensors, once.sensors);
        assert_eq!(twice.plan_json(), once.plan_json());
    }

    /// Examined deadlines per frame: a sweep after construction, then only
    /// the sensors a frame touches or charges while the revision stands.
    #[test]
    fn a_frame_without_plan_change_examines_only_touched_and_charged_sensors() {
        let mut ctl = controller();
        ctl.ingest(&TelemetryBatch::tick(0.5)).expect("ingest");
        // First check after the initial plan sweeps every live deadline:
        // none, since no sensor has been re-pushed yet.
        assert_eq!(ctl.examined, 0);
        let rate = TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::rate(1, 0.19)] };
        let report = ctl.ingest(&rate).expect("ingest");
        assert_eq!(report.replan, ReplanKind::None);
        assert_eq!(ctl.examined, 1, "one touched sensor, nothing charged");
        ctl.ingest(&TelemetryBatch::tick(2.0)).expect("ingest");
        assert_eq!(ctl.examined, 1, "a quiet frame examines nothing");
        // The dispatch at τ₁ = 4 charges D_0 = {0, 1, 2}.
        ctl.ingest(&TelemetryBatch::tick(4.5)).expect("ingest");
        assert_eq!(ctl.examined, 4, "three charged sensors");
    }

    const PROP_N: usize = 12;
    const PROP_HORIZON: f64 = 60.0;

    /// Base rate of sensor `i` in the property test's world (cycles 3..25).
    fn prop_rate(i: usize) -> f64 {
        1.0 / (3.0 + 2.0 * i as f64)
    }

    /// Line world of [`PROP_N`] sensors and two depots.
    fn prop_controller(slack: f64) -> OnlineController {
        let sensors = (0..PROP_N)
            .map(|i| Point2::new(12.0 * i as f64, if i % 3 == 0 { 0.0 } else { 18.0 }))
            .collect();
        let depots = vec![Point2::new(30.0, 40.0), Point2::new(110.0, -20.0)];
        let rates = (0..PROP_N).map(prop_rate).collect();
        let cfg = OnlineConfig::new(PROP_HORIZON).with_emergency_slack(slack);
        OnlineController::new(Network::new(sensors, depots), vec![1.0; PROP_N], rates, cfg)
            .expect("valid controller")
    }

    /// One generated frame: its time step, whether it goes in as class
    /// events, and `(sensor, rate factor, level drop)` per record.
    type Frame = (f64, bool, Vec<(usize, f64, Option<f64>)>);

    fn frames() -> impl Strategy<Value = Vec<Frame>> {
        let record = (0..PROP_N, 0.3f64..4.0, 0.0f64..1.0)
            .prop_map(|(i, f, u)| (i, f, (u < 0.25).then_some(0.8 * u)));
        let frame = (0.05f64..6.0, 0.0f64..1.0, prop::collection::vec(record, 0..5))
            .prop_map(|(dt, u, records)| (dt, u < 0.3, records));
        prop::collection::vec(frame, 1..30)
    }

    /// Feeds one generated frame at time `t`, as telemetry or as class
    /// events (retried as a sync batch when refused), and returns its
    /// report and the sensors it touched.
    fn feed(ctl: &mut OnlineController, t: f64, frame: &Frame) -> (IngestReport, Vec<usize>) {
        let (_, events, records) = frame;
        let touched: Vec<usize> = records.iter().map(|r| r.0).collect();
        if !events {
            let records = records
                .iter()
                .map(|&(i, f, drop)| match drop {
                    Some(level) => TelemetryRecord::full(i, f * prop_rate(i), level),
                    None => TelemetryRecord::rate(i, f * prop_rate(i)),
                })
                .collect();
            return (ctl.ingest(&TelemetryBatch { time: t, records }).expect("ingest"), touched);
        }
        let event = |ctl: &OnlineController, i: usize, f: f64, drop: Option<f64>| {
            let rate = f * prop_rate(i);
            ClassEvent::new(i, rate, rate, drop.unwrap_or_else(|| ctl.sensors[i].level_at(t)))
        };
        let evs: Vec<ClassEvent> = records.iter().map(|&(i, f, d)| event(ctl, i, f, d)).collect();
        match ctl.ingest_events(&EventBatch::new(t, evs.clone())) {
            Err(OnlineError::SyncRequired) => {
                let mut all: Vec<ClassEvent> = (0..PROP_N)
                    .map(|i| {
                        let rate = ctl.rate_estimate(i);
                        ClassEvent::new(i, rate, rate, ctl.sensors[i].level_at(t))
                    })
                    .collect();
                for e in evs {
                    all[e.sensor] = e;
                }
                let sync = EventBatch { sync: true, ..EventBatch::new(t, all) };
                (ctl.ingest_events(&sync).expect("sync batch"), (0..PROP_N).collect())
            }
            report => (report.expect("event batch"), touched),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Drift, level drops, class events with and without sync, and
        /// frames past the horizon: every check's urgent set equals the
        /// brute-force one (asserted inside the check), every rescue
        /// covers exactly the reported sensors, and a frame that follows
        /// a frame without plan change, and changes none itself, examines
        /// at most the sensors it touched or charged.
        #[test]
        fn incremental_check_matches_brute_force(stream in frames(), slack in 0u8..2) {
            let mut ctl = prop_controller(1.5 * f64::from(slack));
            let mut t = 0.0;
            let mut standing = false;
            for frame in &stream {
                t += frame.0;
                let (examined, revision) = (ctl.examined, ctl.revision());
                let (rescues, executed) = (ctl.emergency_dispatches(), ctl.executed_dispatches());
                let (report, mut touched) = feed(&mut ctl, t, frame);
                if report.emergency_sensors > 0 {
                    prop_assert!(t < PROP_HORIZON);
                    prop_assert_eq!(ctl.emergency_dispatches(), rescues + 1);
                    let rescue = ctl.series().sets().last().expect("rescue set");
                    prop_assert_eq!(rescue.sensors().len(), report.emergency_sensors);
                }
                let delta = (ctl.examined - examined) as usize;
                let unchanged = report.revision == revision;
                if unchanged {
                    // The series stood, so the frame charged exactly the
                    // sensors of the dispatches it executed.
                    let series = ctl.series();
                    for d in &series.dispatches()[executed..ctl.executed_dispatches()] {
                        touched.extend_from_slice(series.set_of(d).sensors());
                    }
                }
                touched.sort_unstable();
                touched.dedup();
                if standing && unchanged {
                    prop_assert!(delta <= touched.len(), "examined {} of {:?}", delta, touched);
                }
                if t >= PROP_HORIZON {
                    prop_assert_eq!(delta, 0);
                }
                standing = unchanged;
            }
        }
    }
}
