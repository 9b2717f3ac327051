//! Closed-loop harness: the telemetry-driven [`OnlineController`] run
//! against the event-driven simulator, bracketed by the two references
//! that bound it from below and above:
//!
//! * **static** — plain Algorithm 3 from the initial estimates, never
//!   updated ([`MtdPolicy`]). Under rate drift this is the open-loop
//!   baseline the controller must beat.
//! * **oracle** — a full `V^a` replan from the *currently measured* rates
//!   at every slot boundary ([`OraclePolicy`]). Replanning cannot be done
//!   better with the information available, so its death count lower-bounds
//!   what any telemetry-driven scheme can reach (at an absurd planning
//!   cost: one full replan per slot).
//!
//! [`compare_under_drift`] runs all three arms over the same world, seed
//! and compounding rate drift and returns the per-arm outcomes — the data
//! behind `BENCH_online.json` and the `ext_drift` experiment.

use crate::engine::{run_with_faults, SimConfig};
use crate::faults::{FaultModel, RateShock};
use crate::policy::{ChargingPolicy, MtdPolicy, Observation, PlanUpdate};
use crate::world::World;
use perpetuum_client::{EwmaPredictor, SensorClient};
use perpetuum_core::network::Network;
use perpetuum_core::var::{replan_variable_with, RepairStrategy, VarInput};
use perpetuum_online::{
    ClassEvent, EventBatch, OnlineConfig, OnlineController, OnlineError, TelemetryBatch,
    TelemetryRecord,
};
use std::collections::HashSet;

/// Float slack for charge-time comparisons (matches the engine's).
const EPS: f64 = 1e-9;

/// The online controller as a [`ChargingPolicy`]: every slot boundary is
/// turned into one telemetry batch (measured rate + reported level per
/// sensor) and fed to [`OnlineController::ingest`]; the engine's plan is
/// replaced only when the controller actually mutated its plan (revision
/// bump), so class-stable slots cost zero planner invocations.
#[derive(Debug)]
pub struct OnlinePolicy {
    network: Network,
    /// Planning safety margin, forwarded to [`OnlineConfig`].
    pub margin: f64,
    /// Emergency head-start slack, forwarded to [`OnlineConfig`].
    pub emergency_slack: f64,
    /// Anytime-refinement budget for every full replan, forwarded to
    /// [`OnlineConfig::refine_steps`] (0 = constructive plans only).
    pub refine_steps: u64,
    controller: Option<OnlineController>,
    last_revision: u64,
}

impl OnlinePolicy {
    /// Default planning margin. Doubles as replan hysteresis (see
    /// [`OnlineConfig::margin`]): at 10%, a steady 1.5%/slot drift costs
    /// one full replan every ~7 slots instead of every slot.
    pub const DEFAULT_MARGIN: f64 = 0.1;

    /// Closed-loop policy with the default margin.
    pub fn new(network: &Network) -> Self {
        Self {
            network: network.clone(),
            margin: Self::DEFAULT_MARGIN,
            emergency_slack: 0.0,
            refine_steps: 0,
            controller: None,
            last_revision: 0,
        }
    }

    /// Closed-loop policy planning against `(1 − margin)`-shrunken cycles.
    pub fn with_margin(network: &Network, margin: f64) -> Self {
        assert!((0.0..1.0).contains(&margin), "margin must be in [0, 1)");
        Self { margin, ..Self::new(network) }
    }

    /// The wrapped controller (after initialization).
    pub fn controller(&self) -> Option<&OnlineController> {
        self.controller.as_ref()
    }

    /// Cumulative planner invocations (0 until initialized).
    pub fn planner_calls(&self) -> usize {
        self.controller.as_ref().map_or(0, |c| c.planner_calls())
    }

    /// Incremental (forest-splice) replans after initialization.
    pub fn incremental_replans(&self) -> usize {
        self.controller.as_ref().map_or(0, |c| c.incremental_replans())
    }

    /// Full replans after initialization (the seed plan is excluded).
    pub fn full_replans(&self) -> usize {
        self.controller.as_ref().map_or(0, |c| c.full_replans().saturating_sub(1))
    }

    /// Emergency rescue dispatches issued after initialization.
    pub fn emergency_dispatches(&self) -> usize {
        self.controller.as_ref().map_or(0, |c| c.emergency_dispatches())
    }

    /// Plan mutations after initialization: incremental + full replans +
    /// emergency dispatches.
    pub fn replans(&self) -> usize {
        self.incremental_replans() + self.emergency_dispatches() + self.full_replans()
    }

    fn batch_from(obs: &Observation) -> TelemetryBatch {
        let records = (0..obs.levels.len())
            .map(|i| TelemetryRecord::full(i, obs.rho_now[i], obs.levels[i]))
            .collect();
        TelemetryBatch { time: obs.time, records }
    }
}

impl ChargingPolicy for OnlinePolicy {
    fn name(&self) -> &'static str {
        "MinTotalDistance-online"
    }

    fn initialize(&mut self, obs: &Observation) -> PlanUpdate {
        if obs.levels.is_empty() {
            return PlanUpdate::Keep;
        }
        let rates: Vec<f64> = (0..obs.levels.len()).map(|i| obs.rate_safe(i)).collect();
        let cfg = OnlineConfig::new(obs.horizon)
            .with_margin(self.margin)
            .with_emergency_slack(self.emergency_slack)
            .with_refine_steps(self.refine_steps);
        match OnlineController::new(self.network.clone(), obs.capacities.to_vec(), rates, cfg) {
            Ok(ctl) => {
                let series = ctl.pending_series(obs.time);
                self.last_revision = ctl.revision();
                self.controller = Some(ctl);
                PlanUpdate::Replace(series)
            }
            Err(_) => PlanUpdate::Keep,
        }
    }

    fn on_slot_boundary(&mut self, obs: &Observation) -> PlanUpdate {
        let Some(ctl) = self.controller.as_mut() else {
            return PlanUpdate::Keep;
        };
        let batch = Self::batch_from(obs);
        if ctl.ingest(&batch).is_err() {
            return PlanUpdate::Keep;
        }
        if ctl.revision() == self.last_revision {
            return PlanUpdate::Keep;
        }
        self.last_revision = ctl.revision();
        PlanUpdate::Replace(ctl.pending_series(obs.time))
    }
}

// ---------------------------------------------------------------------------

/// Wire cost of one full telemetry record on the PBT1 binary wire
/// (`perpetuum-serve::wire`): flags byte, sensor id, rate, level.
pub const RECORD_WIRE_BYTES: u64 = 1 + 4 + 8 + 8;

/// Wire cost of one suppressed-stream event on the PBT1 binary wire:
/// sensor id, `ρ̂`, last observed rate, settled level.
pub const EVENT_WIRE_BYTES: u64 = 4 + 8 + 8 + 8;

/// Uplink traffic ledger of one edge-suppressed closed-loop run: what the
/// sensor fleet observed versus what actually went on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuppressionTraffic {
    /// Per-sensor slot observations — exactly the records a per-slot
    /// streaming fleet would have uplinked.
    pub frames_observed: u64,
    /// Per-sensor records actually uplinked: drift events plus the sync
    /// records a [`perpetuum_online::OnlineError::SyncRequired`] retry
    /// forces out of otherwise-quiet sensors.
    pub frames_sent: u64,
    /// Fleet-wide sync batches triggered by `SyncRequired` refusals.
    pub sync_batches: usize,
}

impl SuppressionTraffic {
    /// Frames-on-wire reduction factor versus per-slot streaming
    /// (`observed / sent`; equals `observed` when nothing was sent).
    pub fn reduction(&self) -> f64 {
        self.frames_observed as f64 / self.frames_sent.max(1) as f64
    }

    /// Uplink payload bytes a streaming fleet would have put on the wire.
    pub fn bytes_streaming(&self) -> u64 {
        self.frames_observed * RECORD_WIRE_BYTES
    }

    /// Uplink payload bytes the suppressed fleet actually put on the wire.
    /// Events are 7 bytes heavier than records (they carry the estimator
    /// state), so the byte reduction is slightly below the frame reduction.
    pub fn bytes_suppressed(&self) -> u64 {
        self.frames_sent * EVENT_WIRE_BYTES
    }
}

/// The edge-suppressed closed loop as a [`ChargingPolicy`]: every sensor
/// runs a [`SensorClient`] mirroring its slice of the controller state, and
/// only class-crossing slots reach [`OnlineController::ingest_events`] — an
/// empty event batch stands in as the clock tick. `SyncRequired` refusals
/// are answered with a fleet-wide sync snapshot, charge completions and
/// plan revisions are mirrored back down, and every uplink record is
/// counted in [`SuppressionTraffic`].
///
/// This is the sim-harness twin of the byte-identity proofs in
/// `perpetuum-online`'s and `perpetuum-serve`'s suppression tests: same
/// protocol, but driven by the event-driven engine's drifting worlds and
/// scored on deaths/cost/traffic instead of plan bytes.
#[derive(Debug)]
pub struct SuppressedPolicy {
    network: Network,
    /// Planning safety margin, forwarded to [`OnlineConfig`] and mirrored
    /// into every [`SensorClient`].
    pub margin: f64,
    /// Emergency head-start slack, forwarded to [`OnlineConfig`].
    pub emergency_slack: f64,
    /// EWMA smoothing factor shared by the controller and the clients.
    pub gamma: f64,
    controller: Option<OnlineController>,
    clients: Vec<SensorClient>,
    /// Every `(time, sensor)` charge the current schedule implies.
    charges: Vec<(f64, usize)>,
    /// Charges already mirrored into the clients, keyed by
    /// `(time.to_bits(), sensor)`.
    applied: HashSet<(u64, usize)>,
    last_revision: u64,
    syncs: usize,
}

impl SuppressedPolicy {
    /// Edge-suppressed policy with [`OnlinePolicy::DEFAULT_MARGIN`].
    pub fn new(network: &Network) -> Self {
        Self {
            network: network.clone(),
            margin: OnlinePolicy::DEFAULT_MARGIN,
            emergency_slack: 0.0,
            gamma: EwmaPredictor::DEFAULT_GAMMA,
            controller: None,
            clients: Vec::new(),
            charges: Vec::new(),
            applied: HashSet::new(),
            last_revision: 0,
            syncs: 0,
        }
    }

    /// Edge-suppressed policy planning against `(1 − margin)`-shrunken
    /// cycles (clients inherit the same margin for their drift test).
    pub fn with_margin(network: &Network, margin: f64) -> Self {
        assert!((0.0..1.0).contains(&margin), "margin must be in [0, 1)");
        Self { margin, ..Self::new(network) }
    }

    /// The wrapped controller (after initialization).
    pub fn controller(&self) -> Option<&OnlineController> {
        self.controller.as_ref()
    }

    /// Cumulative planner invocations (0 until initialized).
    pub fn planner_calls(&self) -> usize {
        self.controller.as_ref().map_or(0, |c| c.planner_calls())
    }

    /// Incremental (forest-splice) replans after initialization.
    pub fn incremental_replans(&self) -> usize {
        self.controller.as_ref().map_or(0, |c| c.incremental_replans())
    }

    /// Full replans after initialization (the seed plan is excluded).
    pub fn full_replans(&self) -> usize {
        self.controller.as_ref().map_or(0, |c| c.full_replans().saturating_sub(1))
    }

    /// Emergency rescue dispatches issued after initialization.
    pub fn emergency_dispatches(&self) -> usize {
        self.controller.as_ref().map_or(0, |c| c.emergency_dispatches())
    }

    /// Plan mutations after initialization.
    pub fn replans(&self) -> usize {
        self.incremental_replans() + self.emergency_dispatches() + self.full_replans()
    }

    /// Fleet-wide sync batches forced by `SyncRequired` refusals.
    pub fn syncs(&self) -> usize {
        self.syncs
    }

    /// The uplink traffic ledger so far.
    pub fn traffic(&self) -> SuppressionTraffic {
        SuppressionTraffic {
            frames_observed: self.clients.iter().map(|c| c.observed()).sum(),
            frames_sent: self.clients.iter().map(|c| c.sent()).sum(),
            sync_batches: self.syncs,
        }
    }
}

/// Every `(time, sensor)` charge `ctl`'s current schedule implies — the
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

/// Mirror all not-yet-applied charges with time ≤ `limit` into the clients.
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

/// Downlink: push the current `(τ₁, assigned)` to every client.
fn refresh_plans(ctl: &OnlineController, clients: &mut [SensorClient]) {
    let tau1 = ctl.tau1();
    for (i, c) in clients.iter_mut().enumerate() {
        c.plan_update(tau1, ctl.assigned_cycles()[i]);
    }
}

impl ChargingPolicy for SuppressedPolicy {
    fn name(&self) -> &'static str {
        "MinTotalDistance-suppressed"
    }

    fn initialize(&mut self, obs: &Observation) -> PlanUpdate {
        if obs.levels.is_empty() {
            return PlanUpdate::Keep;
        }
        let rates: Vec<f64> = (0..obs.levels.len()).map(|i| obs.rate_safe(i)).collect();
        let cfg = OnlineConfig::new(obs.horizon)
            .with_gamma(self.gamma)
            .with_margin(self.margin)
            .with_emergency_slack(self.emergency_slack);
        match OnlineController::new(
            self.network.clone(),
            obs.capacities.to_vec(),
            rates.clone(),
            cfg,
        ) {
            Ok(ctl) => {
                self.clients = rates
                    .iter()
                    .zip(obs.capacities)
                    .map(|(&r, &cap)| {
                        SensorClient::new(self.gamma, self.margin, obs.horizon, cap, r)
                    })
                    .collect();
                refresh_plans(&ctl, &mut self.clients);
                self.charges = schedule_charges(&ctl);
                // Construction may already have executed a repair dispatch
                // at t = 0.
                apply_charges(&self.charges, &mut self.applied, &mut self.clients, obs.time + EPS);
                let series = ctl.pending_series(obs.time);
                self.last_revision = ctl.revision();
                self.controller = Some(ctl);
                PlanUpdate::Replace(series)
            }
            Err(_) => PlanUpdate::Keep,
        }
    }

    fn on_slot_boundary(&mut self, obs: &Observation) -> PlanUpdate {
        let Some(ctl) = self.controller.as_mut() else {
            return PlanUpdate::Keep;
        };
        let t = obs.time;
        apply_charges(&self.charges, &mut self.applied, &mut self.clients, t - EPS);

        // Sensors observe the slot's measured rate; most slots are
        // suppressed client-side and cost nothing on the wire.
        let mut events = Vec::new();
        for (i, c) in self.clients.iter_mut().enumerate() {
            if let Some(s) = c.observe(t, obs.rho_now[i]) {
                events.push(ClassEvent::new(i, s.rho_hat, s.last_rate, s.level));
            }
        }
        let batch = EventBatch::new(t, events);
        match ctl.ingest_events(&batch) {
            Ok(_) => {}
            Err(OnlineError::SyncRequired) => {
                self.syncs += 1;
                // Retry with the fleet-wide state snapshot; sensors whose
                // slot was suppressed pay for their sync record now.
                let all: Vec<ClassEvent> = self
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
                if ctl.ingest_events(&sync).is_err() {
                    return PlanUpdate::Keep;
                }
            }
            Err(_) => return PlanUpdate::Keep,
        }

        // Downlink: fresh plan + the (possibly revised) charge schedule.
        refresh_plans(ctl, &mut self.clients);
        self.charges = schedule_charges(ctl);
        apply_charges(&self.charges, &mut self.applied, &mut self.clients, t + EPS);

        if ctl.revision() == self.last_revision {
            return PlanUpdate::Keep;
        }
        self.last_revision = ctl.revision();
        PlanUpdate::Replace(ctl.pending_series(t))
    }
}

// ---------------------------------------------------------------------------

/// Clairvoyant-replanning reference: a full Algorithm 3 + `V^a` repair from
/// the currently measured rates at **every** slot boundary. Its planning
/// cost (one full replan per slot) is the price of its death-count floor.
#[derive(Debug)]
pub struct OraclePolicy<'a> {
    network: &'a Network,
    replans: usize,
}

impl<'a> OraclePolicy<'a> {
    /// Oracle over `network`.
    pub fn new(network: &'a Network) -> Self {
        Self { network, replans: 0 }
    }

    /// Full replans performed after initialization.
    pub fn replans(&self) -> usize {
        self.replans
    }

    fn replan(&self, obs: &Observation) -> PlanUpdate {
        // Plan from the *measured* current rate alone — the oracle trusts
        // its instruments completely and re-checks every slot anyway.
        let n = obs.levels.len();
        let max_cycles: Vec<f64> = (0..n).map(|i| obs.capacities[i] / obs.rho_now[i]).collect();
        let residuals: Vec<f64> =
            (0..n).map(|i| (obs.levels[i] / obs.rho_now[i]).min(max_cycles[i])).collect();
        let input = VarInput {
            network: self.network,
            max_cycles: &max_cycles,
            residuals: &residuals,
            now: obs.time,
            horizon: obs.horizon,
        };
        PlanUpdate::Replace(replan_variable_with(&input, RepairStrategy::NearestScheduling).series)
    }
}

impl ChargingPolicy for OraclePolicy<'_> {
    fn name(&self) -> &'static str {
        "Oracle-var"
    }

    fn initialize(&mut self, obs: &Observation) -> PlanUpdate {
        if obs.levels.is_empty() {
            return PlanUpdate::Keep;
        }
        self.replan(obs)
    }

    fn on_slot_boundary(&mut self, obs: &Observation) -> PlanUpdate {
        if obs.levels.is_empty() || obs.time >= obs.horizon {
            return PlanUpdate::Keep;
        }
        self.replans += 1;
        self.replan(obs)
    }
}

// ---------------------------------------------------------------------------

/// One arm of the closed-loop comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmOutcome {
    /// Policy name.
    pub name: &'static str,
    /// Sensor deaths over the run.
    pub deaths: usize,
    /// Total charger travel (the paper's objective).
    pub service_cost: f64,
    /// Plan mutations after initialization; always equals
    /// `incremental_replans + full_replans + emergency_dispatches`.
    pub replans: usize,
    /// Incremental (forest-splice) replans after initialization. Always 0
    /// for the static and oracle arms.
    pub incremental_replans: usize,
    /// Full replans after initialization (seed plan excluded). The oracle
    /// pays one per slot by construction.
    pub full_replans: usize,
    /// Emergency rescue dispatches after initialization.
    pub emergency_dispatches: usize,
    /// Planner invocations (tour constructions / full replans); the static
    /// arm pays 1 (its initial plan), the oracle pays one per slot.
    pub planner_calls: usize,
}

/// Outcome of [`compare_under_drift`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopComparison {
    /// Per-slot compounding drift factor applied to every true rate.
    pub drift: f64,
    /// Open-loop Algorithm 3 (never replans).
    pub static_arm: ArmOutcome,
    /// Telemetry-driven [`OnlinePolicy`].
    pub online_arm: ArmOutcome,
    /// Every-slot full-replanning [`OraclePolicy`].
    pub oracle_arm: ArmOutcome,
}

/// Run the static, online and oracle arms over identical worlds, seeds and
/// drift realizations and report the three outcomes. With `drift = 0` the
/// fault path is skipped entirely ([`FaultModel::none`] bit-identity).
pub fn compare_under_drift(world: &World, cfg: &SimConfig, drift: f64) -> ClosedLoopComparison {
    let faults = if drift == 0.0 {
        FaultModel::none()
    } else {
        FaultModel::none().with_rate_shocks(RateShock::drift(drift)).with_seed(cfg.seed)
    };
    let network = world.network.clone();

    let mut static_policy = MtdPolicy::new(&network);
    let static_result = run_with_faults(world.clone(), cfg, &mut static_policy, &faults);

    let mut online_policy = OnlinePolicy::new(&network);
    let online_result = run_with_faults(world.clone(), cfg, &mut online_policy, &faults);

    let mut oracle_policy = OraclePolicy::new(&network);
    let oracle_result = run_with_faults(world.clone(), cfg, &mut oracle_policy, &faults);

    ClosedLoopComparison {
        drift,
        static_arm: ArmOutcome {
            name: "static",
            deaths: static_result.deaths.len(),
            service_cost: static_result.service_cost,
            replans: 0,
            incremental_replans: 0,
            full_replans: 0,
            emergency_dispatches: 0,
            planner_calls: 1,
        },
        online_arm: ArmOutcome {
            name: "online",
            deaths: online_result.deaths.len(),
            service_cost: online_result.service_cost,
            replans: online_policy.replans(),
            incremental_replans: online_policy.incremental_replans(),
            full_replans: online_policy.full_replans(),
            emergency_dispatches: online_policy.emergency_dispatches(),
            planner_calls: online_policy.planner_calls(),
        },
        oracle_arm: ArmOutcome {
            name: "oracle",
            deaths: oracle_result.deaths.len(),
            service_cost: oracle_result.service_cost,
            replans: oracle_policy.replans(),
            incremental_replans: 0,
            full_replans: oracle_policy.replans(),
            emergency_dispatches: 0,
            planner_calls: 1 + oracle_policy.replans(),
        },
    }
}

/// Outcome of [`compare_refined`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefinedComparison {
    /// Per-slot compounding drift factor applied to every true rate.
    pub drift: f64,
    /// Refinement budget of the refined arm.
    pub refine_steps: u64,
    /// Telemetry-driven [`OnlinePolicy`] with constructive full replans.
    pub constructive_arm: ArmOutcome,
    /// The same policy with every full replan refined under the budget.
    pub refined_arm: ArmOutcome,
}

/// Race the constructive and refined online arms over identical worlds,
/// seeds and drift realizations. Both arms ingest the same telemetry and
/// make identical replan *decisions* (refinement changes tour geometry,
/// never the controller's estimator or class state), so the comparison
/// isolates what the anytime optimizer buys in executed travel. With
/// `drift = 0` neither arm replans and the refined arm's service cost is
/// provably ≤ the constructive arm's; under drift, travel-resolved
/// arrival times may shift emergency timing slightly, so treat the
/// outcome as a measurement, not an invariant.
pub fn compare_refined(
    world: &World,
    cfg: &SimConfig,
    drift: f64,
    refine_steps: u64,
) -> RefinedComparison {
    let faults = if drift == 0.0 {
        FaultModel::none()
    } else {
        FaultModel::none().with_rate_shocks(RateShock::drift(drift)).with_seed(cfg.seed)
    };
    let network = world.network.clone();

    let mut constructive_policy = OnlinePolicy::new(&network);
    let constructive_result =
        run_with_faults(world.clone(), cfg, &mut constructive_policy, &faults);

    let mut refined_policy = OnlinePolicy::new(&network);
    refined_policy.refine_steps = refine_steps;
    let refined_result = run_with_faults(world.clone(), cfg, &mut refined_policy, &faults);

    let arm = |name: &'static str, result: &crate::metrics::SimResult, policy: &OnlinePolicy| {
        ArmOutcome {
            name,
            deaths: result.deaths.len(),
            service_cost: result.service_cost,
            replans: policy.replans(),
            incremental_replans: policy.incremental_replans(),
            full_replans: policy.full_replans(),
            emergency_dispatches: policy.emergency_dispatches(),
            planner_calls: policy.planner_calls(),
        }
    };
    RefinedComparison {
        drift,
        refine_steps,
        constructive_arm: arm("online", &constructive_result, &constructive_policy),
        refined_arm: arm("online-refined", &refined_result, &refined_policy),
    }
}

/// Outcome of [`compare_suppressed`].
#[derive(Debug, Clone, PartialEq)]
pub struct SuppressionComparison {
    /// Per-slot compounding drift factor applied to every true rate.
    pub drift: f64,
    /// Per-slot streaming [`OnlinePolicy`] (one record per sensor per slot).
    pub streaming_arm: ArmOutcome,
    /// Edge-suppressed [`SuppressedPolicy`] (events only).
    pub suppressed_arm: ArmOutcome,
    /// What the suppressed fleet put on the wire versus what it observed.
    pub traffic: SuppressionTraffic,
}

/// Run the per-slot streaming and edge-suppressed closed loops over
/// identical worlds, seeds and drift realizations: the data behind the
/// `BENCH_client.json` traffic-reduction table. The suppressed arm must
/// match the streaming arm's control quality while uplinking a small
/// fraction of the frames.
pub fn compare_suppressed(world: &World, cfg: &SimConfig, drift: f64) -> SuppressionComparison {
    let faults = if drift == 0.0 {
        FaultModel::none()
    } else {
        FaultModel::none().with_rate_shocks(RateShock::drift(drift)).with_seed(cfg.seed)
    };
    let network = world.network.clone();

    let mut streaming_policy = OnlinePolicy::new(&network);
    let streaming_result = run_with_faults(world.clone(), cfg, &mut streaming_policy, &faults);

    let mut suppressed_policy = SuppressedPolicy::new(&network);
    let suppressed_result = run_with_faults(world.clone(), cfg, &mut suppressed_policy, &faults);

    SuppressionComparison {
        drift,
        streaming_arm: ArmOutcome {
            name: "streaming",
            deaths: streaming_result.deaths.len(),
            service_cost: streaming_result.service_cost,
            replans: streaming_policy.replans(),
            incremental_replans: streaming_policy.incremental_replans(),
            full_replans: streaming_policy.full_replans(),
            emergency_dispatches: streaming_policy.emergency_dispatches(),
            planner_calls: streaming_policy.planner_calls(),
        },
        suppressed_arm: ArmOutcome {
            name: "suppressed",
            deaths: suppressed_result.deaths.len(),
            service_cost: suppressed_result.service_cost,
            replans: suppressed_policy.replans(),
            incremental_replans: suppressed_policy.incremental_replans(),
            full_replans: suppressed_policy.full_replans(),
            emergency_dispatches: suppressed_policy.emergency_dispatches(),
            planner_calls: suppressed_policy.planner_calls(),
        },
        traffic: suppressed_policy.traffic(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::Point2;

    fn world() -> World {
        let sensors: Vec<Point2> = (0..12)
            .map(|i| {
                let row = (i / 4) as f64;
                let col = (i % 4) as f64;
                Point2::new(80.0 * col, 60.0 * row)
            })
            .collect();
        let depots = vec![Point2::new(120.0, 150.0), Point2::new(240.0, -30.0)];
        let network = Network::new(sensors, depots);
        let cycles: Vec<f64> = (0..12).map(|i| 20.0 + 7.0 * (i % 5) as f64).collect();
        World::fixed(network, &cycles)
    }

    fn cfg() -> SimConfig {
        SimConfig { horizon: 400.0, slot: 10.0, seed: 7, charger_speed: None }
    }

    #[test]
    fn online_policy_tracks_a_drift_free_world_without_replanning() {
        let outcome = compare_under_drift(&world(), &cfg(), 0.0);
        assert_eq!(outcome.online_arm.deaths, 0, "no drift, no deaths");
        assert_eq!(
            outcome.online_arm.replans, 0,
            "constant rates stay in-band: zero plan mutations"
        );
        assert_eq!(outcome.online_arm.planner_calls, 1, "only the initial plan is ever computed");
        assert_eq!(outcome.static_arm.deaths, 0);
    }

    /// Drift-free race: neither arm ever replans, so both execute their
    /// initial plan verbatim and the refined arm's bill is the refined
    /// plan's cost — provably ≤ the constructive one, with identical
    /// control quality.
    #[test]
    fn refined_arm_never_travels_farther_without_drift() {
        let outcome = compare_refined(&world(), &cfg(), 0.0, 300_000);
        assert_eq!(outcome.refined_arm.deaths, outcome.constructive_arm.deaths);
        assert_eq!(outcome.refined_arm.replans, 0);
        assert_eq!(outcome.constructive_arm.replans, 0);
        assert!(
            outcome.refined_arm.service_cost <= outcome.constructive_arm.service_cost + 1e-9,
            "refined {} vs constructive {}",
            outcome.refined_arm.service_cost,
            outcome.constructive_arm.service_cost
        );
    }

    /// Under drift both arms make the same replan decisions (refinement
    /// never touches the estimator or class state), so the planning
    /// cadence is identical even though tour geometry differs.
    #[test]
    fn refined_arm_keeps_the_constructive_replan_cadence_under_drift() {
        let outcome = compare_refined(&world(), &cfg(), 0.015, 100_000);
        assert_eq!(outcome.refined_arm.full_replans, outcome.constructive_arm.full_replans);
        assert_eq!(
            outcome.refined_arm.incremental_replans,
            outcome.constructive_arm.incremental_replans
        );
    }

    #[test]
    fn closed_loop_beats_static_under_compounding_drift() {
        // 1.5%/slot compounding drift over 40 slots → rates end ~1.8×
        // their planning-time values; the open-loop plan starves sensors.
        let outcome = compare_under_drift(&world(), &cfg(), 0.015);
        assert!(
            outcome.static_arm.deaths > 0,
            "drift must actually break the open-loop plan (got 0 deaths)"
        );
        assert!(
            outcome.online_arm.deaths < outcome.static_arm.deaths,
            "online ({}) must beat static ({})",
            outcome.online_arm.deaths,
            outcome.static_arm.deaths
        );
        assert!(outcome.online_arm.replans > 0, "drift must trigger replanning");
        assert!(
            outcome.online_arm.planner_calls < outcome.oracle_arm.planner_calls,
            "online must plan less than the every-slot oracle"
        );
    }

    #[test]
    fn replan_kind_split_sums_to_the_lump() {
        let outcome = compare_under_drift(&world(), &cfg(), 0.015);
        for arm in [&outcome.static_arm, &outcome.online_arm, &outcome.oracle_arm] {
            assert_eq!(
                arm.replans,
                arm.incremental_replans + arm.full_replans + arm.emergency_dispatches,
                "{}: split counters must sum to the lumped count",
                arm.name
            );
        }
        assert_eq!(outcome.static_arm.replans, 0);
        assert_eq!(
            outcome.oracle_arm.full_replans, outcome.oracle_arm.replans,
            "every oracle replan is full by construction"
        );
    }

    #[test]
    fn oracle_bounds_online_death_count() {
        let outcome = compare_under_drift(&world(), &cfg(), 0.015);
        assert!(outcome.oracle_arm.deaths <= outcome.online_arm.deaths);
    }

    #[test]
    fn suppressed_arm_is_silent_in_a_drift_free_world() {
        let outcome = compare_suppressed(&world(), &cfg(), 0.0);
        assert_eq!(outcome.suppressed_arm.deaths, 0, "no drift, no deaths");
        assert_eq!(outcome.suppressed_arm.replans, 0, "constant rates stay in-band");
        assert!(outcome.traffic.frames_observed > 0, "slots were observed");
        assert_eq!(
            outcome.traffic.frames_sent, 0,
            "every in-band slot must be suppressed at the edge"
        );
        assert_eq!(outcome.traffic.sync_batches, 0);
        assert_eq!(outcome.traffic.bytes_suppressed(), 0);
        assert!(outcome.traffic.bytes_streaming() > 0);
    }

    #[test]
    fn suppressed_arm_tracks_drift_with_a_fraction_of_the_frames() {
        // Same drift realization as `closed_loop_beats_static_under_drift`:
        // rates end ~1.8× their planning-time values.
        let outcome = compare_suppressed(&world(), &cfg(), 0.015);
        assert!(outcome.suppressed_arm.replans > 0, "drift must trigger replanning");
        assert!(
            outcome.traffic.sync_batches >= 1,
            "compounding drift must eventually force a fleet-wide sync"
        );
        assert!(
            outcome.suppressed_arm.deaths <= outcome.streaming_arm.deaths,
            "suppression must not cost control quality: {} deaths vs {} streaming",
            outcome.suppressed_arm.deaths,
            outcome.streaming_arm.deaths
        );
        let reduction = outcome.traffic.reduction();
        assert!(
            reduction >= 5.0,
            "frames-on-wire reduction too weak: {reduction:.1}x ({} of {} sent)",
            outcome.traffic.frames_sent,
            outcome.traffic.frames_observed
        );
        assert!(outcome.traffic.bytes_suppressed() * 3 < outcome.traffic.bytes_streaming());
    }

    #[test]
    fn online_service_cost_sits_between_static_and_oracle() {
        // More planning buys fewer deaths at more travel: the closed loop
        // should pay more than the (dying) static plan but stay well under
        // the every-slot oracle's bill.
        let outcome = compare_under_drift(&world(), &cfg(), 0.015);
        assert!(outcome.online_arm.service_cost > outcome.static_arm.service_cost);
        assert!(outcome.online_arm.service_cost < outcome.oracle_arm.service_cost);
    }
}
