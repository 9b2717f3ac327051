//! Charging policies: what the base station runs.
//!
//! A policy sees only what a real base station would see — battery levels
//! reported by the sensors and the EWMA-predicted consumption rates
//! (Section VI.A) — never the ground-truth future rates. The engine calls
//! it at `t = 0` ([`ChargingPolicy::initialize`]), at every slot boundary
//! after rates change ([`ChargingPolicy::on_slot_boundary`]), and, if the
//! policy polls (the greedy baseline), every [`ChargingPolicy::check_interval`].

use crate::energy_core::EnergyCore;
use perpetuum_core::greedy::greedy_batch;
use perpetuum_core::incremental::IncrementalPlanner;
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::network::{Instance, Network};
use perpetuum_core::schedule::{ScheduleSeries, TourSet};
use perpetuum_core::var::{RepairStrategy, VarInput};
use perpetuum_energy::predictor::schedule_still_applicable;
use std::time::{Duration, Instant};

/// What the base station observes at a decision point.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    /// Current time.
    pub time: f64,
    /// Monitoring period end `T`.
    pub horizon: f64,
    /// When the policy decides next: the next slot boundary, or the
    /// horizon when none is left. A policy may hand the engine only the
    /// dispatches due before it and append the next window there
    /// ([`PlanUpdate::Extend`]).
    pub next_decision: f64,
    /// Residual energy per sensor (self-reported).
    pub levels: &'a [f64],
    /// EWMA-predicted consumption rate `ρ̂_i` per sensor (Section VI.A).
    pub rho_hat: &'a [f64],
    /// The consumption rate each sensor currently *measures*. The paper's
    /// sensors monitor their energy "periodically (e.g. every a few
    /// hours)", i.e. far more often than the slot length `ΔT`, so the
    /// current-slot rate is observable (the future is not).
    pub rho_now: &'a [f64],
    /// Battery capacity `B_i` per sensor.
    pub capacities: &'a [f64],
}

impl<'a> Observation<'a> {
    /// The conservative planning rate `max(ρ̂_i, ρ_i(now))`.
    ///
    /// The EWMA alone lags a sharp rate increase by several slots, long
    /// enough to kill a sensor whose cycle just collapsed; planning against
    /// the worse of the predicted and the currently measured rate is what
    /// makes "none of the sensors runs out of energy" actually hold. This
    /// is the one deliberate strengthening of the paper's estimator (see
    /// DESIGN.md).
    pub fn rate_safe(&self, i: usize) -> f64 {
        self.rho_hat[i].max(self.rho_now[i])
    }

    /// Estimated residual lifetime `l̂_i = re_i / max(ρ̂_i, ρ_i(now))`.
    pub(crate) fn residual_hat(&self, i: usize) -> f64 {
        self.levels[i] / self.rate_safe(i)
    }

    /// Estimated maximum charging cycle `τ̂_i = B_i / max(ρ̂_i, ρ_i(now))`.
    pub(crate) fn max_cycle_hat(&self, i: usize) -> f64 {
        self.capacities[i] / self.rate_safe(i)
    }

    /// The paper's un-guarded cycle estimate `B_i / ρ̂_i` (EWMA only).
    #[cfg(test)]
    pub(crate) fn max_cycle_pred(&self, i: usize) -> f64 {
        self.capacities[i] / self.rho_hat[i]
    }

    /// All estimated maximum cycles.
    pub(crate) fn max_cycles_hat(&self) -> Vec<f64> {
        (0..self.levels.len()).map(|i| self.max_cycle_hat(i)).collect()
    }

    /// All estimated residual lifetimes, clamped to the estimated cycle
    /// (level ≤ capacity already guarantees this; the clamp absorbs
    /// floating-point noise).
    pub(crate) fn residuals_hat(&self) -> Vec<f64> {
        (0..self.levels.len()).map(|i| self.residual_hat(i).min(self.max_cycle_hat(i))).collect()
    }
}

/// What a policy sees at a polling check.
///
/// Polling checks fire every [`ChargingPolicy::check_interval`] — far more
/// often than slot boundaries — so the event-driven engine hands policies
/// this lazy view instead of a materialised [`Observation`]. A policy that
/// only asks `urgent_within` costs O(log n + answer) per
/// check (the engine answers from its urgency-prediction heap); calling
/// [`CheckContext::observation`] falls back to the full O(n) snapshot.
pub struct CheckContext<'a> {
    time: f64,
    horizon: f64,
    next_decision: f64,
    source: Source<'a>,
}

enum Source<'a> {
    /// A pre-built snapshot (reference engine and unit tests).
    Full(Observation<'a>),
    /// The event-driven engine's lazy energy state.
    Lazy(&'a mut EnergyCore),
}

impl<'a> CheckContext<'a> {
    /// Wraps a full observation; answers are computed by dense scans.
    pub(crate) fn from_observation(obs: Observation<'a>) -> Self {
        Self {
            time: obs.time,
            horizon: obs.horizon,
            next_decision: obs.next_decision,
            source: Source::Full(obs),
        }
    }

    pub(crate) fn lazy(
        time: f64,
        horizon: f64,
        next_decision: f64,
        core: &'a mut EnergyCore,
    ) -> Self {
        Self { time, horizon, next_decision, source: Source::Lazy(core) }
    }

    /// Current time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Monitoring period end `T`.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Ascending indices of the sensors whose estimated residual lifetime
    /// `re_i / max(ρ̂_i, ρ_i(now))` is at most `dt` (plus the engine's
    /// 1e-9 float slack) — the urgency test of the greedy baseline.
    pub(crate) fn urgent_within(&mut self, dt: f64) -> Vec<usize> {
        match &mut self.source {
            Source::Full(obs) => {
                (0..obs.levels.len()).filter(|&i| obs.residual_hat(i) <= dt + 1e-9).collect()
            }
            Source::Lazy(core) => core.urgent_within(self.time, dt),
        }
    }

    /// The full observation at the check time. On the event-driven engine
    /// this settles every battery (O(n)); prefer
    /// `urgent_within` when the urgent set is all you need.
    pub fn observation(&mut self) -> Observation<'_> {
        match &mut self.source {
            Source::Full(obs) => *obs,
            Source::Lazy(core) => core.observation(self.time, self.horizon, self.next_decision),
        }
    }
}

/// A policy's reaction to a decision point.
#[derive(Debug, Clone)]
pub enum PlanUpdate {
    /// Keep the pending dispatches.
    Keep,
    /// Drop all pending dispatches and install this series (all dispatch
    /// times must be `≥` the observation time).
    Replace(ScheduleSeries),
    /// Append this series after the pending dispatches (its times must be
    /// `≥` theirs and the observation time). Not a replan: it hands the
    /// engine the next window of the plan already in force.
    Extend(ScheduleSeries),
}

/// A base-station charging policy.
pub trait ChargingPolicy {
    /// Human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Polling period, if the policy polls between slot boundaries (the
    /// greedy baseline checks every `Δl`).
    fn check_interval(&self) -> Option<f64> {
        None
    }

    /// Called once at `t = 0`, after initial rates are known.
    fn initialize(&mut self, obs: &Observation) -> PlanUpdate;

    /// Called at every slot boundary (rates just changed, predictors
    /// updated).
    fn on_slot_boundary(&mut self, _obs: &Observation) -> PlanUpdate {
        PlanUpdate::Keep
    }

    /// Called every [`Self::check_interval`]; an immediate dispatch is
    /// executed at the check time.
    fn on_check(&mut self, _ctx: &mut CheckContext) -> Option<TourSet> {
        None
    }
}

// ---------------------------------------------------------------------------

/// **Algorithm 3** as a policy: plan once from the initial estimated cycles
/// and never look back. The right policy for fixed-cycle worlds; under
/// variable cycles it is knowingly oblivious (that is what Figures 3–6
/// replace it with `MinTotalDistance-var` for).
#[derive(Debug)]
pub struct MtdPolicy<'a> {
    network: &'a Network,
    /// Safety margin: plan as if every cycle were `τ̂ · (1 − margin)`.
    /// Zero (the paper's model) plans against the exact cycles; a positive
    /// margin buys slack for charger travel time (see the `speed`
    /// extension experiment). Must lie in `[0, 1)`.
    pub cycle_margin: f64,
}

impl<'a> MtdPolicy<'a> {
    /// Plain Algorithm 3.
    pub fn new(network: &'a Network) -> Self {
        Self { network, cycle_margin: 0.0 }
    }

    /// Algorithm 3 planning against `τ̂ · (1 − margin)`.
    pub fn with_margin(network: &'a Network, cycle_margin: f64) -> Self {
        assert!((0.0..1.0).contains(&cycle_margin), "margin must be in [0, 1)");
        Self { network, cycle_margin }
    }
}

impl ChargingPolicy for MtdPolicy<'_> {
    fn name(&self) -> &'static str {
        "MinTotalDistance"
    }

    fn initialize(&mut self, obs: &Observation) -> PlanUpdate {
        let shrink = 1.0 - self.cycle_margin;
        let cycles: Vec<f64> = obs.max_cycles_hat().iter().map(|c| c * shrink).collect();
        if cycles.is_empty() {
            return PlanUpdate::Keep;
        }
        let instance = Instance::new(self.network.clone(), cycles, obs.horizon);
        PlanUpdate::Replace(plan_min_total_distance(&instance, &MtdConfig::default()))
    }
}

// ---------------------------------------------------------------------------

/// The greedy baseline of Section VII.A as an online policy: every `Δl`,
/// batch the sensors whose estimated residual lifetime is `≤ Δl` and charge
/// them via the `q`-rooted TSP.
#[derive(Debug)]
pub struct GreedyPolicy<'a> {
    network: &'a Network,
    /// Residual-lifetime threshold `Δl` (`= τ_min` in the paper).
    pub threshold: f64,
    /// Polling period; defaults to the threshold (the paper couples the
    /// two), but can be shortened independently — e.g. to keep a widened
    /// noise-margin threshold from also slowing the polls.
    pub poll: Option<f64>,
}

impl<'a> GreedyPolicy<'a> {
    /// Greedy with the paper's threshold `Δl = τ_min`.
    pub fn new(network: &'a Network, tau_min: f64) -> Self {
        Self { network, threshold: tau_min, poll: None }
    }
}

impl ChargingPolicy for GreedyPolicy<'_> {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn check_interval(&self) -> Option<f64> {
        Some(self.poll.unwrap_or(self.threshold))
    }

    fn initialize(&mut self, _obs: &Observation) -> PlanUpdate {
        PlanUpdate::Keep // purely reactive
    }

    fn on_check(&mut self, ctx: &mut CheckContext) -> Option<TourSet> {
        let pending = ctx.urgent_within(self.threshold);
        if pending.is_empty() {
            None
        } else {
            Some(greedy_batch(self.network, &pending))
        }
    }
}

// ---------------------------------------------------------------------------

/// **`MinTotalDistance-var`** (Section VI.B): plan with Algorithm 3, then at
/// each slot boundary test whether every sensor's newly estimated maximum
/// cycle still lies in the applicability band `[τ̂'_i, 2·τ̂'_i)` of its
/// assigned cycle; replan (with the `V^a` repair) whenever one does not.
///
/// Replans go through the incremental planner
/// ([`perpetuum_core::incremental`]) by default: the first plan seeds
/// per-class forest/tour state, later replans re-derive classes and keep
/// the anchor grid, falling back to a full re-seed when the cached
/// partition no longer applies. A plan is an explicit prefix — a full
/// seed's whole series, or an incremental replan's immediate batch — plus,
/// after an incremental replan, the planner's anchor grid. The grid is
/// handed to the engine one window at a time, up to
/// [`Observation::next_decision`]; the planner splices a class's set only
/// when a window dispatches it. [`VarPolicy::full_replanning`] restores
/// the from-scratch behaviour (the ablation baseline the `sim` bench
/// compares against), which hands over every plan whole.
#[derive(Debug)]
pub struct VarPolicy<'a> {
    network: &'a Network,
    /// The explicit dispatches of the current plan. With the planner's
    /// grid (if any) they make up the whole plan.
    prefix: ScheduleSeries,
    /// Repair strategy (paper default: nearest scheduling). Applies to the
    /// seeding full replans; incremental replans use the anchor-grid
    /// urgency repair regardless.
    pub repair: RepairStrategy,
    /// Safety margin: plan as if cycles and residuals were a factor
    /// `(1 − margin)` smaller. Zero is the paper's model; a positive
    /// margin absorbs measurement noise and charger travel time. Must lie
    /// in `[0, 1)`.
    pub cycle_margin: f64,
    replans: usize,
    /// The current partition (its classes are the assigned cycles) and,
    /// after an incremental replan, the anchor grid. `None` only before
    /// [`ChargingPolicy::initialize`].
    planner: Option<IncrementalPlanner>,
    /// Off in [`VarPolicy::full_replanning`]: every replan re-seeds.
    incremental_enabled: bool,
    incremental_replans: usize,
    full_replans: usize,
    planner_time_incremental: Duration,
    planner_time_full: Duration,
}

impl<'a> VarPolicy<'a> {
    /// The paper's `MinTotalDistance-var`, with incremental replanning.
    pub fn new(network: &'a Network) -> Self {
        Self {
            network,
            prefix: ScheduleSeries::new(),
            repair: RepairStrategy::NearestScheduling,
            cycle_margin: 0.0,
            replans: 0,
            planner: None,
            incremental_enabled: true,
            incremental_replans: 0,
            full_replans: 0,
            planner_time_incremental: Duration::ZERO,
            planner_time_full: Duration::ZERO,
        }
    }

    /// `MinTotalDistance-var` that rebuilds every plan from scratch — the
    /// pre-incremental behaviour, kept as the bench/ablation baseline.
    pub fn full_replanning(network: &'a Network) -> Self {
        Self { incremental_enabled: false, ..Self::new(network) }
    }

    /// `MinTotalDistance-var` planning against `(1 − margin)`-shrunken
    /// estimates.
    pub fn with_margin(network: &'a Network, cycle_margin: f64) -> Self {
        assert!((0.0..1.0).contains(&cycle_margin), "margin must be in [0, 1)");
        Self { cycle_margin, ..Self::new(network) }
    }

    /// Number of replans performed after initialisation.
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// Replans served by the incremental splice path.
    pub fn incremental_replans(&self) -> usize {
        self.incremental_replans
    }

    /// Full (from-scratch) replans, including the initial seed.
    pub fn full_replans(&self) -> usize {
        self.full_replans
    }

    /// Base-set splices the current incremental planner has performed
    /// since its last seed (0 before seeding and in full-replanning mode).
    pub fn set_splices(&self) -> usize {
        self.planner.as_ref().map_or(0, IncrementalPlanner::set_splices)
    }

    /// Wall-clock seconds spent in incremental replans, including the
    /// splices their later windows trigger.
    pub fn planner_seconds_incremental(&self) -> f64 {
        self.planner_time_incremental.as_secs_f64()
    }

    /// Wall-clock seconds spent in full replans (including the seed).
    pub fn planner_seconds_full(&self) -> f64 {
        self.planner_time_full.as_secs_f64()
    }

    fn replan(&mut self, obs: &Observation) -> PlanUpdate {
        let shrink = 1.0 - self.cycle_margin;
        let max_cycles: Vec<f64> = obs.max_cycles_hat().iter().map(|c| c * shrink).collect();
        let residuals: Vec<f64> = obs.residuals_hat().iter().map(|r| r * shrink).collect();
        let input = VarInput {
            network: self.network,
            max_cycles: &max_cycles,
            residuals: &residuals,
            now: obs.time,
            horizon: obs.horizon,
        };
        // Timing is observational only — it never influences planning, so
        // runs stay deterministic.
        let t0 = Instant::now();
        if let Some(planner) = self.planner.as_mut().filter(|_| self.incremental_enabled) {
            if let Ok(urgent) = planner.reclassify(&input) {
                let mut prefix = ScheduleSeries::new();
                if let Some(set) = urgent {
                    let id = prefix.add_set(set);
                    prefix.push_dispatch(obs.time, id);
                }
                let mut series = prefix.clone();
                planner.emit_until(self.network, &mut series, obs.next_decision);
                self.prefix = prefix;
                self.incremental_replans += 1;
                self.planner_time_incremental += t0.elapsed();
                return PlanUpdate::Replace(series);
            }
        }
        // Bit-identical to `replan_variable_with`; a seeded planner's
        // `assigned_cycle` equals the plan's rounded cycles exactly.
        let (plan, planner) = IncrementalPlanner::seed(&input, self.repair);
        self.planner = Some(planner);
        self.full_replans += 1;
        self.planner_time_full += t0.elapsed();
        self.prefix = plan.series.clone();
        PlanUpdate::Replace(plan.series)
    }

    /// Hands the engine the plan's next window of grid dispatches (none
    /// when the plan is explicit only, as every full-replanning plan is).
    fn extend(&mut self, obs: &Observation) -> PlanUpdate {
        let Some(planner) = self.planner.as_mut().filter(|_| self.incremental_enabled) else {
            return PlanUpdate::Keep;
        };
        let t0 = Instant::now();
        let mut series = ScheduleSeries::new();
        planner.emit_until(self.network, &mut series, obs.next_decision);
        self.planner_time_incremental += t0.elapsed();
        if series.dispatch_count() == 0 {
            PlanUpdate::Keep
        } else {
            PlanUpdate::Extend(series)
        }
    }

    /// Per sensor, the first prefix charge strictly after `time` (with the
    /// plan's 1e-9 slack), `INFINITY` where none — or `None` when no
    /// prefix dispatch is left.
    fn prefix_next_charges(&self, time: f64) -> Option<Vec<f64>> {
        let dispatches = self.prefix.dispatches();
        let from = dispatches.partition_point(|d| d.time <= time + 1e-9);
        if from == dispatches.len() {
            return None;
        }
        let n = self.network.n();
        let all: Vec<usize> = (0..n).collect();
        Some(self.prefix.next_charge_times(from, &all, n))
    }

    /// True when `sensor`'s estimated residual lifetime reaches its next
    /// scheduled charge (or the horizon, if it is never charged again).
    fn residual_reaches_next_charge(
        &self,
        obs: &Observation,
        sensor: usize,
        prefix_next: Option<&[f64]>,
    ) -> bool {
        let explicit = prefix_next.map_or(f64::INFINITY, |next| next[sensor]);
        let grid = self
            .planner
            .as_ref()
            .and_then(|p| p.next_grid_charge(sensor, obs.time))
            .unwrap_or(f64::INFINITY);
        let next = explicit.min(grid).min(obs.horizon);
        obs.time + self.residual_shrunk(obs, sensor) + 1e-9 >= next
    }

    fn residual_shrunk(&self, obs: &Observation, sensor: usize) -> f64 {
        obs.residual_hat(sensor) * (1.0 - self.cycle_margin)
    }
}

impl ChargingPolicy for VarPolicy<'_> {
    fn name(&self) -> &'static str {
        "MinTotalDistance-var"
    }

    fn initialize(&mut self, obs: &Observation) -> PlanUpdate {
        if obs.levels.is_empty() {
            return PlanUpdate::Keep;
        }
        self.replan(obs)
    }

    fn on_slot_boundary(&mut self, obs: &Observation) -> PlanUpdate {
        let Some(planner) = self.planner.as_ref() else { return PlanUpdate::Keep };
        // The paper's applicability band covers sensors that are charged
        // from full at their assigned cadence; a sensor part-way through a
        // wait can still be starved by an in-band rate increase, so the
        // residual must also reach its next scheduled charge.
        let shrink = 1.0 - self.cycle_margin;
        let prefix_next = self.prefix_next_charges(obs.time);
        let applicable = (0..obs.levels.len()).all(|i| {
            schedule_still_applicable(planner.assigned_cycle(i), obs.max_cycle_hat(i) * shrink, 0.0)
                && self.residual_reaches_next_charge(obs, i, prefix_next.as_deref())
        });
        if applicable {
            self.extend(obs)
        } else {
            self.replans += 1;
            self.replan(obs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::Point2;

    fn net() -> Network {
        Network::new(
            vec![Point2::new(100.0, 0.0), Point2::new(0.0, 100.0), Point2::new(200.0, 200.0)],
            vec![Point2::ORIGIN],
        )
    }

    fn obs<'a>(
        time: f64,
        horizon: f64,
        levels: &'a [f64],
        rho: &'a [f64],
        caps: &'a [f64],
    ) -> Observation<'a> {
        // Tests drive steady-state observations: measured == predicted.
        Observation {
            time,
            horizon,
            next_decision: horizon,
            levels,
            rho_hat: rho,
            rho_now: rho,
            capacities: caps,
        }
    }

    #[test]
    fn observation_derived_quantities() {
        let levels = [0.5, 1.0];
        let rho = [0.25, 0.1];
        let caps = [1.0, 1.0];
        let o = obs(0.0, 10.0, &levels, &rho, &caps);
        assert!((o.residual_hat(0) - 2.0).abs() < 1e-12);
        assert!((o.max_cycle_hat(1) - 10.0).abs() < 1e-12);
        assert_eq!(o.max_cycles_hat(), vec![4.0, 10.0]);
        assert_eq!(o.residuals_hat(), vec![2.0, 10.0]);
    }

    #[test]
    fn conservative_rate_dominates_lagging_ewma() {
        let levels = [0.5];
        let rho_hat = [0.1]; // EWMA still remembers the old, slow drain
        let rho_now = [0.5]; // the sensor currently drains 5x faster
        let caps = [1.0];
        let o = Observation {
            time: 0.0,
            horizon: 10.0,
            next_decision: 10.0,
            levels: &levels,
            rho_hat: &rho_hat,
            rho_now: &rho_now,
            capacities: &caps,
        };
        assert_eq!(o.rate_safe(0), 0.5);
        assert!((o.residual_hat(0) - 1.0).abs() < 1e-12); // not 5.0
        assert!((o.max_cycle_hat(0) - 2.0).abs() < 1e-12); // not 10.0
        assert!((o.max_cycle_pred(0) - 10.0).abs() < 1e-12); // paper's raw estimate
    }

    #[test]
    fn mtd_policy_plans_once() {
        let network = net();
        let mut p = MtdPolicy::new(&network);
        let levels = [1.0, 1.0, 1.0];
        let rho = [1.0, 0.5, 0.25]; // cycles 1, 2, 4
        let caps = [1.0; 3];
        let o = obs(0.0, 16.0, &levels, &rho, &caps);
        match p.initialize(&o) {
            PlanUpdate::Replace(series) => {
                assert!(series.dispatch_count() > 0);
                // Sensor 0 (cycle 1) charged at every integer time.
                assert_eq!(series.charge_times(0).len(), 15);
            }
            _ => panic!("expected a plan"),
        }
        // Slot boundaries never disturb the fixed plan.
        assert!(matches!(p.on_slot_boundary(&o), PlanUpdate::Keep));
    }

    #[test]
    fn greedy_policy_batches_urgent_sensors() {
        let network = net();
        let mut p = GreedyPolicy::new(&network, 1.0);
        assert_eq!(p.check_interval(), Some(1.0));
        let levels = [0.2, 1.0, 0.9];
        let rho = [0.5, 0.1, 1.0]; // residuals: 0.4, 10, 0.9
        let caps = [1.0; 3];
        let o = obs(5.0, 100.0, &levels, &rho, &caps);
        let mut ctx = CheckContext::from_observation(o);
        assert_eq!(ctx.time(), 5.0);
        assert_eq!(ctx.horizon(), 100.0);
        let set = p.on_check(&mut ctx).expect("two sensors are urgent");
        assert_eq!(set.sensors(), &[0, 2]);
        // Nothing urgent → no dispatch.
        let levels2 = [1.0, 1.0, 1.0];
        let rho2 = [0.1, 0.1, 0.1];
        let o2 = obs(6.0, 100.0, &levels2, &rho2, &caps);
        assert!(p.on_check(&mut CheckContext::from_observation(o2)).is_none());
    }

    #[test]
    fn check_context_exposes_the_wrapped_observation() {
        let levels = [0.2, 1.0];
        let rho = [0.5, 0.1];
        let caps = [1.0; 2];
        let o = obs(5.0, 100.0, &levels, &rho, &caps);
        let mut ctx = CheckContext::from_observation(o);
        assert_eq!(ctx.urgent_within(1.0), vec![0]);
        let seen = ctx.observation();
        assert_eq!(seen.levels, &levels);
        assert_eq!(seen.time, 5.0);
    }

    #[test]
    fn var_policy_replans_only_outside_band() {
        let network = net();
        let mut p = VarPolicy::new(&network);
        let caps = [1.0; 3];
        let levels = [1.0, 1.0, 1.0];
        let rho = [1.0, 0.5, 0.25]; // cycles 1, 2, 4 → assigned 1, 2, 4
        let o = obs(0.0, 64.0, &levels, &rho, &caps);
        assert!(matches!(p.initialize(&o), PlanUpdate::Replace(_)));
        assert_eq!(p.replans(), 0);

        // Cycles drift inside the band: 1.5, 3.0, 7.9 → keep.
        let rho_in = [1.0 / 1.5, 1.0 / 3.0, 1.0 / 7.9];
        let o_in = obs(10.0, 64.0, &levels, &rho_in, &caps);
        assert!(matches!(p.on_slot_boundary(&o_in), PlanUpdate::Keep));

        // Sensor 0's cycle halves below its assigned cycle → replan.
        let rho_out = [2.0, 0.5, 0.25];
        let levels_mid = [0.3, 0.8, 0.9];
        let o_out = obs(20.0, 64.0, &levels_mid, &rho_out, &caps);
        assert!(matches!(p.on_slot_boundary(&o_out), PlanUpdate::Replace(_)));
        assert_eq!(p.replans(), 1);
    }

    #[test]
    fn var_policy_band_break_falls_back_to_full_replan() {
        // Same scenario as `var_policy_replans_only_outside_band`: the
        // cycle collapse undercuts the cached τ̂₁, so the incremental
        // planner refuses and the policy re-seeds from scratch.
        let network = net();
        let mut p = VarPolicy::new(&network);
        let caps = [1.0; 3];
        let levels = [1.0, 1.0, 1.0];
        let rho = [1.0, 0.5, 0.25];
        let o = obs(0.0, 64.0, &levels, &rho, &caps);
        assert!(matches!(p.initialize(&o), PlanUpdate::Replace(_)));
        assert_eq!(p.full_replans(), 1); // the seed
        assert_eq!(p.incremental_replans(), 0);

        let rho_out = [2.0, 0.5, 0.25];
        let levels_mid = [0.3, 0.8, 0.9];
        let o_out = obs(20.0, 64.0, &levels_mid, &rho_out, &caps);
        assert!(matches!(p.on_slot_boundary(&o_out), PlanUpdate::Replace(_)));
        assert_eq!(p.replans(), 1);
        assert_eq!(p.full_replans(), 2);
        assert_eq!(p.incremental_replans(), 0);
        assert!(p.planner_seconds_full() > 0.0);
    }

    #[test]
    fn var_policy_in_band_starvation_replans_incrementally() {
        // Classes unchanged, but sensor 2's residual no longer reaches its
        // next scheduled charge → the replan goes through the splice path
        // and charges it immediately.
        let network = net();
        let mut p = VarPolicy::new(&network);
        let caps = [1.0; 3];
        let levels = [1.0, 1.0, 1.0];
        let rho = [1.0, 0.5, 0.25]; // cycles 1, 2, 4
        let o = obs(0.0, 64.0, &levels, &rho, &caps);
        assert!(matches!(p.initialize(&o), PlanUpdate::Replace(_)));

        let levels_low = [1.0, 1.0, 0.05]; // sensor 2 residual 0.2 < next charge
        let o_low = obs(10.0, 64.0, &levels_low, &rho, &caps);
        match p.on_slot_boundary(&o_low) {
            PlanUpdate::Replace(series) => {
                let t2 = series.charge_times(2);
                assert_eq!(t2[0], 10.0, "starving sensor must be charged at once");
            }
            _ => panic!("expected a replan"),
        }
        assert_eq!(p.replans(), 1);
        assert_eq!(p.incremental_replans(), 1);
        assert_eq!(p.full_replans(), 1); // only the seed
        assert!(p.planner_seconds_incremental() > 0.0);
    }

    #[test]
    fn a_class_round_trip_between_dispatches_costs_no_splice() {
        // Cycles 1, 2, 4, 8 → τ̂₁ = 1, K = 3; D_2 rides grid points 4, 12, …
        // Sensor 2 leaves class 2 at t = 0.5 and returns at t = 1.5, both
        // before D_2's next dispatch at t = 4, so D_2 is never spliced.
        let network = Network::new(
            vec![
                Point2::new(100.0, 0.0),
                Point2::new(0.0, 100.0),
                Point2::new(200.0, 200.0),
                Point2::new(-150.0, 50.0),
            ],
            vec![Point2::ORIGIN],
        );
        let mut p = VarPolicy::new(&network);
        let caps = [1.0; 4];
        let full = [1.0; 4];
        let at = |time: f64, rho: &'static [f64; 4]| Observation {
            time,
            horizon: 64.0,
            next_decision: time + 1.0,
            levels: &full,
            rho_hat: rho,
            rho_now: rho,
            capacities: &caps,
        };
        const HOME: [f64; 4] = [1.0, 0.5, 0.25, 0.125];
        const AWAY: [f64; 4] = [1.0, 0.5, 1.0 / 8.5, 0.125];
        let seed = Observation { next_decision: 0.5, ..at(0.0, &HOME) };
        assert!(matches!(p.initialize(&seed), PlanUpdate::Replace(_)));
        assert!(matches!(p.on_slot_boundary(&at(0.5, &AWAY)), PlanUpdate::Replace(_)));
        assert!(matches!(p.on_slot_boundary(&at(1.5, &HOME)), PlanUpdate::Replace(_)));
        assert_eq!(p.incremental_replans(), 2);
        assert!(matches!(p.on_slot_boundary(&at(2.5, &HOME)), PlanUpdate::Extend(_)));
        // The window [3.5, 4.5) dispatches D_2 — with sensor 2 back in it.
        match p.on_slot_boundary(&at(3.5, &HOME)) {
            PlanUpdate::Extend(series) => assert_eq!(series.charge_times(2), vec![4.0]),
            _ => panic!("expected the next window"),
        }
        assert_eq!(p.replans(), 2);
        assert_eq!(p.set_splices(), 0);
    }

    #[test]
    fn full_replanning_mode_never_splices() {
        let network = net();
        let mut p = VarPolicy::full_replanning(&network);
        let caps = [1.0; 3];
        let levels = [1.0, 1.0, 1.0];
        let rho = [1.0, 0.5, 0.25];
        let o = obs(0.0, 64.0, &levels, &rho, &caps);
        assert!(matches!(p.initialize(&o), PlanUpdate::Replace(_)));
        let levels_low = [1.0, 1.0, 0.05];
        let o_low = obs(10.0, 64.0, &levels_low, &rho, &caps);
        assert!(matches!(p.on_slot_boundary(&o_low), PlanUpdate::Replace(_)));
        assert_eq!(p.incremental_replans(), 0);
        assert_eq!(p.full_replans(), 2);
    }

    #[test]
    fn var_policy_names() {
        let network = net();
        assert_eq!(VarPolicy::new(&network).name(), "MinTotalDistance-var");
        assert_eq!(MtdPolicy::new(&network).name(), "MinTotalDistance");
        assert_eq!(GreedyPolicy::new(&network, 1.0).name(), "Greedy");
    }
}
