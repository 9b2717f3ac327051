//! Time-slotted discrete-event simulator for WSN charging.
//!
//! The paper evaluates its algorithms purely in simulation (Section VII):
//! sensors drain at (possibly slot-varying) rates, the base station runs a
//! charging policy, and mobile chargers execute closed tours whose summed
//! length is the *service cost*. Charging and travel times are ignored
//! relative to sensor lifetimes (Section III.A), so a dispatch recharges
//! its sensors instantaneously at the dispatch time — exactly the model
//! under which the paper's guarantees are stated.
//!
//! The crate provides:
//!
//! * [`world`] — the simulated network: batteries, per-slot rate processes,
//!   EWMA predictors,
//! * [`policy`] — the [`policy::ChargingPolicy`] trait and the paper's
//!   three policies (`MinTotalDistance`, `MinTotalDistance-var`, Greedy),
//! * [`engine`] — the event-driven loop: lazy per-sensor energy
//!   accounting, a death-prediction heap, O(log n) inter-event
//!   processing; it resamples rates at slot boundaries, executes
//!   dispatches and detects sensor deaths at their analytic instants,
//! * [`mod@reference`] — the dense-sweep engine the event-driven core
//!   replaced, kept as the benchmark baseline and (with a capped step)
//!   as a naive fixed-step integrator for equivalence tests,
//! * [`metrics`] — per-run results: service cost, dispatch/charge counts,
//!   deaths, per-charger distances, replans, degraded-mode fault stats,
//! * [`faults`] — deterministic seeded fault injection: charger
//!   breakdown/repair processes, consumption-rate shocks, travel-speed
//!   jitter, and the degraded-mode recovery planner's policy knobs,
//! * [`scenario`] — the Section VII.A workload generator: typed scenario
//!   descriptions, their validation, and the seeded topology and world
//!   each one realises (shared by the experiment CLI and the daemon).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod energy_core;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod policy;
pub mod reference;
pub mod scenario;
pub mod trace;
pub mod world;

pub use engine::{run, run_traced, run_with_faults, run_with_faults_traced, SimConfig};
pub use faults::{FaultModel, RateShock, RecoveryConfig};
pub use metrics::SimResult;
pub use policy::{
    ChargingPolicy, CheckContext, GreedyPolicy, MtdPolicy, Observation, PlanUpdate, VarPolicy,
};
pub use reference::{run_fixed_step, run_reference};
pub use trace::TraceEvent;
pub use world::World;
