//! # perpetuum-online
//!
//! Closed-loop, telemetry-driven adaptive scheduling on top of the
//! open-loop planners in `perpetuum-core`.
//!
//! The paper's Algorithm 3 plans once from deployment-time rate estimates;
//! real networks drift. This crate closes the loop: streaming per-sensor
//! telemetry (rate samples and/or residual-energy readings) feeds EWMA rate
//! predictors, drift that invalidates a sensor's power-of-two rounding
//! class triggers *incremental* replanning (only the affected cumulative
//! sets are re-routed and their future dispatches retargeted), and a
//! per-sensor predicted-death check issues emergency rescue dispatches
//! when a sensor would die before its next scheduled visit.
//!
//! The controller is deterministic by construction — no clocks, RNG or
//! I/O — so the same telemetry stream always yields a byte-identical plan
//! sequence. `perpetuum-serve` exposes it as stateful HTTP sessions and
//! `perpetuum-sim` closes the loop against the event-driven simulator.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod controller;
pub mod events;
pub mod snapshot;
pub mod telemetry;

pub use controller::{IngestReport, OnlineConfig, OnlineController, OnlineError, ReplanKind};
pub use events::{ClassEvent, EventBatch};
pub use snapshot::ControllerSeed;
pub use telemetry::{TelemetryBatch, TelemetryRecord};
