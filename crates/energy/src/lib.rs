//! Energy models for the `perpetuum` workspace.
//!
//! Section III of the paper models every sensor `v_i` as a rechargeable
//! battery of capacity `B_i` drained at rate `ρ_i`, giving the *maximum
//! charging cycle* `τ_i = B_i / ρ_i`. Section VI adds time-varying rates and
//! a lightweight EWMA prediction at each sensor; Section VII.A defines the
//! two charging-cycle distributions the evaluation sweeps (linear in
//! distance to the base station, and uniform random).
//!
//! This crate provides those pieces:
//!
//! * [`Battery`] — exact energy bookkeeping with piecewise-constant drain,
//! * [`cycles`] — the *linear* and *random* cycle distributions,
//! * [`consumption`] — fixed and per-slot-resampled consumption processes,
//! * [`predictor`] — the paper's EWMA rate predictor
//!   (`ρ̂(t+1) = γ·ρ(t) + (1−γ)·ρ̂(t)`) and [`SensorEstimator`], the
//!   per-sensor loop (settled level, `τ̂`, predicted death, drift verdict)
//!   the online controller and the edge client share,
//! * [`shock`] — adverse rate dynamics (shocks and drift) layered on any
//!   rate process by the fault-injection subsystem.
//!
//! # `no_std` support
//!
//! The prediction module is the sensor-side half of the closed control
//! loop, so it must run on the sensors themselves. With
//! `default-features = false` the crate drops to `#![no_std]` and compiles
//! only [`predictor`] — pure `core` float math, no allocation, no
//! dependencies. The simulation-side models (battery, consumption, cycles,
//! shock) need RNG and serde and stay behind the default `std` feature.

#![cfg_attr(not(feature = "std"), no_std)]
#![deny(unsafe_code)]

#[cfg(feature = "std")]
pub mod battery;
#[cfg(feature = "std")]
pub mod consumption;
#[cfg(feature = "std")]
pub mod cycles;
pub mod predictor;
#[cfg(feature = "std")]
pub mod shock;

#[cfg(feature = "std")]
pub use battery::Battery;
#[cfg(feature = "std")]
pub use consumption::{ConsumptionProcess, FixedRate, MarkovBurst, SlottedResample};
#[cfg(feature = "std")]
pub use cycles::CycleDistribution;
pub use predictor::{EwmaPredictor, SensorEstimator};
#[cfg(feature = "std")]
pub use shock::{RateShock, ShockState};
