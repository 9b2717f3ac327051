//! Sensor-side telemetry suppression for the `perpetuum` closed loop.
//!
//! The paper's online story (Section VI) has every sensor stream a
//! consumption sample each slot, but the base station only *acts* when a
//! sensor's power-of-two rounding class leaves the margin band — everything
//! else is wasted wire and ingest work. This crate is the other half of
//! that observation: it runs the base station's drift test *on the sensor*,
//! so only class-crossing events ever reach the network.
//!
//! # What lives here
//!
//! * [`power_class`] — the Section V.A rounding-class computation,
//! * [`SensorEstimator`] — the per-sensor loop (EWMA predictor, the
//!   pessimistic `max(predicted, observed)` rate estimate, the lazily
//!   settled energy level, `τ̂` and the margin/hysteresis drift verdict).
//!   Both are re-exported from `perpetuum-energy`'s always-compiled
//!   predictor module: the server-side `OnlineController` runs the very
//!   same type for every sensor, so there is one implementation, not a
//!   mirror,
//! * [`SensorClient`] — that estimator plus the sensor's copy of the plan
//!   and its traffic counters,
//! * [`ClientState`] — the exact predictor/level state a suppressed event
//!   carries so the server can *reconstruct* its estimator instead of
//!   re-observing.
//!
//! # The state-reconstruction invariant
//!
//! [`SensorClient::observe`] calls [`SensorEstimator::observe`] and
//! [`SensorEstimator::drift`], the same code the controller's per-record
//! ingest path runs: settle the level with the *old* rate estimate, fold
//! the observation into the EWMA, then run the drift test with the *new*
//! estimate against the currently assigned cycle. Fed identical inputs,
//! the sensor therefore knows *exactly* when the server would replan — and
//! when it would not. Slots where the new `τ̂` stays inside the
//! applicability band are not sent at all; slots where it leaves the band
//! emit a [`ClientState`] whose fields the server adopts verbatim
//! ([`SensorEstimator::adopt`]), making the suppressed stream's plan
//! sequence byte-identical to full per-slot streaming.
//!
//! The invariant requires that the sensor's picture of the plan stays
//! fresh: after any ingest that changes the plan revision, the base station
//! must push the new `(τ₁, assigned)` back down ([`SensorClient::plan_update`])
//! and charge completions must be mirrored ([`SensorClient::recharged`]).
//! It also requires rate-only telemetry — a sensor that reports externally
//! measured *levels* reintroduces information the suppressed path cannot
//! reconstruct, so level reports stay on the per-slot streaming path.
//!
//! # `no_std`
//!
//! The crate is `#![no_std]`, allocation-free and dependency-free apart
//! from the prediction module of `perpetuum-energy` (itself pure `core`
//! math, pulled in with `default-features = false`). State per sensor is a
//! handful of `f64`s and two counters; no heap, no formatting, no I/O.

#![no_std]
#![deny(unsafe_code)]

use core::ops::Deref;

pub use perpetuum_energy::predictor::{power_class, Drift, EwmaPredictor, SensorEstimator};

/// The exact post-observation estimator state a suppressed event carries.
///
/// The server adopts these fields verbatim ([`SensorEstimator::adopt`]:
/// `ρ̂` via `EwmaPredictor::from_state`, `last_rate` and `level` directly,
/// the level clamped to the battery capacity). Reconstructing from state —
/// instead of replaying the skipped observations — is what makes
/// suppression lossless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientState {
    /// EWMA prediction `ρ̂(t+1)` after folding in this slot's observation.
    pub rho_hat: f64,
    /// The raw rate observed this slot (the pessimistic-estimate partner).
    pub last_rate: f64,
    /// Energy level settled to this slot's timestamp.
    pub level: f64,
}

/// The sensor's current copy of the base-station plan: the base interval
/// `τ₁` and the rounded cycle this sensor is charged at.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Plan {
    tau1: f64,
    assigned: f64,
}

/// One sensor's half of the closed control loop: a [`SensorEstimator`]
/// (which it derefs to, for `τ̂`, the level and the rate estimate), the
/// sensor's copy of the plan, and its traffic counters.
///
/// Create it with the same `(γ, margin, horizon, capacity, initial_rate)`
/// the controller was seeded with, push the first plan via
/// [`SensorClient::plan_update`], then call [`SensorClient::observe`] once
/// per slot; a `Some(state)` return is the (rare) event that must go on
/// the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorClient {
    estimator: SensorEstimator,
    plan: Option<Plan>,
    observed: u64,
    sent: u64,
}

impl Deref for SensorClient {
    type Target = SensorEstimator;

    fn deref(&self) -> &SensorEstimator {
        &self.estimator
    }
}

impl SensorClient {
    /// Creates a client for a freshly seeded controller sensor:
    /// predictor initialised at `initial_rate`, battery full, clock at 0.
    ///
    /// No plan is known yet, so [`SensorClient::observe`] reports every
    /// slot until the first [`SensorClient::plan_update`] arrives —
    /// conservative, never wrong.
    ///
    /// # Panics
    /// Panics unless `0 < gamma < 1`, `0 ≤ margin < 1`, and `horizon`,
    /// `capacity` and `initial_rate` are positive and finite.
    pub fn new(gamma: f64, margin: f64, horizon: f64, capacity: f64, initial_rate: f64) -> Self {
        Self {
            estimator: SensorEstimator::new(gamma, margin, horizon, capacity, initial_rate),
            plan: None,
            observed: 0,
            sent: 0,
        }
    }

    /// Feeds the rate observed for the slot ending at `time` and runs the
    /// drift test. Returns `Some(state)` when the base station must hear
    /// about this slot — the new `τ̂` left the applicability band (or no
    /// plan is known yet) — and `None` when the slot is safely suppressed.
    pub fn observe(&mut self, time: f64, rate: f64) -> Option<ClientState> {
        self.estimator.observe(time, rate);
        self.observed += 1;
        let must_send = match self.plan {
            None => true,
            Some(p) => self.estimator.drift(p.tau1, p.assigned) != Drift::InBand,
        };
        if must_send {
            self.sent += 1;
            Some(self.state())
        } else {
            None
        }
    }

    /// Mirrors a completed charge: the charger visited at `time` and the
    /// battery is full again. Must be fed the charge times the base
    /// station reports so the level pictures stay aligned.
    pub fn recharged(&mut self, time: f64) {
        self.estimator.recharged(time);
    }

    /// Downlink: adopts the plan `(τ₁, assigned cycle)` from the base
    /// station. Must be called after any ingest that changed the plan
    /// revision, or the two drift tests drift apart.
    ///
    /// # Panics
    /// Panics unless `0 < tau1 ≤ assigned`, both finite.
    pub fn plan_update(&mut self, tau1: f64, assigned: f64) {
        assert!(
            tau1 > 0.0 && assigned >= tau1 && assigned.is_finite(),
            "need 0 < tau1 <= assigned, got {tau1}, {assigned}"
        );
        self.plan = Some(Plan { tau1, assigned });
    }

    /// The current estimator state — what a sync record carries for this
    /// sensor. Valid immediately after [`SensorClient::observe`] for the
    /// current slot (the level is settled to that slot's timestamp).
    #[inline]
    pub fn state(&self) -> ClientState {
        ClientState {
            rho_hat: self.estimator.rho_hat(),
            last_rate: self.estimator.last_rate(),
            level: self.estimator.level(),
        }
    }

    /// Counts this sensor's record in a full-sync batch (a record sent on
    /// the wire that [`SensorClient::observe`] had suppressed).
    #[inline]
    pub fn record_sync(&mut self) {
        self.sent += 1;
    }

    /// The rounding class this sensor's `τ̂` falls in under the current
    /// plan's `τ₁`, or `None` when no plan is known or `τ̂ < τ₁` (the
    /// base-interval itself must shrink — a full replan on the server).
    pub fn drift_class(&self) -> Option<usize> {
        self.estimator.class(self.plan?.tau1)
    }

    /// Slots observed so far (cumulative).
    #[inline]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Event records put on the wire so far, sync records included
    /// (cumulative).
    #[inline]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The current plan `(τ₁, assigned)` if one has been received.
    #[inline]
    pub fn plan(&self) -> Option<(f64, f64)> {
        self.plan.map(|p| (p.tau1, p.assigned))
    }
}
