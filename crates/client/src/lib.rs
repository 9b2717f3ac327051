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
//!   re-exported from `perpetuum-energy`'s always-compiled predictor
//!   module so sensors and the base station share one definition,
//! * [`SensorClient`] — a fixed-size, alloc-free mirror of one sensor's
//!   slice of the server-side `OnlineController` state: the EWMA predictor,
//!   the pessimistic `max(predicted, observed)` rate estimate, the lazily
//!   settled energy level, and the margin/hysteresis drift check,
//! * [`ClientState`] — the exact predictor/level state a suppressed event
//!   carries so the server can *reconstruct* its estimator instead of
//!   re-observing.
//!
//! # The state-reconstruction invariant
//!
//! [`SensorClient::observe`] performs, bit for bit, the same float
//! operations in the same order as the controller's per-record ingest path:
//! settle the level with the *old* rate estimate, fold the observation into
//! the EWMA, then run the drift test with the *new* estimate against the
//! currently assigned cycle. Because both sides execute identical IEEE-754
//! expression trees on identical inputs, the sensor knows *exactly* when
//! the server would replan — and when it would not. Slots where the new
//! `τ̂` stays inside the applicability band are not sent at all; slots where
//! it leaves the band emit a [`ClientState`] whose fields the server adopts
//! verbatim (`EwmaPredictor::from_state`), making the suppressed stream's
//! plan sequence byte-identical to full per-slot streaming.
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

pub use perpetuum_energy::predictor::{
    power_class, schedule_still_applicable, EwmaPredictor, HoltPredictor,
};

/// The exact post-observation estimator state a suppressed event carries.
///
/// The server adopts these fields verbatim: `ρ̂` via
/// `EwmaPredictor::from_state`, `last_rate` and `level` directly (the level
/// is clamped to the battery capacity on the server, which knows it
/// authoritatively). Reconstructing from state — instead of replaying the
/// skipped observations — is what makes suppression lossless.
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

/// One sensor's half of the closed control loop.
///
/// Mirrors the per-sensor state of the server-side `OnlineController`
/// bit-for-bit so the drift test can run at the edge. Create it with the
/// same `(γ, margin, horizon, capacity, initial_rate)` the controller was
/// seeded with, push the first plan via [`SensorClient::plan_update`], then
/// call [`SensorClient::observe`] once per slot; a `Some(state)` return is
/// the (rare) event that must go on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorClient {
    margin: f64,
    horizon: f64,
    capacity: f64,
    predictor: EwmaPredictor,
    last_rate: f64,
    level: f64,
    level_time: f64,
    plan: Option<Plan>,
    observed: u64,
    sent: u64,
}

impl SensorClient {
    /// Creates a client mirroring a freshly seeded controller sensor:
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
        assert!((0.0..1.0).contains(&margin), "margin must be in [0, 1), got {margin}");
        assert!(horizon > 0.0 && horizon.is_finite(), "horizon must be positive and finite");
        assert!(capacity > 0.0 && capacity.is_finite(), "capacity must be positive and finite");
        Self {
            margin,
            horizon,
            capacity,
            predictor: EwmaPredictor::new(gamma, initial_rate),
            last_rate: initial_rate,
            level: capacity,
            level_time: 0.0,
            plan: None,
            observed: 0,
            sent: 0,
        }
    }

    /// Pessimistic rate estimate `max(ρ̂, last observed)` — identical to the
    /// controller's `rate_estimate`.
    #[inline]
    pub fn rate_estimate(&self) -> f64 {
        self.predictor.predicted_rate().max(self.last_rate)
    }

    /// Estimated maximum charging cycle `τ̂` under the current estimate,
    /// margin-shrunk and horizon-capped exactly like the controller's.
    #[inline]
    pub fn tau_hat(&self) -> f64 {
        let rate = self.rate_estimate();
        if rate <= 0.0 {
            self.horizon
        } else {
            (self.capacity / rate * (1.0 - self.margin)).min(self.horizon)
        }
    }

    /// The Section VI.B applicability band with hysteresis margin: the
    /// current scheduling survives iff `τ̂ ≥ assigned·(1−margin)` and
    /// `τ̂ < 2·assigned` (the exact paper band when `margin = 0`).
    #[inline]
    fn still_applicable(&self, assigned: f64, tau: f64) -> bool {
        if self.margin == 0.0 {
            schedule_still_applicable(assigned, tau)
        } else {
            tau >= assigned * (1.0 - self.margin) && tau < 2.0 * assigned
        }
    }

    /// Feeds the rate observed for the slot ending at `time` and runs the
    /// drift test. Returns `Some(state)` when the base station must hear
    /// about this slot — the new `τ̂` left the applicability band (or no
    /// plan is known yet) — and `None` when the slot is safely suppressed.
    ///
    /// Mirrors the controller's ingest order exactly: settle the level over
    /// `[level_time, time]` with the *old* estimate, observe, then test
    /// with the *new* estimate.
    pub fn observe(&mut self, time: f64, rate: f64) -> Option<ClientState> {
        let est = self.rate_estimate();
        self.level = (self.level - est * (time - self.level_time)).max(0.0);
        self.level_time = time;
        self.predictor.observe(rate);
        self.last_rate = rate;
        self.observed += 1;
        let must_send = match self.plan {
            None => true,
            Some(p) => !self.still_applicable(p.assigned, self.tau_hat()),
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
        self.level = self.capacity;
        self.level_time = time;
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
            rho_hat: self.predictor.predicted_rate(),
            last_rate: self.last_rate,
            level: self.level,
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
        let p = self.plan?;
        let tau = self.tau_hat();
        if tau < p.tau1 {
            None
        } else {
            Some(power_class(p.tau1, tau))
        }
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

    /// Energy level settled to the last observation or charge.
    #[inline]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Battery capacity.
    #[inline]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }
}
