//! The paper's lightweight residual-lifetime prediction (Section VI.A).
//!
//! Each sensor monitors its energy periodically and predicts its next-slot
//! consumption rate with an exponentially weighted moving average:
//!
//! ```text
//! ρ̂_i(t+1) = γ · ρ_i(t) + (1 − γ) · ρ̂_i(t),        0 < γ < 1
//! ```
//!
//! from which the estimated residual lifetime `l̂_i(t) = re_i(t) / ρ̂_i(t+1)`
//! and maximum charging cycle `τ̂_i(t) = B_i / ρ̂_i(t+1)` follow.
//!
//! [`SensorEstimator`] is the whole per-sensor loop built on that
//! predictor — the one implementation the online controller runs for every
//! sensor and `perpetuum-client` runs on the sensor itself, so the two
//! drift verdicts agree bit for bit.

/// EWMA consumption-rate predictor for one sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "std", derive(serde::Serialize, serde::Deserialize))]
pub struct EwmaPredictor {
    gamma: f64,
    rho_hat: f64,
}

impl EwmaPredictor {
    /// Default smoothing weight. The paper leaves `γ` unspecified; 0.5
    /// weights the latest observation and history equally and adapts within
    /// a couple of slots.
    pub const DEFAULT_GAMMA: f64 = 0.5;

    /// Creates a predictor initialised with the first observed rate.
    ///
    /// # Panics
    /// Panics unless `0 < gamma < 1` and `initial_rate > 0`.
    pub fn new(gamma: f64, initial_rate: f64) -> Self {
        assert!(gamma > 0.0 && gamma < 1.0, "gamma must be in (0, 1), got {gamma}");
        assert!(
            initial_rate > 0.0 && initial_rate.is_finite(),
            "initial rate must be positive and finite, got {initial_rate}"
        );
        Self { gamma, rho_hat: initial_rate }
    }

    /// Reconstructs a predictor from previously captured state — the exact
    /// `ρ̂` an identical predictor holds after some observation sequence.
    /// Unlike [`EwmaPredictor::new`], the state may be zero or negative
    /// (a run of idle/harvesting observations can drive `ρ̂` through zero).
    ///
    /// # Panics
    /// Panics unless `0 < gamma < 1` and `rho_hat` is finite.
    pub fn from_state(gamma: f64, rho_hat: f64) -> Self {
        assert!(gamma > 0.0 && gamma < 1.0, "gamma must be in (0, 1), got {gamma}");
        assert!(rho_hat.is_finite(), "rho_hat must be finite, got {rho_hat}");
        Self { gamma, rho_hat }
    }

    /// The smoothing weight `γ` this predictor was built with.
    #[inline]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Feeds the rate `rho` observed for the slot that just ended and
    /// returns the updated prediction for the next slot. Non-positive
    /// observations are admissible (an idle or energy-harvesting slot can
    /// report zero or even negative net drain).
    pub fn observe(&mut self, rho: f64) -> f64 {
        debug_assert!(rho.is_finite());
        self.rho_hat = self.gamma * rho + (1.0 - self.gamma) * self.rho_hat;
        self.rho_hat
    }

    /// Current predicted rate `ρ̂(t+1)`.
    #[inline]
    pub fn predicted_rate(&self) -> f64 {
        self.rho_hat
    }
}

/// Variation test used by the base station (Section VI.B): given the cycle
/// `tau_scheduled` a sensor is currently charged at and its newly estimated
/// maximum cycle `tau_new`, the previous schedulings remain *applicable and
/// efficient* iff `tau_scheduled·(1 − margin) ≤ tau_new < 2·tau_scheduled`.
/// Outside that band the base station must recompute (either infeasible —
/// the sensor would die — or wasteful — it could be charged half as often).
///
/// `margin = 0` is the paper's band exactly. A positive margin relaxes the
/// low edge into hysteresis — safe when `tau_new` is itself the
/// `(1 − margin)`-shrunk cycle, because the *true* achievable cycle is then
/// still at least `tau_scheduled`. Without that slack the `τ₁`-anchor
/// sensor (whose scheduled cycle equals its planned `τ̂` exactly) would
/// leave the band on every infinitesimal rate increase.
#[inline]
pub fn schedule_still_applicable(tau_scheduled: f64, tau_new: f64, margin: f64) -> bool {
    tau_new >= tau_scheduled * (1.0 - margin) && tau_new < 2.0 * tau_scheduled
}

/// Largest `k ≥ 0` such that `2^k · tau1 ≤ tau` — the power-of-two
/// rounding class of Section V.A.
///
/// Computed by repeated doubling rather than `log2` so the class boundary
/// semantics are exact even when `tau/tau1` sits on a power of two.
///
/// # Panics
/// Panics when `tau < tau1` or either is non-positive.
pub fn power_class(tau1: f64, tau: f64) -> usize {
    assert!(tau1 > 0.0 && tau >= tau1, "need 0 < tau1 <= tau, got {tau1}, {tau}");
    let mut k = 0usize;
    let mut v = tau1;
    while v * 2.0 <= tau {
        v *= 2.0;
        k += 1;
    }
    k
}

/// Where a sensor's estimated cycle `τ̂` stands against its scheduled one
/// ([`SensorEstimator::drift`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drift {
    /// `τ̂` is inside the applicability band: the schedule stands.
    InBand,
    /// `τ̂` left the band into power-of-two class `k` over the current `τ₁`.
    Class(usize),
    /// `τ̂ < τ₁`: the base interval itself must shrink (a full replan).
    Undercut,
}

/// One sensor's estimator: the EWMA predictor, the last observed rate and
/// the energy level settled at `level_time`, with the sensor's capacity and
/// the planning margin and horizon.
///
/// The working rate is the pessimistic `max(ρ̂, last observed)`, so a
/// sudden spike takes effect at once. The level drains linearly at that
/// rate and is settled with the *old* rate before a new observation is
/// folded in, so a rate change never applies retroactively. Every float
/// expression the drift verdict depends on lives here, so two copies fed
/// the same inputs — one at the base station, one on the sensor — reach
/// the same verdicts bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorEstimator {
    margin: f64,
    horizon: f64,
    capacity: f64,
    predictor: EwmaPredictor,
    last_rate: f64,
    level: f64,
    level_time: f64,
}

impl SensorEstimator {
    /// A sensor at deployment: predictor initialised at `initial_rate`,
    /// battery full, clock at 0.
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
        }
    }

    /// Pessimistic working rate `max(ρ̂, last observed)`.
    #[inline]
    pub fn rate_estimate(&self) -> f64 {
        self.predictor.predicted_rate().max(self.last_rate)
    }

    /// EWMA prediction `ρ̂(t+1)`.
    #[inline]
    pub fn rho_hat(&self) -> f64 {
        self.predictor.predicted_rate()
    }

    /// The raw rate of the latest observation.
    #[inline]
    pub fn last_rate(&self) -> f64 {
        self.last_rate
    }

    /// Energy level settled to the last observation, report or charge.
    #[inline]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Estimated residual energy at time `t` under linear drain.
    #[inline]
    pub fn level_at(&self, t: f64) -> f64 {
        (self.level - self.rate_estimate() * (t - self.level_time)).max(0.0)
    }

    /// Achievable charging cycle `τ̂`: the full-battery lifetime shrunk by
    /// the margin and capped at the horizon (which keeps it finite when
    /// the working rate is ~0).
    #[inline]
    pub fn tau_hat(&self) -> f64 {
        let rate = self.rate_estimate();
        if rate <= 0.0 {
            return self.horizon;
        }
        (self.capacity / rate * (1.0 - self.margin)).min(self.horizon)
    }

    /// Residual lifetime at time `t`, shrunk by the margin and capped at
    /// [`Self::tau_hat`].
    pub fn residual_hat(&self, t: f64) -> f64 {
        let rate = self.rate_estimate();
        if rate <= 0.0 {
            return self.tau_hat();
        }
        (self.level_at(t) / rate * (1.0 - self.margin)).min(self.tau_hat())
    }

    /// Predicted absolute death time under the working rate (`∞` when the
    /// battery does not drain).
    pub fn death_time(&self) -> f64 {
        let rate = self.rate_estimate();
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        self.level_time + self.level / rate
    }

    /// Settles the level to `t` under the current working rate.
    pub fn settle(&mut self, t: f64) {
        self.level = self.level_at(t);
        self.level_time = t;
    }

    /// Folds in the rate observed for the slot ending at `t`: settle with
    /// the *old* estimate, then update the predictor.
    pub fn observe(&mut self, t: f64, rate: f64) {
        self.settle(t);
        self.predictor.observe(rate);
        self.last_rate = rate;
    }

    /// Adopts a measured level at `t`, clamped to the capacity.
    pub fn set_level(&mut self, t: f64, level: f64) {
        self.level = level.min(self.capacity);
        self.level_time = t;
    }

    /// A completed charge at `t`: the battery is full again.
    pub fn recharged(&mut self, t: f64) {
        self.set_level(t, self.capacity);
    }

    /// Adopts another copy's post-observation state verbatim — `ρ̂` via
    /// [`EwmaPredictor::from_state`], not a re-observation — with the level
    /// settled at `t`.
    ///
    /// # Panics
    /// Panics unless `rho_hat` is finite.
    pub fn adopt(&mut self, t: f64, rho_hat: f64, last_rate: f64, level: f64) {
        self.predictor = EwmaPredictor::from_state(self.predictor.gamma(), rho_hat);
        self.last_rate = last_rate;
        self.set_level(t, level);
    }

    /// The power-of-two class `τ̂` falls in over `tau1`, or `None` when
    /// `τ̂ < tau1`.
    pub fn class(&self, tau1: f64) -> Option<usize> {
        let tau = self.tau_hat();
        (tau >= tau1).then(|| power_class(tau1, tau))
    }

    /// The drift verdict against the plan `(tau1, assigned)`: in band
    /// ([`schedule_still_applicable`] at this estimator's margin), else the
    /// class `τ̂` moved to, or a `τ₁` undercut.
    pub fn drift(&self, tau1: f64, assigned: f64) -> Drift {
        if schedule_still_applicable(assigned, self.tau_hat(), self.margin) {
            return Drift::InBand;
        }
        self.class(tau1).map_or(Drift::Undercut, Drift::Class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacity 1, margin 0, a horizon far beyond every cycle below.
    fn estimator(initial_rate: f64) -> SensorEstimator {
        SensorEstimator::new(0.5, 0.0, 1e9, 1.0, initial_rate)
    }

    #[test]
    fn observe_matches_formula() {
        let mut p = EwmaPredictor::new(0.25, 1.0);
        let updated = p.observe(2.0);
        assert!((updated - (0.25 * 2.0 + 0.75 * 1.0)).abs() < 1e-12);
        assert_eq!(p.predicted_rate(), updated);
    }

    #[test]
    fn converges_to_constant_signal() {
        let mut p = EwmaPredictor::new(EwmaPredictor::DEFAULT_GAMMA, 10.0);
        for _ in 0..60 {
            p.observe(2.0);
        }
        assert!((p.predicted_rate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tracks_step_change_geometrically() {
        let mut p = EwmaPredictor::new(0.5, 1.0);
        p.observe(3.0); // 2.0
        p.observe(3.0); // 2.5
        p.observe(3.0); // 2.75
        assert!((p.predicted_rate() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn derived_quantities() {
        let mut e = estimator(0.2);
        assert!((e.tau_hat() - 5.0).abs() < 1e-12);
        e.settle(2.5);
        assert!((e.level() - 0.5).abs() < 1e-12);
        assert!((e.residual_hat(2.5) - 2.5).abs() < 1e-12);
        assert!((e.death_time() - 5.0).abs() < 1e-12);
        // The margin shrinks both cycle and residual; the horizon caps them.
        let shrunk = SensorEstimator::new(0.5, 0.5, 4.0, 1.0, 0.2);
        assert!((shrunk.tau_hat() - 2.5).abs() < 1e-12);
        assert!((shrunk.residual_hat(0.0) - 2.5).abs() < 1e-12);
        assert_eq!(SensorEstimator::new(0.5, 0.0, 4.0, 1.0, 0.2).tau_hat(), 4.0);
    }

    #[test]
    fn applicability_band() {
        assert!(schedule_still_applicable(4.0, 4.0, 0.0));
        assert!(schedule_still_applicable(4.0, 7.9, 0.0));
        assert!(!schedule_still_applicable(4.0, 8.0, 0.0)); // could halve frequency
        assert!(!schedule_still_applicable(4.0, 3.9, 0.0)); // would die

        // Hysteresis: the low edge relaxes to 4·(1 − 0.25) = 3, closed.
        assert!(schedule_still_applicable(4.0, 3.0, 0.25));
        assert!(!schedule_still_applicable(4.0, f64::from_bits(3.0f64.to_bits() - 1), 0.25));
        assert!(!schedule_still_applicable(4.0, 8.0, 0.25));
    }

    #[test]
    fn drift_verdicts() {
        // τ̂ = 1 / 0.125 = 8 over τ₁ = 2: class 2.
        let e = estimator(0.125);
        assert_eq!(e.drift(2.0, 8.0), Drift::InBand);
        assert_eq!(e.drift(2.0, 4.0), Drift::Class(2), "τ̂ = 2·assigned leaves the band");
        assert_eq!(e.drift(2.0, 16.0), Drift::Class(2));
        assert_eq!(e.drift(16.0, 16.0), Drift::Undercut);
        assert_eq!(e.class(2.0), Some(2));
        assert_eq!(e.class(16.0), None);
    }

    #[test]
    fn settles_with_the_old_rate_before_observing() {
        let mut e = estimator(0.1);
        e.observe(2.0, 0.3);
        assert!((e.level() - 0.8).abs() < 1e-12, "two time units at the old rate 0.1");
        assert_eq!(e.rate_estimate(), 0.3, "the raw spike floors the EWMA's 0.2");
        assert!((e.level_at(3.0) - 0.5).abs() < 1e-12);
        e.recharged(3.0);
        assert_eq!(e.level(), 1.0);
        e.set_level(4.0, 7.0);
        assert_eq!(e.level(), 1.0, "a report above capacity is clamped");
    }

    #[test]
    fn adopted_state_evolves_like_the_observed_one() {
        let mut live = estimator(0.1);
        live.observe(1.0, 0.3);
        live.observe(2.5, 0.05);
        let mut copy = estimator(0.1);
        copy.adopt(2.5, live.rho_hat(), live.last_rate(), live.level());
        assert_eq!(copy, live, "adoption reproduces the observed state bit for bit");
        live.observe(4.0, 0.2);
        copy.observe(4.0, 0.2);
        assert_eq!(copy, live);
    }

    #[test]
    fn ewma_non_positive_prediction_saturates_lifetimes_at_infinity() {
        // One negative observation cancels the history exactly: ρ̂ = 0.
        let mut e = estimator(1.0);
        e.observe(0.0, -1.0);
        assert_eq!(e.rho_hat(), 0.0);
        assert_eq!(e.rate_estimate(), 0.0);
        assert_eq!(e.tau_hat(), 1e9, "τ̂ saturates at the horizon");
        assert_eq!(e.residual_hat(0.0), 1e9);
        assert_eq!(e.death_time(), f64::INFINITY);
        // Push strictly below zero: still saturated, never negative.
        e.observe(0.0, -1.0);
        assert!(e.rate_estimate() < 0.0);
        assert_eq!(e.tau_hat(), 1e9);
        assert_eq!(e.death_time(), f64::INFINITY);
        // Fresh positive observations recover a finite cycle.
        for _ in 0..20 {
            e.observe(0.0, 2.0);
        }
        assert!((e.tau_hat() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ewma_boundary_exactly_zero_rate_observation() {
        // Zero observations decay ρ̂ geometrically but never through zero,
        // so lifetimes stay finite until the prediction actually crosses.
        let mut e = estimator(1.0);
        for _ in 0..50 {
            e.observe(0.0, 0.0);
        }
        assert!(e.rho_hat() > 0.0);
        assert!(e.rate_estimate() > 0.0);
        assert!(e.death_time().is_finite());
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn gamma_bounds_enforced() {
        EwmaPredictor::new(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "initial rate")]
    fn initial_rate_must_be_positive() {
        EwmaPredictor::new(0.5, 0.0);
    }

    #[test]
    fn from_state_round_trips_observation_state() {
        let mut live = EwmaPredictor::new(0.5, 1.0);
        live.observe(2.0);
        live.observe(0.7);
        let restored = EwmaPredictor::from_state(live.gamma(), live.predicted_rate());
        assert_eq!(restored, live, "restored predictor is bit-identical");
        let mut a = live;
        let mut b = restored;
        assert_eq!(a.observe(1.3), b.observe(1.3), "and evolves identically");
    }

    #[test]
    fn from_state_admits_non_positive_state() {
        // An adopted ρ̂ may have been driven to or below zero by idle
        // slots; lifetimes saturate exactly as on the live estimator.
        let mut e = estimator(1.0);
        e.adopt(1.0, 0.0, 0.0, 0.5);
        assert_eq!(e.death_time(), f64::INFINITY);
        e.adopt(1.0, -0.25, 0.0, 0.5);
        assert_eq!(e.tau_hat(), 1e9);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_state_rejects_nan() {
        EwmaPredictor::from_state(0.5, f64::NAN);
    }
}
