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
    /// (a run of idle/harvesting observations can drive `ρ̂` through zero);
    /// the derived lifetimes already saturate at `∞` there.
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
    /// report zero or even negative net drain); the derived lifetimes
    /// saturate at `∞` once the prediction itself drops to `≤ 0`.
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

    /// Predicted maximum charging cycle `τ̂ = B / ρ̂`, or `∞` when the
    /// predicted rate is non-positive (the battery never drains).
    #[inline]
    pub fn max_cycle(&self, capacity: f64) -> f64 {
        if self.rho_hat <= 0.0 {
            return f64::INFINITY;
        }
        capacity / self.rho_hat
    }

    /// Predicted residual lifetime `l̂ = re / ρ̂`, or `∞` when the predicted
    /// rate is non-positive (never `NaN`, even at `re = 0`).
    #[inline]
    pub fn residual_lifetime(&self, residual_energy: f64) -> f64 {
        if self.rho_hat <= 0.0 {
            return f64::INFINITY;
        }
        residual_energy / self.rho_hat
    }
}

/// Variation test used by the base station (Section VI.B): given the cycle
/// `tau_scheduled` a sensor is currently charged at and its newly estimated
/// maximum cycle `tau_new`, the previous schedulings remain *applicable and
/// efficient* iff `tau_scheduled ≤ tau_new < 2·tau_scheduled`. Outside that
/// band the base station must recompute (either infeasible — the sensor
/// would die — or wasteful — it could be charged half as often).
#[inline]
pub fn schedule_still_applicable(tau_scheduled: f64, tau_new: f64) -> bool {
    tau_scheduled <= tau_new && tau_new < 2.0 * tau_scheduled
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

/// Double-exponential (Holt) smoothing: tracks both a level and a trend,
/// so steadily drifting consumption (battery aging, seasonally rising
/// sampling rates) is extrapolated instead of lagged. An extension beyond
/// the paper's trend-blind EWMA; `HoltPredictor` with `beta = 0`
/// degenerates to it.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "std", derive(serde::Serialize, serde::Deserialize))]
pub struct HoltPredictor {
    alpha: f64,
    beta: f64,
    level: f64,
    trend: f64,
}

impl HoltPredictor {
    /// Creates a predictor initialised at `initial_rate` with zero trend.
    ///
    /// # Panics
    /// Panics unless `0 < alpha < 1` and `0 ≤ beta < 1` and the initial
    /// rate is positive.
    pub fn new(alpha: f64, beta: f64, initial_rate: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        assert!((0.0..1.0).contains(&beta), "beta must be in [0, 1)");
        assert!(initial_rate > 0.0 && initial_rate.is_finite());
        Self { alpha, beta, level: initial_rate, trend: 0.0 }
    }

    /// Feeds an observed rate; returns the one-step-ahead prediction.
    /// Non-positive observations are admissible, like
    /// [`EwmaPredictor::observe`].
    pub fn observe(&mut self, rho: f64) -> f64 {
        debug_assert!(rho.is_finite());
        let prev_level = self.level;
        self.level = self.alpha * rho + (1.0 - self.alpha) * (self.level + self.trend);
        self.trend = self.beta * (self.level - prev_level) + (1.0 - self.beta) * self.trend;
        self.predicted_rate()
    }

    /// One-step-ahead rate prediction `level + trend`, floored at a tiny
    /// positive value so it can be fed back into rate formulas directly.
    pub fn predicted_rate(&self) -> f64 {
        (self.level + self.trend).max(f64::MIN_POSITIVE)
    }

    /// Predicted maximum charging cycle `B / ρ̂`, or `∞` when the raw
    /// (unfloored) prediction `level + trend` has gone non-positive after a
    /// negative-trend observation — a battery that never drains, not a
    /// huge-but-finite `B / MIN_POSITIVE` artifact.
    pub fn max_cycle(&self, capacity: f64) -> f64 {
        if self.level + self.trend <= 0.0 {
            return f64::INFINITY;
        }
        capacity / self.predicted_rate()
    }

    /// Predicted residual lifetime `re / ρ̂`, with the same `∞` saturation
    /// as [`HoltPredictor::max_cycle`] (never `NaN`, even at `re = 0`).
    pub fn residual_lifetime(&self, residual_energy: f64) -> f64 {
        if self.level + self.trend <= 0.0 {
            return f64::INFINITY;
        }
        residual_energy / self.predicted_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let p = EwmaPredictor::new(0.5, 0.2);
        assert!((p.max_cycle(1.0) - 5.0).abs() < 1e-12);
        assert!((p.residual_lifetime(0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn applicability_band() {
        assert!(schedule_still_applicable(4.0, 4.0));
        assert!(schedule_still_applicable(4.0, 7.9));
        assert!(!schedule_still_applicable(4.0, 8.0)); // could halve frequency
        assert!(!schedule_still_applicable(4.0, 3.9)); // would die
    }

    #[test]
    fn holt_tracks_linear_drift_better_than_ewma() {
        // Rate rising 1% per slot (battery aging seen from the rate side):
        // after a burn-in, Holt's one-step prediction error is far below
        // the EWMA's systematic lag.
        let mut ewma = EwmaPredictor::new(0.5, 1.0);
        let mut holt = HoltPredictor::new(0.5, 0.3, 1.0);
        let mut ewma_err = 0.0;
        let mut holt_err = 0.0;
        let mut rate = 1.0;
        for step in 0..200 {
            rate *= 1.01;
            if step >= 50 {
                ewma_err += (ewma.predicted_rate() - rate).abs();
                holt_err += (holt.predicted_rate() - rate).abs();
            }
            ewma.observe(rate);
            holt.observe(rate);
        }
        assert!(holt_err < ewma_err / 3.0, "holt {holt_err} should beat ewma {ewma_err} by 3x+");
    }

    #[test]
    fn holt_with_zero_beta_matches_ewma() {
        let mut ewma = EwmaPredictor::new(0.4, 2.0);
        let mut holt = HoltPredictor::new(0.4, 0.0, 2.0);
        for rho in [2.5, 1.8, 3.0, 2.2, 2.9] {
            let a = ewma.observe(rho);
            let b = holt.observe(rho);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn holt_converges_on_constant_signal() {
        let mut holt = HoltPredictor::new(0.5, 0.3, 10.0);
        for _ in 0..100 {
            holt.observe(2.0);
        }
        assert!((holt.predicted_rate() - 2.0).abs() < 1e-6);
        assert!((holt.max_cycle(1.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn holt_prediction_stays_positive() {
        // A falling rate with strong trend could extrapolate below zero;
        // the floor keeps cycle estimates finite.
        let mut holt = HoltPredictor::new(0.9, 0.9, 10.0);
        for step in 0..50 {
            holt.observe((10.0 - step as f64 * 0.2).max(0.01));
        }
        assert!(holt.predicted_rate() > 0.0);
    }

    #[test]
    fn ewma_non_positive_prediction_saturates_lifetimes_at_infinity() {
        // One negative observation cancels the history exactly: ρ̂ = 0.
        let mut p = EwmaPredictor::new(0.5, 1.0);
        p.observe(-1.0);
        assert_eq!(p.predicted_rate(), 0.0);
        assert_eq!(p.max_cycle(1.0), f64::INFINITY);
        assert_eq!(p.residual_lifetime(0.5), f64::INFINITY);
        // The 0/0 corner must be ∞, not NaN.
        assert_eq!(p.residual_lifetime(0.0), f64::INFINITY);
        // Push strictly below zero: still ∞, never negative lifetimes.
        p.observe(-1.0);
        assert!(p.predicted_rate() < 0.0);
        assert_eq!(p.max_cycle(1.0), f64::INFINITY);
        assert_eq!(p.residual_lifetime(0.5), f64::INFINITY);
        // Fresh positive observations recover a finite cycle.
        for _ in 0..20 {
            p.observe(2.0);
        }
        assert!((p.max_cycle(1.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ewma_boundary_exactly_zero_rate_observation() {
        // Zero observations decay ρ̂ geometrically but never through zero,
        // so lifetimes stay finite until the prediction actually crosses.
        let mut p = EwmaPredictor::new(0.5, 1.0);
        for _ in 0..50 {
            p.observe(0.0);
        }
        assert!(p.predicted_rate() > 0.0);
        assert!(p.max_cycle(1.0).is_finite());
    }

    #[test]
    fn holt_negative_trend_saturates_lifetimes_at_infinity() {
        // A crashing rate with aggressive trend tracking extrapolates the
        // raw level + trend below zero; the derived lifetimes must report
        // ∞ instead of the huge-but-finite B / MIN_POSITIVE artifact.
        let mut holt = HoltPredictor::new(0.9, 0.9, 10.0);
        holt.observe(0.1);
        holt.observe(0.001);
        assert!(holt.predicted_rate() > 0.0, "floored rate stays positive");
        assert_eq!(holt.max_cycle(1.0), f64::INFINITY);
        assert_eq!(holt.residual_lifetime(0.5), f64::INFINITY);
        assert_eq!(holt.residual_lifetime(0.0), f64::INFINITY);
        // Recovery: once observations rise again the cycle comes back down.
        for _ in 0..50 {
            holt.observe(2.0);
        }
        assert!((holt.max_cycle(1.0) - 0.5).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn holt_alpha_bounds() {
        HoltPredictor::new(1.0, 0.1, 1.0);
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
        // A restored ρ̂ may have been driven to or below zero by idle
        // slots; lifetimes saturate exactly as on the live predictor.
        let p = EwmaPredictor::from_state(0.5, 0.0);
        assert_eq!(p.max_cycle(1.0), f64::INFINITY);
        let p = EwmaPredictor::from_state(0.5, -0.25);
        assert_eq!(p.residual_lifetime(0.5), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_state_rejects_nan() {
        EwmaPredictor::from_state(0.5, f64::NAN);
    }
}
