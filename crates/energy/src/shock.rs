//! Consumption-rate shocks and drift (fault-injection hook).
//!
//! The paper's rate processes ([`crate::consumption`]) resample benignly at
//! slot boundaries. Real deployments also see *adverse* rate dynamics: a
//! sensor near a detected event suddenly samples at a multiple of its
//! nominal rate for a while (a **shock**), and ageing electronics drain a
//! little more every slot (**drift**). This module layers both on top of
//! any rate process: the simulator asks [`ShockState::apply`] to transform
//! the freshly resampled rate once per sensor per slot, drawing from a
//! dedicated fault RNG stream so that disabling faults leaves the nominal
//! streams untouched.
//!
//! The process is a per-sensor two-state machine: nominal, or shocked for
//! the next `shock_slots` slots (entered with probability `shock_prob` per
//! slot, rate multiplied by `shock_factor`). Drift multiplies every rate by
//! `(1 + drift)^slot`, compounding monotonically. Exactly one uniform draw
//! is consumed per `apply` call regardless of the machine's state, so the
//! fault stream stays aligned across sensors whatever sequence of shocks a
//! run sees.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the shock/drift layer (all per-slot).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateShock {
    /// Probability of entering a shock at a slot boundary while nominal.
    #[serde(default)]
    pub shock_prob: f64,
    /// Rate multiplier while shocked (`> 1` worsens drain).
    #[serde(default)]
    pub shock_factor: f64,
    /// Shock duration in slots (a shock entered at slot `m` covers slots
    /// `m .. m + shock_slots`).
    #[serde(default)]
    pub shock_slots: u32,
    /// Per-slot multiplicative drift: every rate is additionally scaled by
    /// `(1 + drift)` each slot, compounding (0 disables).
    #[serde(default)]
    pub drift: f64,
}

impl RateShock {
    /// A pure shock process (no drift).
    pub fn shocks(shock_prob: f64, shock_factor: f64, shock_slots: u32) -> Self {
        Self { shock_prob, shock_factor, shock_slots, drift: 0.0 }
    }

    /// A pure drift process (no shocks).
    pub fn drift(drift: f64) -> Self {
        Self { shock_prob: 0.0, shock_factor: 1.0, shock_slots: 0, drift }
    }

    /// Checks the parameters are usable; returns a description of the
    /// first offending field otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.shock_prob) {
            return Err(format!("shock_prob {} outside [0, 1]", self.shock_prob));
        }
        if !self.shock_factor.is_finite() || self.shock_factor <= 0.0 {
            return Err(format!("shock_factor {} must be positive and finite", self.shock_factor));
        }
        if !self.drift.is_finite() || self.drift < 0.0 {
            return Err(format!("drift {} must be non-negative and finite", self.drift));
        }
        Ok(())
    }
}

/// Per-sensor shock-machine state.
#[derive(Debug, Clone, Default)]
pub struct ShockState {
    /// Slots the current shock still covers (including the one being
    /// entered); 0 means nominal.
    remaining: u32,
    /// Compounded drift multiplier, `(1 + drift)^slots_seen`.
    drift_mult: f64,
}

impl ShockState {
    /// Fresh state: nominal, no drift accumulated.
    pub fn new() -> Self {
        Self { remaining: 0, drift_mult: 1.0 }
    }

    /// Transforms the freshly resampled `rate` for the next slot, advancing
    /// the machine. Consumes exactly one uniform draw from `rng` per call.
    pub fn apply<R: Rng + ?Sized>(&mut self, cfg: &RateShock, rate: f64, rng: &mut R) -> f64 {
        let u = rng.gen::<f64>();
        if self.remaining > 0 {
            self.remaining -= 1;
        } else if u < cfg.shock_prob && cfg.shock_slots > 0 {
            self.remaining = cfg.shock_slots - 1;
        } else {
            self.drift_mult *= 1.0 + cfg.drift;
            return rate * self.drift_mult;
        }
        self.drift_mult *= 1.0 + cfg.drift;
        rate * cfg.shock_factor * self.drift_mult
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn drift_compounds_per_slot() {
        let cfg = RateShock::drift(0.1);
        let mut st = ShockState::new();
        let mut rng = StdRng::seed_from_u64(1);
        let r1 = st.apply(&cfg, 1.0, &mut rng);
        let r2 = st.apply(&cfg, 1.0, &mut rng);
        assert!((r1 - 1.1).abs() < 1e-12);
        assert!((r2 - 1.21).abs() < 1e-12);
        assert_eq!(st.remaining, 0);
    }

    #[test]
    fn certain_shock_lasts_its_slots() {
        let cfg = RateShock::shocks(1.0, 3.0, 2);
        let mut st = ShockState::new();
        let mut rng = StdRng::seed_from_u64(2);
        // Entered at the first apply, covers 2 slots, then re-enters
        // (probability 1) — the factor applies every slot here.
        for _ in 0..4 {
            assert_eq!(st.apply(&cfg, 1.0, &mut rng), 3.0);
        }
    }

    #[test]
    fn zero_probability_never_shocks() {
        let cfg = RateShock::shocks(0.0, 5.0, 3);
        let mut st = ShockState::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(st.apply(&cfg, 2.0, &mut rng), 2.0);
        }
    }

    #[test]
    fn one_draw_per_apply_keeps_streams_aligned() {
        // Two state machines fed from clones of the same RNG must leave the
        // generators in identical states whatever their shock histories.
        let always = RateShock::shocks(1.0, 2.0, 4);
        let never = RateShock::shocks(0.0, 2.0, 4);
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = rng_a.clone();
        let (mut sa, mut sb) = (ShockState::new(), ShockState::new());
        for _ in 0..16 {
            sa.apply(&always, 1.0, &mut rng_a);
            sb.apply(&never, 1.0, &mut rng_b);
        }
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert!(RateShock::shocks(0.1, 2.0, 3).validate().is_ok());
        assert!(RateShock::shocks(1.5, 2.0, 3).validate().is_err());
        assert!(RateShock::shocks(0.1, 0.0, 3).validate().is_err());
        assert!(RateShock::drift(-0.1).validate().is_err());
        assert!(RateShock::drift(f64::NAN).validate().is_err());
    }
}
