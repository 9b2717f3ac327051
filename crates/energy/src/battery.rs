//! Rechargeable battery with exact piecewise-linear energy bookkeeping.

use serde::{Deserialize, Serialize};

/// A sensor battery.
///
/// The paper normalises sensors by their maximum charging cycle
/// `τ_i = B_i / ρ_i`; the default capacity is therefore `1.0` so a rate of
/// `ρ = 1/τ` drains a full battery in exactly `τ` time units. Energy never
/// goes below zero: once the level hits zero the sensor is dead until the
/// next charge (deaths are what the feasibility experiments count).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity: f64,
    level: f64,
    /// Relative capacity lost per full charge (battery aging); 0 = the
    /// paper's ideal battery.
    fade_per_charge: f64,
    /// Capacity never fades below this (end-of-life floor — real batteries
    /// are replaced, they don't decay to zero; unbounded fade would also
    /// make the charging demand diverge in finite time).
    capacity_floor: f64,
}

impl Battery {
    /// A full battery of the given capacity.
    ///
    /// # Panics
    /// Panics when `capacity` is not strictly positive and finite.
    pub fn full(capacity: f64) -> Self {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "battery capacity must be positive and finite, got {capacity}"
        );
        Self { capacity, level: capacity, fade_per_charge: 0.0, capacity_floor: 0.0 }
    }

    /// A full battery that loses a relative `fade` of its capacity at
    /// every recharge (LiFePO4-style cycle aging, exaggerated to whatever
    /// the experiment needs), bottoming out at `floor_fraction` of the
    /// initial capacity (the ~50–80% industry end-of-life threshold).
    ///
    /// # Panics
    /// Panics unless `0 ≤ fade < 1` and `0 < floor_fraction ≤ 1`.
    pub fn full_with_fade(capacity: f64, fade: f64, floor_fraction: f64) -> Self {
        assert!((0.0..1.0).contains(&fade), "fade must be in [0, 1), got {fade}");
        assert!(
            floor_fraction > 0.0 && floor_fraction <= 1.0,
            "floor fraction must be in (0, 1], got {floor_fraction}"
        );
        let mut b = Self::full(capacity);
        b.fade_per_charge = fade;
        b.capacity_floor = capacity * floor_fraction;
        b
    }

    /// A battery at an arbitrary level `level ∈ [0, capacity]`.
    #[cfg(test)]
    pub(crate) fn at_level(capacity: f64, level: f64) -> Self {
        let mut b = Self::full(capacity);
        assert!((0.0..=capacity).contains(&level), "level {level} outside [0, {capacity}]");
        b.level = level;
        b
    }

    /// Battery capacity `B_i`.
    #[inline]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Current energy level.
    #[inline]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Fraction of capacity remaining, in `[0, 1]`.
    #[inline]
    pub fn fraction(&self) -> f64 {
        self.level / self.capacity
    }

    /// True once the battery is fully depleted.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.level <= 0.0
    }

    /// Drains at constant rate `rate` for `duration` time units, saturating
    /// at zero. Returns `true` when the battery ran dry *during* this drain
    /// (i.e. it was alive before and is dead after).
    pub fn drain(&mut self, rate: f64, duration: f64) -> bool {
        debug_assert!(rate >= 0.0 && duration >= 0.0);
        let was_alive = !self.is_dead();
        self.level = (self.level - rate * duration).max(0.0);
        was_alive && self.is_dead()
    }

    /// Level after draining at constant `rate` for `duration`, without
    /// mutating the battery. This is the read side of the simulator's
    /// lazy energy accounting: a battery stored at its last touch point
    /// can be peeked at any later instant in O(1).
    #[inline]
    pub fn level_after(&self, rate: f64, duration: f64) -> f64 {
        debug_assert!(rate >= 0.0 && duration >= 0.0);
        (self.level - rate * duration).max(0.0)
    }

    /// Empties the battery in place. The simulator settles a predicted
    /// death by pinning the level to exactly zero (a saturating
    /// [`Self::drain`] past the crossing lands there too; this skips the
    /// arithmetic).
    #[inline]
    pub fn deplete(&mut self) {
        self.level = 0.0;
    }

    /// Recharges to full capacity (the paper's point-to-point charging
    /// always charges a visited sensor to its full capacity), applying any
    /// configured aging first.
    pub fn charge_full(&mut self) {
        self.capacity = (self.capacity * (1.0 - self.fade_per_charge)).max(self.capacity_floor);
        self.level = self.capacity;
    }

    /// Time until depletion when drained at constant `rate`; `+∞` for a
    /// zero rate.
    pub fn lifetime_at(&self, rate: f64) -> f64 {
        debug_assert!(rate >= 0.0);
        if rate == 0.0 {
            f64::INFINITY
        } else {
            self.level / rate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_battery_starts_full() {
        let b = Battery::full(2.5);
        assert_eq!(b.capacity(), 2.5);
        assert_eq!(b.level(), 2.5);
        assert_eq!(b.fraction(), 1.0);
        assert!(!b.is_dead());
    }

    #[test]
    fn drain_decrements_and_saturates() {
        let mut b = Battery::full(1.0);
        assert!(!b.drain(0.1, 5.0));
        assert!((b.level() - 0.5).abs() < 1e-12);
        // Draining past zero kills it exactly once.
        assert!(b.drain(1.0, 10.0));
        assert_eq!(b.level(), 0.0);
        assert!(b.is_dead());
        assert!(!b.drain(1.0, 1.0), "already dead: no new death event");
    }

    #[test]
    fn charge_restores_full() {
        let mut b = Battery::full(1.0);
        b.drain(1.0, 0.7);
        b.charge_full();
        assert_eq!(b.level(), 1.0);
        assert!(!b.is_dead());
    }

    #[test]
    fn lifetime_matches_rate() {
        let b = Battery::at_level(1.0, 0.25);
        assert!((b.lifetime_at(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(b.lifetime_at(0.0), f64::INFINITY);
    }

    #[test]
    fn exact_cycle_drain() {
        // Normalised battery: rate 1/τ drains in exactly τ.
        let tau = 7.0;
        let mut b = Battery::full(1.0);
        assert!(!b.drain(1.0 / tau, tau * 0.999));
        assert!(b.level() > 0.0);
        assert!(b.drain(1.0 / tau, tau * 0.002));
        assert!(b.is_dead());
    }

    #[test]
    fn level_after_peeks_without_mutating() {
        let mut b = Battery::full(1.0);
        assert!((b.level_after(0.1, 5.0) - 0.5).abs() < 1e-12);
        assert_eq!(b.level(), 1.0, "peek must not drain");
        // The peek agrees exactly with a single equivalent drain.
        let peek = b.level_after(0.25, 3.0);
        b.drain(0.25, 3.0);
        assert_eq!(b.level(), peek);
        // Saturates at zero like `drain`.
        assert_eq!(b.level_after(10.0, 10.0), 0.0);
    }

    #[test]
    fn deplete_empties_in_place() {
        let mut b = Battery::full(2.0);
        b.deplete();
        assert_eq!(b.level(), 0.0);
        assert!(b.is_dead());
        assert_eq!(b.capacity(), 2.0, "capacity untouched");
        b.charge_full();
        assert_eq!(b.level(), 2.0);
    }

    #[test]
    fn fade_shrinks_capacity_per_charge() {
        let mut b = Battery::full_with_fade(1.0, 0.1, 0.5);
        assert_eq!(b.capacity(), 1.0);
        b.drain(1.0, 0.5);
        b.charge_full();
        assert!((b.capacity() - 0.9).abs() < 1e-12);
        assert_eq!(b.level(), b.capacity());
        b.charge_full();
        assert!((b.capacity() - 0.81).abs() < 1e-12);
        // Zero fade is the ideal battery.
        let mut ideal = Battery::full(1.0);
        ideal.charge_full();
        assert_eq!(ideal.capacity(), 1.0);
    }

    #[test]
    fn fade_respects_end_of_life_floor() {
        let mut b = Battery::full_with_fade(1.0, 0.5, 0.6);
        b.charge_full(); // 0.5 < floor 0.6 → clamps
        assert_eq!(b.capacity(), 0.6);
        b.charge_full();
        assert_eq!(b.capacity(), 0.6, "floor is sticky");
    }

    #[test]
    #[should_panic(expected = "fade must be in")]
    fn fade_bounds_checked() {
        Battery::full_with_fade(1.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "floor fraction")]
    fn floor_bounds_checked() {
        Battery::full_with_fade(1.0, 0.1, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        Battery::full(0.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn at_level_validates_range() {
        Battery::at_level(1.0, 1.5);
    }
}
