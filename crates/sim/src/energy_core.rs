//! Lazy per-sensor energy accounting with death and urgency prediction.
//!
//! The dense-sweep engine (preserved in [`crate::reference`]) drains every
//! battery across every event segment, so each slot boundary, polling
//! check, dispatch and travel-time arrival costs O(n). This core stores
//! each battery at its last *touch* — the pair `(level(touch), touch)` —
//! and materialises levels only when something actually needs them: slot
//! boundaries, charges, and full policy observations. Rates are constant
//! within a slot, so between touches a sensor's level is the closed form
//! `level(t) = max(level(touch) − ρ_i·(t − touch), 0)`, which makes the
//! two quantities the engine used to scan for *predictable*:
//!
//! - **deaths**: a min-heap of predicted zero-crossings, popped with
//!   `key < tn` before the clock advances to the next event `tn`;
//! - **urgency**: a min-heap of predicted threshold-crossings
//!   (`level/max(ρ̂, ρ_rep) ≤ Δl`), popped at polling checks.
//!
//! # Invariants (see DESIGN.md § Simulation performance)
//!
//! - `batteries[i].level()` is the level at `touch[i]`;
//!   [`EnergyCore::settle`] advances the pair, [`EnergyCore::peek`] reads
//!   without advancing. Both agree with the dense sweep up to float
//!   re-association (one multiply instead of a per-segment cascade).
//! - The dense sweep kills sensor `i` in segment `[t, tn)` iff
//!   `ρ·(tn − t) > level(t) + 1e-9`. Telescoped over consecutive segments
//!   this is `tn > d + 1e-9/ρ` with `d = touch + level(touch)/ρ`, so the
//!   death-heap key is exactly `d + 1e-9/ρ`: popping every entry with
//!   `key < tn` (strictly — a charge landing at the depletion instant
//!   still rescues) reproduces the sweep's deaths and their recorded
//!   times `d`.
//! - Heap entries are invalidated lazily: every charge bumps the sensor's
//!   stamp and pushes a fresh entry; a popped entry whose stamp is stale
//!   is discarded. Slot boundaries resample every rate, so both heaps are
//!   rebuilt wholesale there (the rebuild rides the O(n) resample) and the
//!   death heap only admits entries with `key < next_slot` — it never
//!   outgrows `n` plus the slot's charge count.

use crate::policy::Observation;
use perpetuum_energy::Battery;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pop slack for the urgency heap: keys are algebraic crossing times and
/// the membership test is re-evaluated exactly, so the margin only has to
/// dominate float error in the key (≲1e-12 at the simulator's scales).
const URGENCY_MARGIN: f64 = 1e-6;

/// A predicted zero-crossing: sensor `sensor` dies at `time` unless the
/// entry goes stale; the engine owes it a death once an event lands past
/// `key = time + 1e-9/ρ`.
#[derive(Debug, Clone, Copy)]
struct DeathEntry {
    key: f64,
    time: f64,
    sensor: usize,
    stamp: u64,
}

impl PartialEq for DeathEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for DeathEntry {}

impl PartialOrd for DeathEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeathEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.total_cmp(&other.key).then(self.sensor.cmp(&other.sensor))
    }
}

/// A predicted urgency-threshold crossing for the current slot's rates
/// and the polling policy's threshold.
#[derive(Debug, Clone, Copy)]
struct UrgencyEntry {
    key: f64,
    sensor: usize,
    stamp: u64,
}

impl PartialEq for UrgencyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for UrgencyEntry {}

impl PartialOrd for UrgencyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UrgencyEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.total_cmp(&other.key).then(self.sensor.cmp(&other.sensor))
    }
}

/// The engine's energy state: batteries, current/reported/predicted rates,
/// death and urgency prediction heaps.
pub(crate) struct EnergyCore {
    batteries: Vec<Battery>,
    /// Time each battery was last settled; its stored level is the level
    /// at this instant.
    touch: Vec<f64>,
    /// True drain rates for the current slot.
    rates: Vec<f64>,
    /// Rates the sensors report (truth plus measurement noise).
    reported: Vec<f64>,
    /// EWMA-predicted rates, refreshed at slot boundaries.
    rho_hat: Vec<f64>,
    /// Battery capacities, maintained incrementally (they only change on
    /// a charge, via aging).
    capacities: Vec<f64>,
    /// Death bookkeeping lives here, not in `Battery`: a battery at
    /// exactly zero at a charging instant is *alive* (the paper allows
    /// charge gaps equal to the cycle), so death means strictly crossing
    /// zero between charges.
    dead: Vec<bool>,
    /// Bumped on every charge; heap entries carrying an older stamp are
    /// stale and dropped on pop.
    stamp: Vec<u64>,
    /// Scratch for materialised observations.
    levels: Vec<f64>,
    deaths: BinaryHeap<Reverse<DeathEntry>>,
    /// End of the current slot: no death entry predicts past it (rates
    /// resample there and the heap is rebuilt).
    next_slot: f64,
    urgency: BinaryHeap<Reverse<UrgencyEntry>>,
    /// Threshold the urgency heap was built for, `None` when it must be
    /// rebuilt (cleared at every slot boundary).
    urgency_for: Option<f64>,
}

impl EnergyCore {
    pub(crate) fn new(
        batteries: Vec<Battery>,
        rates: Vec<f64>,
        reported: Vec<f64>,
        rho_hat: Vec<f64>,
        capacities: Vec<f64>,
    ) -> Self {
        let n = batteries.len();
        Self {
            batteries,
            touch: vec![0.0; n],
            rates,
            reported,
            rho_hat,
            capacities,
            dead: vec![false; n],
            stamp: vec![0; n],
            levels: vec![0.0; n],
            deaths: BinaryHeap::new(),
            next_slot: f64::INFINITY,
            urgency: BinaryHeap::new(),
            urgency_for: None,
        }
    }

    fn n(&self) -> usize {
        self.batteries.len()
    }

    /// Materialises sensor `i`'s level at `t` (one saturating drain over
    /// the whole untouched span) and advances its touch point.
    fn settle(&mut self, i: usize, t: f64) {
        let dt = t - self.touch[i];
        if dt > 0.0 {
            self.batteries[i].drain(self.rates[i], dt);
            self.touch[i] = t;
        }
    }

    /// Settles every battery at `t` (slot boundaries and full
    /// observations — the only places the engine pays O(n)).
    pub(crate) fn settle_all(&mut self, t: f64) {
        for i in 0..self.n() {
            self.settle(i, t);
        }
    }

    /// Sensor `i`'s level at `t ≥ touch[i]` without settling.
    fn peek(&self, i: usize, t: f64) -> f64 {
        self.batteries[i].level_after(self.rates[i], t - self.touch[i])
    }

    /// Installs sensor `i`'s rates for the new slot. The caller must have
    /// settled the battery at the boundary first (the old rate applies up
    /// to it) and must call [`Self::begin_slot`] once all rates are set.
    pub(crate) fn set_slot_rate(&mut self, i: usize, rate: f64, reported: f64, rho_hat: f64) {
        self.rates[i] = rate;
        self.reported[i] = reported;
        self.rho_hat[i] = rho_hat;
    }

    /// Starts the slot ending at `next_slot`: rebuilds the death heap
    /// against the freshly set rates and invalidates the urgency heap.
    pub(crate) fn begin_slot(&mut self, next_slot: f64) {
        self.next_slot = next_slot;
        self.urgency_for = None;
        self.urgency.clear();
        self.deaths.clear();
        for i in 0..self.n() {
            self.push_death(i);
        }
    }

    fn push_death(&mut self, i: usize) {
        if self.dead[i] {
            return;
        }
        let r = self.rates[i];
        if r <= 0.0 {
            return; // infinite lifetime this slot
        }
        let time = self.touch[i] + self.batteries[i].level() / r;
        let key = time + 1e-9 / r;
        if key < self.next_slot {
            self.deaths.push(Reverse(DeathEntry { key, time, sensor: i, stamp: self.stamp[i] }));
        }
    }

    /// Records every death strictly before the next event `tn`, calling
    /// `on_death(sensor, time)` in depletion-time order. Must run before
    /// the engine advances its clock to `tn` (including the final advance
    /// to the horizon).
    pub(crate) fn pop_deaths(&mut self, tn: f64, mut on_death: impl FnMut(usize, f64)) {
        while let Some(&Reverse(e)) = self.deaths.peek() {
            if e.key >= tn {
                break;
            }
            self.deaths.pop();
            if e.stamp != self.stamp[e.sensor] || self.dead[e.sensor] {
                continue; // stale prediction
            }
            self.dead[e.sensor] = true;
            self.batteries[e.sensor].deplete();
            self.touch[e.sensor] = e.time;
            on_death(e.sensor, e.time);
        }
    }

    /// Recharges sensor `i` to full at time `t`: bumps its stamp (stale
    /// predictions die) and pushes fresh death/urgency predictions.
    ///
    /// Returns how long the sensor had been dead when this charge revived
    /// it (`None` for a live sensor) — the engine's deadline-miss and
    /// dead-sensor-time accounting.
    pub(crate) fn charge(&mut self, i: usize, t: f64) -> Option<f64> {
        let dead_for = if self.dead[i] { Some(t - self.touch[i]) } else { None };
        self.batteries[i].charge_full();
        self.capacities[i] = self.batteries[i].capacity();
        self.touch[i] = t;
        self.dead[i] = false;
        self.stamp[i] += 1;
        self.push_death(i);
        if let Some(dt) = self.urgency_for {
            self.push_urgency(i, dt);
        }
        dead_for
    }

    /// Charge stamp of sensor `i` — bumped by every charge; the recovery
    /// pool uses it to detect orphans healed by an ordinary dispatch.
    pub(crate) fn stamp_of(&self, i: usize) -> u64 {
        self.stamp[i]
    }

    /// Summed remaining dead time at the horizon: for every sensor still
    /// dead, the span from its depletion instant (its touch point — set by
    /// [`Self::pop_deaths`]) to the horizon.
    pub(crate) fn dead_tail(&self, horizon: f64) -> f64 {
        (0..self.n()).filter(|&i| self.dead[i]).map(|i| (horizon - self.touch[i]).max(0.0)).sum()
    }

    /// The polling predicate of the dense engine, verbatim: estimated
    /// residual lifetime `level(t)/max(ρ̂, ρ_rep) ≤ dt + 1e-9`. (A zero
    /// safe rate yields `∞` or `NaN` — both compare false, exactly as the
    /// full-observation path behaves.)
    pub(crate) fn is_urgent(&self, i: usize, t: f64, dt: f64) -> bool {
        let rate_safe = self.rho_hat[i].max(self.reported[i]);
        self.peek(i, t) / rate_safe <= dt + 1e-9
    }

    /// Time at which sensor `i` first satisfies [`Self::is_urgent`],
    /// assuming the current slot's rates persist. Also the recovery
    /// pool's prediction of when a pooled orphan turns urgent.
    pub(crate) fn urgency_key(&self, i: usize, dt: f64) -> f64 {
        let rate_safe = self.rho_hat[i].max(self.reported[i]);
        let slack = (dt + 1e-9) * rate_safe;
        let r = self.rates[i];
        let level = self.batteries[i].level();
        if r <= 0.0 {
            if level <= slack {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        } else {
            self.touch[i] + (level - slack) / r
        }
    }

    fn push_urgency(&mut self, i: usize, dt: f64) {
        let key = self.urgency_key(i, dt);
        if key < f64::INFINITY {
            self.urgency.push(Reverse(UrgencyEntry { key, sensor: i, stamp: self.stamp[i] }));
        }
    }

    /// Ascending indices of the sensors urgent at `t` for threshold `dt`
    /// — bit-for-bit the set the dense engine's O(n) scan would return,
    /// but in O(log n) per popped entry. Entries are popped with a small
    /// slack on the predicted crossing, re-checked with the exact
    /// predicate, and re-pushed (an urgent sensor the policy declines to
    /// charge stays queued; a charged one is invalidated by its stamp).
    pub(crate) fn urgent_within(&mut self, t: f64, dt: f64) -> Vec<usize> {
        if self.urgency_for != Some(dt) {
            self.urgency.clear();
            self.urgency_for = Some(dt);
            for i in 0..self.n() {
                self.push_urgency(i, dt);
            }
        }
        let mut urgent = Vec::new();
        let mut popped = Vec::new();
        while let Some(&Reverse(e)) = self.urgency.peek() {
            if e.key > t + URGENCY_MARGIN {
                break;
            }
            self.urgency.pop();
            if e.stamp != self.stamp[e.sensor] {
                continue; // stale; the live entry is elsewhere in the heap
            }
            if self.is_urgent(e.sensor, t, dt) {
                urgent.push(e.sensor);
            }
            popped.push(e);
        }
        for e in popped {
            self.urgency.push(Reverse(e));
        }
        urgent.sort_unstable();
        urgent
    }

    /// Full observation at `t` (settles every battery — O(n), reserved
    /// for slot boundaries and policies that ask for it).
    pub(crate) fn observation(
        &mut self,
        time: f64,
        horizon: f64,
        next_decision: f64,
    ) -> Observation<'_> {
        self.settle_all(time);
        for (i, b) in self.batteries.iter().enumerate() {
            self.levels[i] = b.level();
        }
        Observation {
            time,
            horizon,
            next_decision,
            levels: &self.levels,
            rho_hat: &self.rho_hat,
            rho_now: &self.reported,
            capacities: &self.capacities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(rates: &[f64]) -> EnergyCore {
        let n = rates.len();
        EnergyCore::new(
            vec![Battery::full(1.0); n],
            rates.to_vec(),
            rates.to_vec(),
            rates.to_vec(),
            vec![1.0; n],
        )
    }

    #[test]
    fn peek_agrees_with_settle() {
        let mut c = core(&[0.1, 0.5]);
        c.begin_slot(10.0);
        assert!((c.peek(0, 4.0) - 0.6).abs() < 1e-12);
        c.settle_all(4.0);
        assert!((c.batteries[0].level() - 0.6).abs() < 1e-12);
        assert_eq!(c.peek(0, 4.0), c.batteries[0].level(), "settle is a touch-point move");
        // Sensor 1 saturates at zero.
        assert_eq!(c.peek(1, 9.0), 0.0);
    }

    #[test]
    fn deaths_pop_in_time_order_with_exact_times() {
        let mut c = core(&[1.0 / 3.0, 0.125, 1.0 / 7.0]);
        c.begin_slot(10.0);
        let mut seen = Vec::new();
        c.pop_deaths(10.0, |s, t| seen.push((s, t)));
        assert_eq!(seen.len(), 3);
        // Sorted by depletion time (3, 7, 8), not by sensor index.
        assert_eq!(seen.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![0, 2, 1]);
        assert!((seen[0].1 - 3.0).abs() < 1e-9);
        assert!((seen[1].1 - 7.0).abs() < 1e-9);
        assert!((seen[2].1 - 8.0).abs() < 1e-9);
        // Dead sensors report a zero level and never die twice.
        assert_eq!(c.peek(0, 9.0), 0.0);
        c.begin_slot(20.0);
        let mut again = Vec::new();
        c.pop_deaths(20.0, |s, t| again.push((s, t)));
        assert!(again.is_empty());
    }

    #[test]
    fn charge_at_depletion_instant_rescues() {
        // The dense sweep only kills when the drain strictly overshoots
        // `level + 1e-9`; an event landing exactly at the crossing keeps
        // the sensor alive, so `pop_deaths` up to that instant is empty.
        let mut c = core(&[0.25]);
        c.begin_slot(10.0);
        c.pop_deaths(4.0, |_, _| panic!("death at the boundary it can be rescued at"));
        c.charge(0, 4.0);
        let mut seen = Vec::new();
        c.pop_deaths(10.0, |s, t| seen.push((s, t)));
        assert_eq!(seen.len(), 1, "recharged battery dies again 4 units later");
        assert!((seen[0].1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn charge_invalidates_pending_death() {
        let mut c = core(&[0.5]);
        c.begin_slot(10.0);
        c.charge(0, 1.0); // stale entry (crossing at 2) must be dropped
        let mut seen = Vec::new();
        c.pop_deaths(10.0, |s, t| seen.push((s, t)));
        assert_eq!(seen.len(), 1);
        assert!((seen[0].1 - 3.0).abs() < 1e-9, "death re-predicted from the charge");
    }

    #[test]
    fn charge_reports_dead_duration_and_dead_tail_sums() {
        let mut c = core(&[0.5, 0.1]);
        c.begin_slot(100.0);
        c.pop_deaths(7.0, |_, _| {}); // sensor 0 dies at t = 2
        assert_eq!(c.stamp_of(0), 0);
        assert!((c.dead_tail(10.0) - 8.0).abs() < 1e-9);
        let revived = c.charge(0, 5.0).expect("was dead");
        assert!((revived - 3.0).abs() < 1e-9);
        assert_eq!(c.stamp_of(0), 1);
        assert_eq!(c.dead_tail(10.0), 0.0);
        assert_eq!(c.charge(1, 5.0), None, "live sensor charges report no dead time");
    }

    #[test]
    fn urgent_within_matches_dense_scan() {
        let rates = [0.5, 0.05, 0.25, 0.125];
        let mut c = core(&rates);
        c.begin_slot(100.0);
        for step in 1..=16 {
            let t = step as f64 * 0.5;
            let fast = c.urgent_within(t, 1.0);
            let slow: Vec<usize> =
                (0..rates.len()).filter(|&i| c.peek(i, t) / rates[i] <= 1.0 + 1e-9).collect();
            assert_eq!(fast, slow, "t = {t}");
            // Charge whatever came up, as the greedy policy would.
            for &i in &fast {
                c.charge(i, t);
            }
        }
    }

    #[test]
    fn dead_sensor_stays_urgent_until_charged() {
        let mut c = core(&[1.0]);
        c.begin_slot(100.0);
        c.pop_deaths(50.0, |_, _| {});
        assert_eq!(c.urgent_within(50.0, 0.5), vec![0], "a dead sensor is maximally urgent");
        c.charge(0, 50.0);
        assert!(c.urgent_within(50.0, 0.5).is_empty());
    }

    #[test]
    fn threshold_change_rebuilds_urgency() {
        let mut c = core(&[0.1]);
        c.begin_slot(100.0);
        assert!(c.urgent_within(2.0, 1.0).is_empty());
        // Residual at t = 2 is 8; a threshold of 9 flips it urgent.
        assert_eq!(c.urgent_within(2.0, 9.0), vec![0]);
    }
}
