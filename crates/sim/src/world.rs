//! The simulated world: network geometry plus per-sensor energy state.

use perpetuum_core::network::Network;
use perpetuum_energy::consumption::ConsumptionProcess;
use perpetuum_energy::{
    Battery, CycleDistribution, EwmaPredictor, FixedRate, MarkovBurst, SlottedResample,
};
use rand::rngs::StdRng;

/// A per-sensor consumption-rate process (enum dispatch over the
/// [`ConsumptionProcess`] implementations the experiments use).
#[derive(Debug, Clone)]
pub enum RateProcess {
    /// Constant rate — the fixed-cycle setting of Section V.
    Fixed(FixedRate),
    /// Cycle redrawn every slot — the variable setting of Section VI.
    Slotted(SlottedResample),
    /// Two-state bursty load (extension) — event-detection workloads.
    Markov(MarkovBurst),
}

impl RateProcess {
    /// Rate for slot `slot`.
    pub fn rate_for_slot(&mut self, slot: u64, rng: &mut StdRng) -> f64 {
        match self {
            RateProcess::Fixed(p) => p.rate_for_slot(slot, rng),
            RateProcess::Slotted(p) => p.rate_for_slot(slot, rng),
            RateProcess::Markov(p) => p.rate_for_slot(slot, rng),
        }
    }

    /// True when the rate can change between slots.
    pub fn is_variable(&self) -> bool {
        match self {
            RateProcess::Fixed(p) => p.is_variable(),
            RateProcess::Slotted(p) => p.is_variable(),
            RateProcess::Markov(p) => p.is_variable(),
        }
    }
}

/// The simulated WSN: geometry, batteries, rate processes and the
/// predictors the base station sees.
#[derive(Debug, Clone)]
pub struct World {
    /// Network geometry (sensors, depots, metric).
    pub network: Network,
    /// Battery per sensor, all full at `t = 0`.
    pub batteries: Vec<Battery>,
    /// Rate process per sensor.
    pub processes: Vec<RateProcess>,
    /// EWMA weight `γ` for the predictors.
    pub gamma: f64,
    /// Relative measurement noise: the rate a sensor *reports* each slot is
    /// `ρ_true · (1 + u)` with `u ~ U[−noise, +noise]`. Zero (default)
    /// models the paper's perfect monitoring; positive values stress the
    /// estimators. Energy always drains at the true rate.
    pub measurement_noise: f64,
}

impl World {
    /// A world with normalised (capacity 1) batteries and explicit
    /// processes.
    pub fn new(network: Network, processes: Vec<RateProcess>, gamma: f64) -> Self {
        assert_eq!(processes.len(), network.n(), "one rate process per sensor");
        let batteries = vec![Battery::full(1.0); network.n()];
        Self { network, batteries, processes, gamma, measurement_noise: 0.0 }
    }

    /// Gives every battery a per-charge capacity fade (aging extension)
    /// with the standard 50% end-of-life floor. Builder-style. The
    /// estimated cycles the policies see shrink along with the capacity,
    /// so adaptive policies re-tighten their schedules as batteries age.
    pub fn with_battery_fade(mut self, fade: f64) -> Self {
        self.batteries = self
            .batteries
            .iter()
            .map(|b| Battery::full_with_fade(b.capacity(), fade, 0.5))
            .collect();
        self
    }

    /// Sets the relative measurement noise (see
    /// [`World::measurement_noise`]). Builder-style.
    ///
    /// # Panics
    /// Panics unless `0 ≤ noise < 1`.
    pub fn with_measurement_noise(mut self, noise: f64) -> Self {
        assert!((0.0..1.0).contains(&noise), "noise must be in [0, 1)");
        self.measurement_noise = noise;
        self
    }

    /// Fixed-cycle world: sensor `i` drains its unit battery in exactly
    /// `cycles[i]` time units, forever.
    pub fn fixed(network: Network, cycles: &[f64]) -> Self {
        let processes =
            cycles.iter().map(|&tau| RateProcess::Fixed(FixedRate::from_cycle(1.0, tau))).collect();
        Self::new(network, processes, EwmaPredictor::DEFAULT_GAMMA)
    }

    /// Variable-cycle world: sensor `i`'s cycle is redrawn each slot from
    /// `dist` around `mean_cycles[i]`, clamped into `[tau_min, tau_max]`.
    pub fn variable(
        network: Network,
        mean_cycles: &[f64],
        dist: CycleDistribution,
        tau_min: f64,
        tau_max: f64,
    ) -> Self {
        let processes = mean_cycles
            .iter()
            .map(|&mean| {
                RateProcess::Slotted(SlottedResample::new(1.0, mean, dist, tau_min, tau_max))
            })
            .collect();
        Self::new(network, processes, EwmaPredictor::DEFAULT_GAMMA)
    }

    /// Bursty world (extension): sensor `i` is calm at `mean_cycles[i]`
    /// but collapses to `mean_cycles[i] / burst_factor` while a per-slot
    /// Markov chain is in its burst state.
    #[allow(clippy::too_many_arguments)]
    pub fn bursty(
        network: Network,
        mean_cycles: &[f64],
        burst_factor: f64,
        p_enter: f64,
        p_exit: f64,
        tau_min: f64,
        tau_max: f64,
    ) -> Self {
        let processes = mean_cycles
            .iter()
            .map(|&mean| {
                RateProcess::Markov(MarkovBurst::new(
                    1.0,
                    mean,
                    burst_factor,
                    p_enter,
                    p_exit,
                    tau_min,
                    tau_max,
                ))
            })
            .collect();
        Self::new(network, processes, EwmaPredictor::DEFAULT_GAMMA)
    }

    /// Number of sensors.
    pub fn n(&self) -> usize {
        self.network.n()
    }

    /// Number of chargers.
    pub fn q(&self) -> usize {
        self.network.q()
    }

    /// Battery capacities (the `B_i`).
    pub fn capacities(&self) -> Vec<f64> {
        self.batteries.iter().map(|b| b.capacity()).collect()
    }

    /// True when any sensor's rate varies across slots.
    pub fn is_variable(&self) -> bool {
        self.processes.iter().any(|p| p.is_variable())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perpetuum_geom::Point2;
    use rand::SeedableRng;

    fn net() -> Network {
        Network::new(vec![Point2::new(1.0, 0.0), Point2::new(2.0, 0.0)], vec![Point2::ORIGIN])
    }

    #[test]
    fn fixed_world_setup() {
        let w = World::fixed(net(), &[2.0, 5.0]);
        assert_eq!(w.n(), 2);
        assert_eq!(w.q(), 1);
        assert!(!w.is_variable());
        assert!(w.batteries.iter().all(|b| b.fraction() == 1.0));
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = w.processes.clone();
        assert_eq!(p[0].rate_for_slot(0, &mut rng), 0.5);
        assert_eq!(p[1].rate_for_slot(3, &mut rng), 0.2);
    }

    #[test]
    fn variable_world_setup() {
        let w = World::variable(
            net(),
            &[10.0, 25.0],
            CycleDistribution::Linear { sigma: 2.0 },
            1.0,
            50.0,
        );
        assert!(w.is_variable());
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = w.processes.clone();
        let r = p[0].rate_for_slot(0, &mut rng);
        assert!((1.0 / 12.0 - 1e-12..=1.0 / 8.0 + 1e-12).contains(&r));
    }

    #[test]
    #[should_panic(expected = "one rate process per sensor")]
    fn process_count_checked() {
        World::new(net(), vec![], 0.5);
    }

    #[test]
    fn noise_builder() {
        let w = World::fixed(net(), &[1.0, 2.0]).with_measurement_noise(0.1);
        assert_eq!(w.measurement_noise, 0.1);
        assert_eq!(World::fixed(net(), &[1.0, 2.0]).measurement_noise, 0.0);
    }

    #[test]
    #[should_panic(expected = "noise must be in")]
    fn noise_bounds_checked() {
        World::fixed(net(), &[1.0, 2.0]).with_measurement_noise(1.0);
    }
}
