//! Controller state serialization for crash recovery.
//!
//! The controller is deterministic by construction — no clocks, RNG or
//! I/O — so its *complete* state is captured by its construction
//! arguments plus the accepted telemetry stream: rebuilding from the same
//! [`ControllerSeed`] and re-ingesting the same batches yields a
//! byte-identical plan sequence (pinned by `tests/determinism.rs`). A
//! durability layer therefore never needs to serialize the controller's
//! internal fields (predictor EWMAs, forests, deadlines); it journals the
//! seed once and every accepted batch after it. That is also the only
//! *provably* faithful snapshot: a field-by-field dump could silently
//! miss a new field, while seed + replay is exact by the determinism
//! property itself.
//!
//! [`ControllerSeed`] is that genesis record: raw sensor/depot
//! coordinates, per-sensor battery capacities and deployment-time rate
//! estimates, and the full [`OnlineConfig`]. [`ControllerSeed::build`]
//! reconstructs the controller through the exact same constructor path a
//! live session uses ([`Network::new`] + [`OnlineController::new`]), so
//! a recovered controller starts bit-for-bit where the original did.

use crate::controller::{OnlineConfig, OnlineController, OnlineError};
use perpetuum_core::network::Network;
use perpetuum_geom::Point2;

/// Everything needed to reconstruct a freshly created controller:
/// the construction arguments of [`OnlineController::new`], with the
/// network flattened to raw coordinates so the seed is plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSeed {
    /// Sensor positions as `(x, y)`, in sensor-id order.
    pub sensors: Vec<(f64, f64)>,
    /// Depot positions as `(x, y)`, in depot order.
    pub depots: Vec<(f64, f64)>,
    /// Per-sensor battery capacities.
    pub capacities: Vec<f64>,
    /// Deployment-time per-sensor rate estimates.
    pub initial_rates: Vec<f64>,
    /// The controller's tuning knobs.
    pub config: OnlineConfig,
}

impl ControllerSeed {
    /// Captures a seed from the raw construction arguments. The network
    /// is flattened to coordinates, from which [`ControllerSeed::build`]
    /// rebuilds it.
    pub fn new(
        network: &Network,
        capacities: Vec<f64>,
        initial_rates: Vec<f64>,
        config: OnlineConfig,
    ) -> Self {
        Self {
            sensors: network.sensor_positions().iter().map(|p| (p.x, p.y)).collect(),
            depots: (0..network.q()).map(|l| network.depot_pos(l)).map(|p| (p.x, p.y)).collect(),
            capacities,
            initial_rates,
            config,
        }
    }

    /// Validates the geometry a hostile or corrupted seed could carry —
    /// [`Network`]'s constructors `panic!` on these, and a recovery path
    /// must get a typed error instead.
    fn validate(&self) -> Result<(), OnlineError> {
        if self.depots.is_empty() {
            return Err(OnlineError::NoChargers);
        }
        for &(x, y) in self.sensors.iter().chain(&self.depots) {
            if !x.is_finite() {
                return Err(OnlineError::NonFinite { field: "position.x", value: x });
            }
            if !y.is_finite() {
                return Err(OnlineError::NonFinite { field: "position.y", value: y });
            }
        }
        Ok(())
    }

    /// Reconstructs the controller exactly as the original construction
    /// did: same network, same initial full replan. All
    /// other argument validation (capacities, rates, config ranges) is
    /// [`OnlineController::new`]'s own.
    pub fn build(&self) -> Result<OnlineController, OnlineError> {
        self.validate()?;
        let to_points = |coords: &[(f64, f64)]| -> Vec<Point2> {
            coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
        };
        let network = Network::new(to_points(&self.sensors), to_points(&self.depots));
        OnlineController::new(
            network,
            self.capacities.clone(),
            self.initial_rates.clone(),
            self.config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{TelemetryBatch, TelemetryRecord};

    fn seed() -> ControllerSeed {
        ControllerSeed {
            sensors: vec![(10.0, 20.0), (40.0, 20.0), (25.0, 45.0)],
            depots: vec![(25.0, 60.0)],
            capacities: vec![1.0, 1.0, 2.0],
            initial_rates: vec![0.25, 0.125, 0.5],
            config: OnlineConfig::new(100.0),
        }
    }

    #[test]
    fn seed_round_trips_through_a_network() {
        let s = seed();
        let ctl = s.build().expect("valid seed");
        let recaptured = ControllerSeed::new(
            ctl.network(),
            s.capacities.clone(),
            s.initial_rates.clone(),
            s.config,
        );
        assert_eq!(recaptured, s, "capture ∘ build is the identity on seeds");
    }

    #[test]
    fn rebuilt_controller_replays_to_identical_plans() {
        let s = seed();
        let mut a = s.build().expect("build a");
        let mut b = s.build().expect("build b");
        let batches = [
            TelemetryBatch { time: 1.0, records: vec![TelemetryRecord::rate(0, 0.9)] },
            TelemetryBatch { time: 2.5, records: vec![TelemetryRecord::level(2, 0.4)] },
            TelemetryBatch::tick(4.0),
        ];
        for batch in &batches {
            let ra = a.ingest(batch).expect("a ingests");
            let rb = b.ingest(batch).expect("b ingests");
            assert_eq!(ra, rb, "reports diverge at t={}", batch.time);
        }
        assert_eq!(a.plan_json(), b.plan_json(), "plan bytes diverge");
    }

    #[test]
    fn hostile_seeds_are_typed_errors_not_panics() {
        let mut no_depots = seed();
        no_depots.depots.clear();
        assert!(matches!(no_depots.build(), Err(OnlineError::NoChargers)));

        let mut nan_pos = seed();
        nan_pos.sensors[1].1 = f64::NAN;
        assert!(matches!(nan_pos.build(), Err(OnlineError::NonFinite { .. })));

        let mut bad_len = seed();
        bad_len.capacities.pop();
        assert!(matches!(bad_len.build(), Err(OnlineError::LengthMismatch { .. })));

        let mut bad_cap = seed();
        bad_cap.capacities[0] = -1.0;
        assert!(matches!(bad_cap.build(), Err(OnlineError::NotPositive { .. })));
    }
}
