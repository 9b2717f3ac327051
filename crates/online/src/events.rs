//! Suppressed-telemetry event batches.
//!
//! The `perpetuum-client` crate runs the controller's own per-sensor
//! estimator (`perpetuum_energy::predictor::SensorEstimator`) on the
//! sensor itself; slots whose achievable cycle stays inside the
//! applicability band are never transmitted. When the band *is* left, the
//! sensor sends a [`ClassEvent`] carrying its exact post-observation
//! estimator state — the EWMA prediction `ρ̂`, the raw slot observation and
//! the settled energy level. The controller adopts that state verbatim
//! (`SensorEstimator::adopt`) instead of re-observing, which is what makes
//! suppression lossless: the reconstructed estimator is bit-identical to
//! the one the full per-slot stream would have produced, so the plan
//! sequence is too (pinned by the serve-level suppression property test).
//!
//! A batch with [`EventBatch::sync`] set must carry one event per sensor —
//! the fleet-wide state refresh the controller demands (via
//! `OnlineError::SyncRequired`) before it runs a *full* replan, whose new
//! `τ₁` grid depends on every sensor's current estimate, not just the
//! drifted ones. Incremental replans touch only the evented sensors and
//! need no sync.
//!
//! [`EventBatch::observed`]/[`EventBatch::sent`] are the client-side
//! suppression counters **as deltas since the previous accepted batch**
//! (a rejected batch must be retried with the same deltas); the serve
//! layer sums them into the `perpetuum_frames_suppressed_ratio` metric.

use serde::{Deserialize, Serialize};

/// One sensor's estimator state at the slot that pushed it out of band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassEvent {
    /// Sensor index in `0..n`.
    pub sensor: usize,
    /// EWMA prediction `ρ̂(t+1)` after the slot's observation (may be ≤ 0
    /// after idle/harvesting slots).
    pub rho_hat: f64,
    /// The raw rate observed in the slot (`≥ 0`).
    pub last_rate: f64,
    /// Energy level settled to the batch timestamp (`≥ 0`; clamped to the
    /// battery capacity on ingest).
    pub level: f64,
}

impl ClassEvent {
    /// Convenience constructor.
    pub fn new(sensor: usize, rho_hat: f64, last_rate: f64, level: f64) -> Self {
        Self { sensor, rho_hat, last_rate, level }
    }
}

/// A batch of suppressed-telemetry events sharing one timestamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventBatch {
    /// Slot timestamp (controller clock).
    pub time: f64,
    /// Fleet-wide state refresh: when set, `events` must cover every
    /// sensor exactly once. Required for batches that trigger a full
    /// replan.
    #[serde(default)]
    pub sync: bool,
    /// The events; at most one per sensor is meaningful (the last wins).
    #[serde(default)]
    pub events: Vec<ClassEvent>,
    /// Client-side slots observed since the previous accepted batch.
    #[serde(default)]
    pub observed: u64,
    /// Client-side event records put on the wire since the previous
    /// accepted batch (sync records included).
    #[serde(default)]
    pub sent: u64,
}

impl EventBatch {
    /// An ordinary (non-sync) batch with zeroed counters.
    pub fn new(time: f64, events: Vec<ClassEvent>) -> Self {
        Self { time, sync: false, events, observed: 0, sent: 0 }
    }
}
