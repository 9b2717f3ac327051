//! Planar geometry substrate for the `perpetuum` workspace.
//!
//! The paper ("Towards Perpetual Sensor Networks via Deploying Multiple
//! Mobile Wireless Chargers", ICPP 2014) models a wireless sensor network as
//! points in a two-dimensional field with Euclidean distances. This crate
//! provides:
//!
//! * [`Point2`] — a 2-D point with the handful of vector operations the
//!   schedulers need,
//! * [`Aabb`] and [`Field`] — axis-aligned regions and the rectangular
//!   deployment field used throughout the evaluation (1000 m × 1000 m in the
//!   paper),
//! * [`deploy`] — random/grid/clustered sensor deployments and depot
//!   placement matching Section VII.A of the paper,
//! * [`index`] — the exact kd-tree (and its brute-force oracle) powering
//!   the near-linear planning pipeline,
//! * [`rng`] — deterministic derivation of per-topology RNG streams from a
//!   single master seed, so every experiment is reproducible bit-for-bit.

pub mod aabb;
pub mod deploy;
pub mod hull;
pub mod index;
pub mod point;
pub mod rng;

pub use aabb::{Aabb, Field};
pub use deploy::{
    clustered_deployment, grid_deployment, halton_deployment, place_depots, uniform_deployment,
    DepotPlacement,
};
pub use hull::{convex_hull, hull_contains, hull_perimeter};
pub use index::{knn_lists, BruteForceIndex, KdTree};
pub use point::Point2;
pub use rng::{derive_seed, derived_rng, master_rng};
