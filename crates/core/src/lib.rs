//! The charging-scheduling algorithms of
//! *"Towards Perpetual Sensor Networks via Deploying Multiple Mobile
//! Wireless Chargers"* (Xu, Liang, Lin, Mao, Ren — ICPP 2014).
//!
//! The crate is organised around the paper's structure:
//!
//! | Paper | Module |
//! |---|---|
//! | network model (Section III) | [`network`] |
//! | Algorithm 1 — `q`-rooted minimum spanning forest | [`qmsf`] |
//! | Algorithm 2 — 2-approximate `q`-rooted TSP (tree doubling) | [`qtsp`] |
//! | power-of-two cycle rounding (Section V.A) | [`rounding`] |
//! | charging schedulings & service cost (Section III.B) | [`schedule`] |
//! | Algorithm 3 — `MinTotalDistance` (Section V.B) | [`mtd`] |
//! | `MinTotalDistance-var` replanning (Section VI.B) | [`var`] |
//! | incremental replanning (forest splicing, warm tours) | [`incremental`] |
//! | greedy baseline (Section VII.A) | [`greedy`] |
//! | independent feasibility checking | [`feasibility`] |
//! | degraded-mode recovery on surviving depots | [`recovery`] |
//!
//! # Quick start
//!
//! ```
//! use perpetuum_core::network::{Instance, Network};
//! use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
//! use perpetuum_geom::Point2;
//!
//! // Four sensors around a single depot at the origin.
//! let sensors = vec![
//!     Point2::new(10.0, 0.0),
//!     Point2::new(0.0, 10.0),
//!     Point2::new(-10.0, 0.0),
//!     Point2::new(0.0, -10.0),
//! ];
//! let depots = vec![Point2::new(0.0, 0.0)];
//! let network = Network::new(sensors, depots);
//! // Maximum charging cycles: two urgent sensors, two relaxed ones.
//! let instance = Instance::new(network, vec![1.0, 1.0, 4.0, 4.0], 16.0);
//! let series = plan_min_total_distance(&instance, &MtdConfig::default());
//! assert!(series.service_cost() > 0.0);
//! // The plan keeps every sensor alive for the whole horizon.
//! perpetuum_core::feasibility::check_series(&instance, &series).unwrap();
//! ```

pub mod bounds;
pub mod feasibility;
pub mod greedy;
pub mod incremental;
pub mod mtd;
pub mod network;
pub mod qmsf;
pub mod qtsp;
pub mod recovery;
pub mod refine;
pub mod rounding;
pub mod schedule;
pub mod var;

pub use bounds::lemma3_lower_bound;
pub use feasibility::check_series;
pub use greedy::{plan_greedy_fixed, GreedyConfig};
pub use incremental::IncrementalPlanner;
pub use mtd::{plan_min_total_distance, MtdConfig};
pub use network::{Instance, Network};
pub use qmsf::{q_rooted_msf_src, rooted_msf_general, rooted_msf_points, RootedForest};
pub use qtsp::{q_rooted_tsp_src, tour_from_tree_doubling, QTours};
pub use recovery::degraded_tour_set;
pub use refine::{refine, refine_tour_set, Budget, RefineReport, CONVERGENCE_STEPS};
pub use rounding::{partition_cycles, power_class, CyclePartition};
pub use schedule::{Dispatch, ScheduleSeries, TourSet};
pub use var::{replan_variable, replan_variable_with, RepairStrategy, VarInput};
