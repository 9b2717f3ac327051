//! # perpetuum
//!
//! A full Rust reproduction of *"Towards Perpetual Sensor Networks via
//! Deploying Multiple Mobile Wireless Chargers"* (Wenzheng Xu, Weifa Liang,
//! Xiaola Lin, Guoqiang Mao, Xiaojiang Ren — ICPP 2014): scheduling `q`
//! mobile wireless chargers so that no sensor of a WSN ever runs out of
//! energy over a monitoring period `T`, while minimising the chargers'
//! total travel distance (the *service cost*).
//!
//! This is the umbrella crate: it re-exports the workspace members so
//! downstream users can depend on a single crate.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`geom`] | `perpetuum-geom` | points, fields, deployments, seeded RNG streams |
//! | [`graph`] | `perpetuum-graph` | distance matrices, MST, Euler circuits, exact & heuristic TSP |
//! | [`energy`] | `perpetuum-energy` | batteries, consumption processes, cycle distributions, EWMA predictor |
//! | [`client`] | `perpetuum-client` | the `no_std` sensor-side telemetry client (edge suppression) |
//! | [`opt`] | `perpetuum-opt` | the anytime tour-improvement refiner (Or-opt, 2-opt) |
//! | [`core`] | `perpetuum-core` | Algorithms 1–3, `MinTotalDistance-var`, Greedy, feasibility checking |
//! | [`sim`] | `perpetuum-sim` | the discrete-event charging simulator, its policies, and scenarios |
//! | [`online`] | `perpetuum-online` | the telemetry-driven online controller |
//! | [`serve`] | `perpetuum-serve` | the planning daemon: HTTP API, sessions, journal, plan cache |
//! | [`par`] | `perpetuum-par` | scoped-thread parallel sweeps |
//! | [`exp`] | `perpetuum-exp` | figure-reproduction harness, ablations, extensions and CLI |
//!
//! # Quickstart
//!
//! ```
//! use perpetuum::prelude::*;
//!
//! // A small network: 6 sensors on a ring, one charger depot at the centre.
//! let sensors: Vec<Point2> = (0..6)
//!     .map(|i| {
//!         let a = i as f64 * std::f64::consts::TAU / 6.0;
//!         Point2::new(500.0 + 300.0 * a.cos(), 500.0 + 300.0 * a.sin())
//!     })
//!     .collect();
//! let network = Network::new(sensors, vec![Point2::new(500.0, 500.0)]);
//!
//! // Maximum charging cycles: two hungry sensors, four relaxed ones.
//! let cycles = vec![1.0, 1.0, 4.0, 4.0, 8.0, 8.0];
//! let instance = Instance::new(network, cycles, 64.0);
//!
//! // Algorithm 3: the 2(K+2)-approximation.
//! let plan = plan_min_total_distance(&instance, &MtdConfig::default());
//! assert!(check_series(&instance, &plan).is_ok(), "no sensor ever dies");
//! println!("service cost: {:.1} m over {} dispatches",
//!          plan.service_cost(), plan.dispatch_count());
//! ```

pub use perpetuum_client as client;
pub use perpetuum_core as core;
pub use perpetuum_energy as energy;
pub use perpetuum_exp as exp;
pub use perpetuum_geom as geom;
pub use perpetuum_graph as graph;
pub use perpetuum_online as online;
pub use perpetuum_opt as opt;
pub use perpetuum_par as par;
pub use perpetuum_serve as serve;
pub use perpetuum_sim as sim;

/// The most common imports, re-exported flat.
///
/// # Simulation pipeline
///
/// ```
/// use perpetuum::prelude::*;
///
/// let sensors = vec![Point2::new(100.0, 0.0), Point2::new(0.0, 200.0)];
/// let network = Network::new(sensors, vec![Point2::new(0.0, 0.0)]);
/// let world = World::fixed(network.clone(), &[2.0, 5.0]);
/// let cfg = SimConfig { horizon: 40.0, slot: 10.0, seed: 7, charger_speed: None };
/// let mut policy = MtdPolicy::new(&network);
/// let result = run(world, &cfg, &mut policy);
/// assert!(result.is_perpetual());
/// assert!(result.service_cost > 0.0);
/// ```
pub mod prelude {
    pub use perpetuum_core::bounds::lemma3_lower_bound;
    pub use perpetuum_core::feasibility::check_series;
    pub use perpetuum_core::greedy::{plan_greedy_fixed, GreedyConfig};
    pub use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
    pub use perpetuum_core::network::{Instance, Network};
    pub use perpetuum_core::qmsf::q_rooted_msf_src;
    pub use perpetuum_core::qtsp::q_rooted_tsp_src;
    pub use perpetuum_core::rounding::partition_cycles;
    pub use perpetuum_core::schedule::ScheduleSeries;
    pub use perpetuum_core::var::{replan_variable, VarInput};
    pub use perpetuum_energy::CycleDistribution;
    pub use perpetuum_exp::minmax::min_max_cover;
    pub use perpetuum_exp::split::{split_tour, split_tour_set};
    pub use perpetuum_geom::{Field, Point2};
    pub use perpetuum_sim::{
        run, run_traced, GreedyPolicy, MtdPolicy, SimConfig, SimResult, VarPolicy, World,
    };
}
