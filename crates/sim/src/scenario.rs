//! Experiment scenarios: the workload generator of Section VII.A.
//!
//! Defaults match the paper exactly: `n` sensors uniform in a 1000 m ×
//! 1000 m field, base station at the centre, `q = 5` depots (one at the
//! base station, the rest uniform), `T = 1000`, `ΔT = 10`, `τ_min = 1`,
//! `τ_max = 50`, linear cycle distribution with `σ = 2`, and each data
//! point averaged over 100 random topologies.

use crate::{
    run_with_faults, FaultModel, GreedyPolicy, MtdPolicy, SimConfig, SimResult, VarPolicy, World,
};
use perpetuum_core::network::Network;
use perpetuum_energy::CycleDistribution;
use perpetuum_geom::Point2;
use perpetuum_geom::{deploy, derived_rng, Field};
use serde::{Deserialize, Serialize};

/// Why a scenario description is rejected. Every malformed input a user
/// can reach through `--scenario` JSON surfaces as one of these instead
/// of a panic deep inside the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The JSON itself failed to parse.
    Json(String),
    /// A numeric field is NaN or infinite.
    NonFinite {
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A field that must be strictly positive is not.
    NonPositive {
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// `q = 0`: an empty depot set can never charge anything.
    EmptyDepots,
    /// `n = 0` (or a zero entry in `network_sizes`).
    NoSensors,
    /// `τ_max < τ_min`.
    BadCycleRange {
        /// Lower bound.
        tau_min: f64,
        /// Upper bound.
        tau_max: f64,
    },
    /// The experiment lists no algorithms to compare.
    NoAlgos,
    /// The fault model's parameters are out of range.
    Faults(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "invalid JSON: {e}"),
            ScenarioError::NonFinite { field, value } => {
                write!(f, "{field} must be finite, got {value}")
            }
            ScenarioError::NonPositive { field, value } => {
                write!(f, "{field} must be positive, got {value}")
            }
            ScenarioError::EmptyDepots => write!(f, "q must be at least 1 (empty depot set)"),
            ScenarioError::NoSensors => write!(f, "n must be at least 1 (no sensors)"),
            ScenarioError::BadCycleRange { tau_min, tau_max } => {
                write!(f, "tau_max {tau_max} is below tau_min {tau_min}")
            }
            ScenarioError::NoAlgos => write!(f, "algos must list at least one algorithm"),
            ScenarioError::Faults(e) => write!(f, "invalid fault model: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which algorithm a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algo {
    /// Algorithm 3, planned once from the initial cycles.
    Mtd,
    /// `MinTotalDistance-var`: Algorithm 3 + applicability-band replanning.
    MtdVar,
    /// The greedy threshold baseline.
    Greedy,
}

impl Algo {
    /// Display name (matches the paper's figure legends).
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Mtd => "MinTotalDistance",
            Algo::MtdVar => "MinTotalDistance-var",
            Algo::Greedy => "Greedy",
        }
    }
}

/// How sensors are placed in the field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Deployment {
    /// Uniform random — the paper's evaluation setting.
    Uniform,
    /// Low-discrepancy Halton pattern (engineered deployments).
    Halton,
    /// Clustered around `clusters` random hot spots with the given spread.
    Clustered {
        /// Number of cluster centres.
        clusters: usize,
        /// Triangular-kernel spread around each centre (m).
        spread: f64,
    },
}

/// A fully specified experiment scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Field width and height (m).
    pub field_size: f64,
    /// Number of sensors `n`.
    pub n: usize,
    /// Number of depots / chargers `q`.
    pub q: usize,
    /// Minimum maximum-charging-cycle `τ_min`.
    pub tau_min: f64,
    /// Maximum maximum-charging-cycle `τ_max`.
    pub tau_max: f64,
    /// Cycle distribution (linear-in-distance or uniform random).
    pub dist: CycleDistribution,
    /// Monitoring period `T`.
    pub horizon: f64,
    /// Slot length `ΔT` (variable-cycle experiments).
    pub slot: f64,
    /// Whether cycles vary over time (Section VI) or stay fixed (Section V).
    pub variable: bool,
    /// Sensor placement pattern (the paper uses [`Deployment::Uniform`]).
    pub deployment: Deployment,
}

impl Scenario {
    /// The paper's default setting (fixed cycles).
    pub fn paper_fixed() -> Self {
        Self {
            field_size: 1000.0,
            n: 200,
            q: 5,
            tau_min: 1.0,
            tau_max: 50.0,
            dist: CycleDistribution::linear_default(),
            horizon: 1000.0,
            slot: 10.0,
            variable: false,
            deployment: Deployment::Uniform,
        }
    }

    /// The paper's default variable-cycle setting.
    pub fn paper_variable() -> Self {
        Self { variable: true, ..Self::paper_fixed() }
    }

    /// The deployment field.
    pub fn field(&self) -> Field {
        Field::new(self.field_size, self.field_size)
    }

    /// Rejects scenarios that cannot be realised: NaN/non-positive sizes
    /// and periods, empty sensor or depot sets, inverted cycle ranges,
    /// degenerate deployments.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let positive = |field: &'static str, value: f64| -> Result<(), ScenarioError> {
            if !value.is_finite() {
                return Err(ScenarioError::NonFinite { field, value });
            }
            if value <= 0.0 {
                return Err(ScenarioError::NonPositive { field, value });
            }
            Ok(())
        };
        positive("field_size", self.field_size)?;
        if self.n == 0 {
            return Err(ScenarioError::NoSensors);
        }
        if self.q == 0 {
            return Err(ScenarioError::EmptyDepots);
        }
        positive("tau_min", self.tau_min)?;
        positive("tau_max", self.tau_max)?;
        if self.tau_max < self.tau_min {
            return Err(ScenarioError::BadCycleRange {
                tau_min: self.tau_min,
                tau_max: self.tau_max,
            });
        }
        positive("horizon", self.horizon)?;
        positive("slot", self.slot)?;
        if let Deployment::Clustered { clusters, spread } = self.deployment {
            if clusters == 0 {
                return Err(ScenarioError::NonPositive { field: "clusters", value: 0.0 });
            }
            if !spread.is_finite() {
                return Err(ScenarioError::NonFinite { field: "spread", value: spread });
            }
            if spread < 0.0 {
                return Err(ScenarioError::NonPositive { field: "spread", value: spread });
            }
        }
        Ok(())
    }

    /// Builds topology number `index` for this scenario under `master_seed`.
    ///
    /// Stream layout: sub-stream 0 drives positions, 1 drives cycles, 2
    /// drives in-simulation rate resampling — so e.g. changing `σ` never
    /// perturbs sensor placement across compared runs.
    pub fn build_topology(&self, master_seed: u64, index: u64) -> Topology {
        let field = self.field();
        let base = perpetuum_geom::derive_seed(master_seed, index);
        let mut pos_rng = derived_rng(base, 0);
        let sensors: Vec<Point2> = match self.deployment {
            Deployment::Uniform => deploy::uniform_deployment(field, self.n, &mut pos_rng),
            Deployment::Halton => {
                // Distinct deterministic pattern per topology index.
                deploy::halton_deployment(field, self.n, (index as usize) * self.n)
            }
            Deployment::Clustered { clusters, spread } => {
                deploy::clustered_deployment(field, clusters, self.n, spread, &mut pos_rng)
            }
        };
        let depots = deploy::place_depots(
            field,
            field.center(),
            self.q,
            deploy::DepotPlacement::OneAtBaseStation,
            &mut pos_rng,
        );
        let network = Network::new(sensors, depots);

        let bs = field.center();
        let mean_cycles =
            self.dist.mean_all(network.sensor_positions(), bs, self.tau_min, self.tau_max);
        let mut cyc_rng = derived_rng(base, 1);
        let init_cycles = self.dist.sample_all(
            network.sensor_positions(),
            bs,
            self.tau_min,
            self.tau_max,
            &mut cyc_rng,
        );

        Topology {
            network,
            mean_cycles,
            init_cycles,
            sim_seed: perpetuum_geom::derive_seed(base, 2),
        }
    }

    /// Builds the simulated world for a topology.
    pub fn build_world(&self, topo: &Topology) -> World {
        if self.variable {
            World::variable(
                topo.network.clone(),
                &topo.mean_cycles,
                self.dist,
                self.tau_min,
                self.tau_max,
            )
        } else {
            World::fixed(topo.network.clone(), &topo.init_cycles)
        }
    }

    /// Runs one `(algorithm, topology)` pair end to end.
    pub fn run_once(&self, algo: Algo, master_seed: u64, index: u64) -> SimResult {
        self.run_once_faulted(algo, master_seed, index, &FaultModel::none())
    }

    /// Like [`Scenario::run_once`] but subjects the run to a fault model
    /// (the robustness extension's entry point). With [`FaultModel::none`]
    /// this is bit-identical to [`Scenario::run_once`].
    pub fn run_once_faulted(
        &self,
        algo: Algo,
        master_seed: u64,
        index: u64,
        faults: &FaultModel,
    ) -> SimResult {
        realise_world(*self, master_seed, index).simulate(algo, faults)
    }
}

/// One realised scenario: the validated description plus the seeded
/// topology it produced and the simulated world over it — everything the
/// CLI and the serving layer need to plan or simulate a request.
#[derive(Debug, Clone)]
pub struct ParsedWorld {
    /// The scenario description.
    pub scenario: Scenario,
    /// The realised topology (network geometry, cycles, sim seed).
    pub topology: Topology,
    /// The simulated world over the topology.
    pub world: World,
}

impl ParsedWorld {
    /// The fixed-cycle planning instance over the realised topology — the
    /// input Algorithm 3 ([`perpetuum_core::mtd::plan_min_total_distance`])
    /// takes. Distances dispatch through the network's `dist_source()`
    /// (dense at paper scale, sparse above the node threshold).
    pub fn instance(&self) -> perpetuum_core::network::Instance {
        perpetuum_core::network::Instance::new(
            self.topology.network.clone(),
            self.topology.init_cycles.clone(),
            self.scenario.horizon,
        )
    }

    /// Runs one algorithm over this world under a fault model, consuming
    /// the realised world (simulation mutates battery state).
    pub fn simulate(self, algo: Algo, faults: &FaultModel) -> SimResult {
        let cfg = SimConfig {
            horizon: self.scenario.horizon,
            slot: self.scenario.slot,
            seed: self.topology.sim_seed,
            charger_speed: None,
        };
        match algo {
            Algo::Mtd => {
                let mut p = MtdPolicy::new(&self.topology.network);
                run_with_faults(self.world, &cfg, &mut p, faults)
            }
            Algo::MtdVar => {
                let mut p = VarPolicy::new(&self.topology.network);
                let mut r = run_with_faults(self.world, &cfg, &mut p, faults);
                r.replans = p.replans();
                r
            }
            Algo::Greedy => {
                let mut p = GreedyPolicy::new(&self.topology.network, self.scenario.tau_min);
                run_with_faults(self.world, &cfg, &mut p, faults)
            }
        }
    }
}

/// Parses a bare [`Scenario`] JSON object, validates it, and realises
/// topology number `index` under `master_seed` — the single scenario→world
/// parser shared by the CLI and the serving daemon, with every malformed
/// input surfacing as a typed [`ScenarioError`].
pub fn parse_world(text: &str, master_seed: u64, index: u64) -> Result<ParsedWorld, ScenarioError> {
    let scenario: Scenario =
        serde_json::from_str(text).map_err(|e| ScenarioError::Json(e.to_string()))?;
    scenario.validate()?;
    Ok(realise_world(scenario, master_seed, index))
}

/// [`parse_world`] over an already-parsed JSON tree — for callers that
/// need the raw [`serde_json::Value`] too (the serving daemon hashes the
/// tree for its plan cache before building anything).
pub fn world_from_value(
    v: &serde_json::Value,
    master_seed: u64,
    index: u64,
) -> Result<ParsedWorld, ScenarioError> {
    let scenario = scenario_from_value(v)?;
    Ok(realise_world(scenario, master_seed, index))
}

/// Parses and validates a [`Scenario`] from a JSON tree.
pub(crate) fn scenario_from_value(v: &serde_json::Value) -> Result<Scenario, ScenarioError> {
    use serde::Deserialize as _;
    let scenario = Scenario::from_value(v).map_err(|e| ScenarioError::Json(e.0))?;
    scenario.validate()?;
    Ok(scenario)
}

/// Realises an already-validated scenario: builds the seeded topology and
/// the simulated world over it.
pub fn realise_world(scenario: Scenario, master_seed: u64, index: u64) -> ParsedWorld {
    let topology = scenario.build_topology(master_seed, index);
    let world = scenario.build_world(&topology);
    ParsedWorld { scenario, topology, world }
}

/// One concrete random topology of a scenario.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Sensor + depot geometry.
    pub network: Network,
    /// Mean cycle `τ̄_i` per sensor (drives slot resampling).
    pub mean_cycles: Vec<f64>,
    /// Initial realised cycles (fixed-cycle experiments use these for the
    /// whole run).
    pub init_cycles: Vec<f64>,
    /// Seed for the in-simulation rate-resampling stream.
    pub sim_seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_7a() {
        let s = Scenario::paper_fixed();
        assert_eq!(s.field_size, 1000.0);
        assert_eq!(s.q, 5);
        assert_eq!(s.tau_min, 1.0);
        assert_eq!(s.tau_max, 50.0);
        assert_eq!(s.horizon, 1000.0);
        assert_eq!(s.slot, 10.0);
        assert!(!s.variable);
        assert!(Scenario::paper_variable().variable);
    }

    #[test]
    fn topology_is_deterministic() {
        let s = Scenario { n: 30, ..Scenario::paper_fixed() };
        let a = s.build_topology(42, 3);
        let b = s.build_topology(42, 3);
        assert_eq!(a.init_cycles, b.init_cycles);
        assert_eq!(a.sim_seed, b.sim_seed);
        assert_eq!(a.network.sensor_positions(), b.network.sensor_positions());
        let c = s.build_topology(42, 4);
        assert_ne!(a.init_cycles, c.init_cycles);
    }

    #[test]
    fn first_depot_at_base_station() {
        let s = Scenario { n: 10, ..Scenario::paper_fixed() };
        let t = s.build_topology(7, 0);
        assert_eq!(t.network.depot_pos(0), s.field().center());
    }

    #[test]
    fn cycles_within_range() {
        let s = Scenario { n: 100, ..Scenario::paper_fixed() };
        let t = s.build_topology(11, 0);
        assert!(t.init_cycles.iter().all(|&c| (s.tau_min..=s.tau_max).contains(&c)));
        assert!(t.mean_cycles.iter().all(|&c| (s.tau_min..=s.tau_max).contains(&c)));
    }

    #[test]
    fn deployment_kinds_produce_valid_topologies() {
        for deployment in [
            Deployment::Uniform,
            Deployment::Halton,
            Deployment::Clustered { clusters: 4, spread: 60.0 },
        ] {
            let s = Scenario { n: 25, deployment, ..Scenario::paper_fixed() };
            let t = s.build_topology(3, 1);
            assert_eq!(t.network.n(), 25);
            let bounds = s.field().bounds();
            assert!(t.network.sensor_positions().iter().all(|&p| bounds.contains(p)));
            // Halton is deterministic per index, independent of the seed.
            if deployment == Deployment::Halton {
                let t2 =
                    Scenario { n: 25, deployment, ..Scenario::paper_fixed() }.build_topology(99, 1);
                assert_eq!(t.network.sensor_positions(), t2.network.sensor_positions());
            }
        }
    }

    #[test]
    fn malformed_scenarios_are_rejected_with_typed_errors() {
        let base = Scenario { n: 10, ..Scenario::paper_fixed() };
        assert_eq!(base.validate(), Ok(()));
        assert_eq!(Scenario { q: 0, ..base }.validate(), Err(ScenarioError::EmptyDepots));
        assert_eq!(Scenario { n: 0, ..base }.validate(), Err(ScenarioError::NoSensors));
        assert_eq!(
            Scenario { field_size: -10.0, ..base }.validate(),
            Err(ScenarioError::NonPositive { field: "field_size", value: -10.0 })
        );
        assert!(matches!(
            Scenario { horizon: f64::NAN, ..base }.validate(),
            Err(ScenarioError::NonFinite { field: "horizon", .. })
        ));
        assert_eq!(
            Scenario { tau_min: 5.0, tau_max: 2.0, ..base }.validate(),
            Err(ScenarioError::BadCycleRange { tau_min: 5.0, tau_max: 2.0 })
        );
        assert_eq!(
            Scenario { slot: 0.0, ..base }.validate(),
            Err(ScenarioError::NonPositive { field: "slot", value: 0.0 })
        );
        assert!(matches!(
            Scenario { deployment: Deployment::Clustered { clusters: 0, spread: 1.0 }, ..base }
                .validate(),
            Err(ScenarioError::NonPositive { field: "clusters", .. })
        ));
        // Errors print actionable diagnostics.
        let msg = ScenarioError::BadCycleRange { tau_min: 5.0, tau_max: 2.0 }.to_string();
        assert!(msg.contains("tau_max 2"), "{msg}");
    }

    #[test]
    fn parse_world_realises_and_rejects_like_run_once() {
        let json = r#"{
            "field_size": 1000.0, "n": 12, "q": 3,
            "tau_min": 1.0, "tau_max": 20.0,
            "dist": { "Linear": { "sigma": 2.0 } },
            "horizon": 60.0, "slot": 10.0,
            "variable": false, "deployment": "Uniform"
        }"#;
        let pw = match parse_world(json, 9, 0) {
            Ok(pw) => pw,
            Err(e) => panic!("valid scenario rejected: {e}"),
        };
        assert_eq!(pw.topology.network.n(), 12);
        assert_eq!(pw.topology.network.q(), 3);
        // The planning instance is buildable and plans feasibly.
        let inst = pw.instance();
        let plan = perpetuum_core::mtd::plan_min_total_distance(
            &inst,
            &perpetuum_core::mtd::MtdConfig::default(),
        );
        assert!(plan.service_cost() > 0.0);
        // simulate() goes through the exact run_once_faulted path.
        let via_parse = pw.simulate(Algo::Mtd, &FaultModel::none());
        let direct: Scenario = match serde_json::from_str(json) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(via_parse, direct.run_once(Algo::Mtd, 9, 0));
        // The typed error surface is shared with the CLI path.
        assert!(matches!(parse_world("{", 0, 0), Err(ScenarioError::Json(_))));
        let bad = json.replace(r#""q": 3"#, r#""q": 0"#);
        assert_eq!(parse_world(&bad, 0, 0).unwrap_err(), ScenarioError::EmptyDepots);
    }

    #[test]
    fn run_once_faulted_none_matches_run_once() {
        let s = Scenario { n: 12, horizon: 80.0, ..Scenario::paper_fixed() };
        let plain = s.run_once(Algo::Mtd, 9, 0);
        let faulted = s.run_once_faulted(Algo::Mtd, 9, 0, &FaultModel::none());
        assert_eq!(plain, faulted);
        // A breakdown-heavy model changes the outcome and records faults.
        let fm = FaultModel::none().with_breakdowns(20.0, 30.0).with_seed(1);
        let broken = s.run_once_faulted(Algo::Mtd, 9, 0, &fm);
        assert!(broken.faults.breakdowns > 0);
    }

    #[test]
    fn run_once_all_algorithms_survive_small_case() {
        let s = Scenario { n: 15, horizon: 100.0, ..Scenario::paper_fixed() };
        for algo in [Algo::Mtd, Algo::Greedy] {
            let r = s.run_once(algo, 5, 0);
            assert!(r.is_perpetual(), "{}: {:?}", algo.name(), r.deaths);
            assert!(r.service_cost > 0.0);
        }
        let sv = Scenario { variable: true, ..s };
        for algo in [Algo::MtdVar, Algo::Greedy] {
            let r = sv.run_once(algo, 5, 0);
            assert!(r.is_perpetual(), "{} var: {:?}", algo.name(), r.deaths);
        }
    }
}
