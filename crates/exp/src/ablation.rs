//! Ablation experiments for the design choices DESIGN.md calls out.
//!
//! These are not paper figures; they quantify *why* the paper's design
//! decisions pay off:
//!
//! * **rounding** — power-of-two cycle rounding + dispatch alignment
//!   (Algorithm 3) versus charging each sensor at its exact cadence with
//!   no tour sharing, and versus charging everyone every `τ_min`;
//! * **tour-polish** — how much of Algorithm 2's tree-doubling slack the
//!   `perpetuum-opt` refiner recovers when run to a local optimum (the
//!   guarantee says ≤ 2×, practice is usually much tighter);
//! * **repair** — `MinTotalDistance-var`'s nearest-scheduling `V^a`
//!   insertion versus naively charging all of `V^a` immediately;
//! * **routing** — Algorithm 2's tree doubling versus the
//!   Christofides-style odd-vertex matching, with and without the refiner.
//!
//! The refined arms build the plan with Algorithm 3, then call
//! [`refine`] with [`CONVERGENCE_STEPS`] and assert that every tour set
//! converged, so the numbers measure the local optimum, not a budget.

use crate::figures::{FigureData, Series};
use crate::scenario::Scenario;
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::naive::{plan_charge_all, plan_per_sensor_cadence};
use perpetuum_core::network::Instance;
use perpetuum_core::qtsp::Routing;
use perpetuum_core::refine::{refine, Budget, CONVERGENCE_STEPS};
use perpetuum_core::schedule::ScheduleSeries;
use perpetuum_core::var::RepairStrategy;
use perpetuum_par::{mean, par_map, std_dev};
use perpetuum_sim::{run, SimConfig, VarPolicy};

/// Identifier of an ablation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationId {
    /// Power-of-two rounding + alignment vs exact cadence vs charge-all.
    Rounding,
    /// Algorithm 2 plain vs refined to a local optimum.
    TourPolish,
    /// Nearest-scheduling `V^a` repair vs charge-all-now.
    Repair,
    /// Tree doubling vs odd-vertex matching, plain and refined.
    Routing,
}

impl AblationId {
    /// All ablations.
    pub const ALL: [AblationId; 4] =
        [AblationId::Rounding, AblationId::TourPolish, AblationId::Repair, AblationId::Routing];

    /// Parses `"rounding"`, `"tour-polish"` / `"polish"`, `"repair"`.
    pub fn parse(s: &str) -> Option<AblationId> {
        match s.to_ascii_lowercase().as_str() {
            "rounding" => Some(AblationId::Rounding),
            "tour-polish" | "polish" => Some(AblationId::TourPolish),
            "repair" => Some(AblationId::Repair),
            "routing" => Some(AblationId::Routing),
            _ => None,
        }
    }

    /// Short id for file names.
    pub fn id(&self) -> &'static str {
        match self {
            AblationId::Rounding => "ablation_rounding",
            AblationId::TourPolish => "ablation_tour_polish",
            AblationId::Repair => "ablation_repair",
            AblationId::Routing => "ablation_routing",
        }
    }

    /// Caption.
    pub fn title(&self) -> &'static str {
        match self {
            AblationId::Rounding => {
                "Ablation: power-of-2 rounding + alignment vs exact cadence vs charge-all"
            }
            AblationId::TourPolish => "Ablation: Algorithm 2 plain vs + refiner",
            AblationId::Repair => {
                "Ablation: V^a nearest-scheduling repair vs charge-all-now repair"
            }
            AblationId::Routing => {
                "Ablation: tree doubling vs odd-vertex matching routing (plain / + refiner)"
            }
        }
    }
}

fn collect(
    id: AblationId,
    x_label: &str,
    xs: Vec<f64>,
    names: &[&str],
    cells: Vec<Vec<Vec<f64>>>, // [x][variant][samples] in km
    topologies: usize,
    seed: u64,
) -> FigureData {
    let mut series: Vec<Series> = names
        .iter()
        .map(|n| Series {
            name: n.to_string(),
            values: Vec::new(),
            std_devs: Vec::new(),
            deaths: Vec::new(),
        })
        .collect();
    for per_x in &cells {
        for (vi, samples) in per_x.iter().enumerate() {
            series[vi].values.push(mean(samples));
            series[vi].std_devs.push(std_dev(samples));
            series[vi].deaths.push(0);
        }
    }
    FigureData {
        id: id.id().to_string(),
        title: id.title().to_string(),
        x_label: x_label.to_string(),
        xs,
        series,
        topologies,
        seed,
    }
}

/// Runs one ablation with `topologies` replications per point.
pub fn run_ablation(id: AblationId, topologies: usize, seed: u64) -> FigureData {
    match id {
        AblationId::Rounding => {
            let ns = [50usize, 100, 200];
            let mut cells = Vec::new();
            for &n in &ns {
                let s = Scenario { n, horizon: 200.0, ..Scenario::paper_fixed() };
                let rows = par_map(topologies, |i| {
                    let topo = s.build_topology(seed, i as u64);
                    let inst =
                        Instance::new(topo.network.clone(), topo.init_cycles.clone(), s.horizon);
                    let mtd = plan_min_total_distance(&inst, &MtdConfig::default()).service_cost();
                    let per_sensor = plan_per_sensor_cadence(&inst).service_cost();
                    let charge_all = plan_charge_all(&inst).service_cost();
                    [mtd / 1000.0, per_sensor / 1000.0, charge_all / 1000.0]
                });
                cells.push(transpose(rows));
            }
            collect(
                id,
                "network size n",
                ns.iter().map(|&n| n as f64).collect(),
                &["MinTotalDistance", "per-sensor exact cadence", "charge all every tau_min"],
                cells,
                topologies,
                seed,
            )
        }
        AblationId::TourPolish => {
            let ns = [50usize, 100, 200];
            let mut cells = Vec::new();
            for &n in &ns {
                let s = Scenario { n, horizon: 200.0, ..Scenario::paper_fixed() };
                let rows = par_map(topologies, |i| {
                    let topo = s.build_topology(seed, i as u64);
                    let inst =
                        Instance::new(topo.network.clone(), topo.init_cycles.clone(), s.horizon);
                    let plain = plan_min_total_distance(&inst, &MtdConfig::default());
                    let refined = refined_to_convergence(&inst, &plain, seed);
                    [plain.service_cost() / 1000.0, refined.service_cost() / 1000.0]
                });
                cells.push(transpose(rows));
            }
            collect(
                id,
                "network size n",
                ns.iter().map(|&n| n as f64).collect(),
                &["Algorithm 2 (doubling)", "Algorithm 2 + refiner"],
                cells,
                topologies,
                seed,
            )
        }
        AblationId::Routing => {
            let ns = [50usize, 100, 200];
            let mut cells = Vec::new();
            for &n in &ns {
                let s = Scenario { n, horizon: 200.0, ..Scenario::paper_fixed() };
                let rows = par_map(topologies, |i| {
                    let topo = s.build_topology(seed, i as u64);
                    let inst =
                        Instance::new(topo.network.clone(), topo.init_cycles.clone(), s.horizon);
                    let plan =
                        |routing: Routing| plan_min_total_distance(&inst, &MtdConfig { routing });
                    let km = |plan: &ScheduleSeries| plan.service_cost() / 1000.0;
                    let (doubling, matching) = (plan(Routing::Doubling), plan(Routing::Matching));
                    [
                        km(&doubling),
                        km(&matching),
                        km(&plan(Routing::Savings)),
                        km(&refined_to_convergence(&inst, &doubling, seed)),
                        km(&refined_to_convergence(&inst, &matching, seed)),
                    ]
                });
                cells.push(transpose(rows));
            }
            collect(
                id,
                "network size n",
                ns.iter().map(|&n| n as f64).collect(),
                &[
                    "doubling (Algorithm 2)",
                    "matching",
                    "savings (Clarke-Wright)",
                    "doubling + refiner",
                    "matching + refiner",
                ],
                cells,
                topologies,
                seed,
            )
        }
        AblationId::Repair => {
            let sigmas = [2.0, 10.0, 30.0];
            let mut cells = Vec::new();
            for &sigma in &sigmas {
                let s = Scenario {
                    n: 100,
                    horizon: 300.0,
                    dist: perpetuum_energy::CycleDistribution::Linear { sigma },
                    ..Scenario::paper_variable()
                };
                let rows = par_map(topologies, |i| {
                    let topo = s.build_topology(seed, i as u64);
                    let cfg = SimConfig {
                        horizon: s.horizon,
                        slot: s.slot,
                        seed: topo.sim_seed,
                        charger_speed: None,
                    };
                    let mut nearest = VarPolicy::new(&topo.network);
                    let rn = run(s.build_world(&topo), &cfg, &mut nearest);
                    let mut naive = VarPolicy::new(&topo.network);
                    naive.repair = RepairStrategy::ChargeAllNow;
                    let ra = run(s.build_world(&topo), &cfg, &mut naive);
                    [rn.service_cost / 1000.0, ra.service_cost / 1000.0]
                });
                cells.push(transpose(rows));
            }
            collect(
                id,
                "sigma",
                sigmas.to_vec(),
                &["nearest-scheduling repair", "charge-all-now repair"],
                cells,
                topologies,
                seed,
            )
        }
    }
}

/// `plan` refined by the `perpetuum-opt` refiner until every tour set is
/// at a local optimum.
fn refined_to_convergence(inst: &Instance, plan: &ScheduleSeries, seed: u64) -> ScheduleSeries {
    let (refined, report) = refine(inst.network(), plan, &Budget::steps(CONVERGENCE_STEPS), seed);
    assert!(report.converged, "refinement stopped short of a local optimum");
    refined
}

/// `rows[sample][variant]` → `out[variant][sample]`.
#[allow(clippy::needless_range_loop)]
fn transpose<const V: usize>(rows: Vec<[f64; V]>) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::with_capacity(rows.len()); V];
    for row in rows {
        for (v, x) in row.into_iter().enumerate() {
            out[v].push(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ids() {
        assert_eq!(AblationId::parse("rounding"), Some(AblationId::Rounding));
        assert_eq!(AblationId::parse("polish"), Some(AblationId::TourPolish));
        assert_eq!(AblationId::parse("repair"), Some(AblationId::Repair));
        assert_eq!(AblationId::parse("nope"), None);
    }

    #[test]
    fn rounding_ablation_orders_variants() {
        let fd = run_ablation(AblationId::Rounding, 2, 5);
        // MTD beats both strawmen at every point.
        for i in 0..fd.xs.len() {
            let mtd = fd.series[0].values[i];
            let per_sensor = fd.series[1].values[i];
            let charge_all = fd.series[2].values[i];
            assert!(mtd < per_sensor, "point {i}: {mtd} vs per-sensor {per_sensor}");
            assert!(mtd < charge_all, "point {i}: {mtd} vs charge-all {charge_all}");
        }
    }

    #[test]
    fn routing_ablation_matching_helps() {
        let fd = run_ablation(AblationId::Routing, 2, 8);
        for i in 0..fd.xs.len() {
            // Matching beats plain doubling; refined doubling beats plain.
            assert!(fd.series[1].values[i] <= fd.series[0].values[i] + 1e-9);
            assert!(fd.series[3].values[i] <= fd.series[0].values[i] + 1e-9);
            // Savings has no guarantee but should stay in the same league.
            assert!(fd.series[2].values[i] <= fd.series[0].values[i] * 1.3);
        }
    }

    #[test]
    fn polish_ablation_never_worse() {
        let fd = run_ablation(AblationId::TourPolish, 2, 6);
        for i in 0..fd.xs.len() {
            assert!(fd.series[1].values[i] <= fd.series[0].values[i] + 1e-9);
        }
    }
}
