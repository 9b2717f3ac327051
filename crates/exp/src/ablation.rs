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
//!   Christofides-style odd-vertex matching ([`crate::tsp_christofides`])
//!   and Clarke–Wright savings ([`crate::tsp_savings`]), with and without
//!   the refiner. Only the tree-to-tour step differs between the arms:
//!   [`with_construction`] rebuilds Algorithm 3's sets and keeps its
//!   dispatch timeline.
//!
//! The refined arms build the plan with Algorithm 3, then call
//! [`refine`] with [`CONVERGENCE_STEPS`] and assert that every tour set
//! converged, so the numbers measure the local optimum, not a budget.

use crate::figures::{FigureData, Series};
use crate::naive::{plan_charge_all, plan_per_sensor_cadence};
use crate::tsp_christofides::tour_from_tree_matched;
use crate::tsp_savings::savings_tour;
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::network::Instance;
use perpetuum_core::qmsf::q_rooted_msf_src;
use perpetuum_core::qtsp::{tour_from_tree_doubling, QTours};
use perpetuum_core::refine::{refine, Budget, CONVERGENCE_STEPS};
use perpetuum_core::rounding::partition_cycles;
use perpetuum_core::schedule::{ScheduleSeries, TourSet};
use perpetuum_core::var::RepairStrategy;
use perpetuum_graph::{DistSource, Metric, Tour};
use perpetuum_par::{mean, par_map, std_dev};
use perpetuum_sim::scenario::Scenario;
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
    /// Tree doubling vs odd-vertex matching vs savings, plain and refined.
    Routing,
}

impl AblationId {
    /// All ablations.
    pub const ALL: [AblationId; 4] =
        [AblationId::Rounding, AblationId::TourPolish, AblationId::Repair, AblationId::Routing];

    /// Parses `"rounding"`, `"tour-polish"` / `"polish"`, `"repair"`,
    /// `"routing"`.
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

/// Network sizes of the fixed-cycle ablations (rounding, polish, routing).
const FIXED_NS: [usize; 3] = [50, 100, 200];

/// The instance the fixed-cycle ablations share: topology `i` of the
/// paper's fixed-cycle scenario at size `n`, horizon 200.
fn fixed_instance(n: usize, seed: u64, i: usize) -> Instance {
    let s = Scenario { n, horizon: 200.0, ..Scenario::paper_fixed() };
    let topo = s.build_topology(seed, i as u64);
    Instance::new(topo.network, topo.init_cycles, s.horizon)
}

/// Runs one ablation with `topologies` replications per point.
pub fn run_ablation(id: AblationId, topologies: usize, seed: u64) -> FigureData {
    match id {
        AblationId::Rounding => {
            let mut cells = Vec::new();
            for n in FIXED_NS {
                let rows = par_map(topologies, |i| {
                    let inst = fixed_instance(n, seed, i);
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
                FIXED_NS.iter().map(|&n| n as f64).collect(),
                &["MinTotalDistance", "per-sensor exact cadence", "charge all every tau_min"],
                cells,
                topologies,
                seed,
            )
        }
        AblationId::TourPolish => {
            let mut cells = Vec::new();
            for n in FIXED_NS {
                let rows = par_map(topologies, |i| {
                    let inst = fixed_instance(n, seed, i);
                    let plain = plan_min_total_distance(&inst, &MtdConfig::default());
                    let refined = refined_to_convergence(&inst, &plain, seed);
                    [plain.service_cost() / 1000.0, refined.service_cost() / 1000.0]
                });
                cells.push(transpose(rows));
            }
            collect(
                id,
                "network size n",
                FIXED_NS.iter().map(|&n| n as f64).collect(),
                &["Algorithm 2 (doubling)", "Algorithm 2 + refiner"],
                cells,
                topologies,
                seed,
            )
        }
        AblationId::Routing => {
            let mut cells = Vec::new();
            for n in FIXED_NS {
                let rows = par_map(topologies, |i| {
                    let inst = fixed_instance(n, seed, i);
                    let km = |plan: &ScheduleSeries| plan.service_cost() / 1000.0;
                    let doubling = plan_min_total_distance(&inst, &MtdConfig::default());
                    let matching = with_construction(&inst, &doubling, Construction::Matching);
                    [
                        km(&doubling),
                        km(&matching),
                        km(&with_construction(&inst, &doubling, Construction::Savings)),
                        km(&refined_to_convergence(&inst, &doubling, seed)),
                        km(&refined_to_convergence(&inst, &matching, seed)),
                    ]
                });
                cells.push(transpose(rows));
            }
            collect(
                id,
                "network size n",
                FIXED_NS.iter().map(|&n| n as f64).collect(),
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

/// A tree-to-tour construction compared by the routing ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    /// Algorithm 2's own step: double the tree, Euler circuit, shortcut.
    Doubling,
    /// The tree plus a greedy matching of its odd-degree vertices, Euler
    /// circuit, shortcut ([`tour_from_tree_matched`]). Still within the
    /// doubling bound: the matching never outweighs the tree.
    Matching,
    /// Clarke–Wright savings over the tree's sensors ([`savings_tour`]);
    /// only the membership comes from Algorithm 1. No approximation
    /// guarantee.
    Savings,
}

/// Algorithm 2 over `terminals` with `construction` as its tree-to-tour
/// step: Algorithm 1's forest, then one tour per root in `roots`.
pub fn q_rooted_tours(
    src: &DistSource<'_>,
    terminals: &[usize],
    roots: &[usize],
    construction: Construction,
) -> QTours {
    let forest = q_rooted_msf_src(src, terminals, roots);
    let groups = forest.terminals_by_root();
    let tours: Vec<Tour> = (0..roots.len())
        .map(|r| {
            let edges = forest.host_edges(r, terminals, roots[r]);
            match construction {
                Construction::Doubling => tour_from_tree_doubling(&edges, roots[r]),
                Construction::Matching => tour_from_tree_matched(src, src.len(), &edges, roots[r]),
                Construction::Savings => {
                    let customers: Vec<usize> = groups[r].iter().map(|&t| terminals[t]).collect();
                    savings_tour(src, roots[r], &customers)
                }
            }
        })
        .collect();
    let tour_lengths: Vec<f64> = tours.iter().map(|t| t.length(src)).collect();
    let cost = tour_lengths.iter().sum();
    QTours { tours, tour_lengths, cost }
}

/// `plan`, Algorithm 3's schedule for `inst`, with each of its `K + 1`
/// cumulative sets `D_k` rebuilt by `construction` and the same dispatch
/// timeline. With [`Construction::Doubling`] the result is `plan` bit for
/// bit, so the arms differ from Algorithm 3 only in the construction.
pub fn with_construction(
    inst: &Instance,
    plan: &ScheduleSeries,
    construction: Construction,
) -> ScheduleSeries {
    let network = inst.network();
    let (n, src, roots) = (network.n(), network.dist_source(), network.depot_nodes());
    let partition = partition_cycles(inst.cycles());
    let mut rebuilt = ScheduleSeries::new();
    for k in 0..=partition.k_max() {
        let qt = q_rooted_tours(&src, &partition.cumulative(k), &roots, construction);
        rebuilt.add_set(TourSet::from_qtours(qt, |v| v >= n));
    }
    for d in plan.dispatches() {
        rebuilt.push_dispatch(d.time, d.set);
    }
    rebuilt
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
    use perpetuum_core::network::Network;
    use perpetuum_core::qtsp::q_rooted_tsp_src;
    use perpetuum_geom::Point2;

    #[test]
    fn parse_ids() {
        assert_eq!(AblationId::parse("rounding"), Some(AblationId::Rounding));
        assert_eq!(AblationId::parse("polish"), Some(AblationId::TourPolish));
        assert_eq!(AblationId::parse("repair"), Some(AblationId::Repair));
        assert_eq!(AblationId::parse("routing"), Some(AblationId::Routing));
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

    #[test]
    fn doubling_rebuild_reproduces_algorithm_3_bit_for_bit() {
        // The matching and savings arms reuse Algorithm 3's cumulative sets
        // and dispatch timeline; with the doubling construction the rebuild
        // must be Algorithm 3 itself, on the routing ablation's scenarios.
        for n in FIXED_NS {
            for i in 0..4 {
                let inst = fixed_instance(n, 42, i);
                let plan = plan_min_total_distance(&inst, &MtdConfig::default());
                let rebuilt = with_construction(&inst, &plan, Construction::Doubling);
                assert_eq!(rebuilt.sets().len(), plan.sets().len(), "n {n} topology {i}");
                for (a, b) in rebuilt.sets().iter().zip(plan.sets()) {
                    assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "n {n} topology {i}");
                    assert_eq!(a.sensors(), b.sensors(), "n {n} topology {i}");
                    for ((ta, la), (tb, lb)) in a
                        .tours()
                        .iter()
                        .zip(a.tour_lengths())
                        .zip(b.tours().iter().zip(b.tour_lengths()))
                    {
                        assert_eq!(ta.nodes(), tb.nodes(), "n {n} topology {i}");
                        assert_eq!(la.to_bits(), lb.to_bits(), "n {n} topology {i}");
                    }
                }
                let times = |s: &ScheduleSeries| -> Vec<(u64, usize)> {
                    s.dispatches().iter().map(|d| (d.time.to_bits(), d.set)).collect()
                };
                assert_eq!(times(&rebuilt), times(&plan), "n {n} topology {i}");
                assert_eq!(
                    rebuilt.service_cost().to_bits(),
                    plan.service_cost().to_bits(),
                    "n {n} topology {i}"
                );
            }
        }
    }

    fn host(sensors: &[Point2], depots: &[Point2]) -> Vec<Point2> {
        sensors.iter().chain(depots.iter()).copied().collect()
    }

    #[test]
    fn matching_routing_covers_and_stays_within_doubling_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let sensors: Vec<Point2> = (0..20)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![Point2::new(500.0, 500.0), Point2::new(0.0, 0.0)];
        let pts = host(&sensors, &depots);
        let dist = DistSource::points(&pts);
        let terminals: Vec<usize> = (0..20).collect();
        let roots = vec![20, 21];
        let forest = q_rooted_msf_src(&dist, &terminals, &roots);
        let matched = q_rooted_tours(&dist, &terminals, &roots, Construction::Matching);
        assert_eq!(matched.covered_nodes(|n| n >= 20), terminals);
        assert!(matched.cost <= 2.0 * forest.weight + 1e-9);
        for (l, t) in matched.tours.iter().enumerate() {
            assert_eq!(t.start(), Some(roots[l]));
        }
    }

    #[test]
    fn savings_routing_covers_and_competes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let sensors: Vec<Point2> = (0..25)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![Point2::new(500.0, 500.0), Point2::new(100.0, 100.0)];
        let pts = host(&sensors, &depots);
        let dist = DistSource::points(&pts);
        let terminals: Vec<usize> = (0..25).collect();
        let roots = vec![25, 26];
        let saved = q_rooted_tours(&dist, &terminals, &roots, Construction::Savings);
        assert_eq!(saved.covered_nodes(|n| n >= 25), terminals);
        for (l, t) in saved.tours.iter().enumerate() {
            assert_eq!(t.start(), Some(roots[l]));
        }
        // No guarantee, but it should at least beat the star bound.
        let star: f64 = terminals
            .iter()
            .map(|&s| 2.0 * roots.iter().map(|&r| dist.get(s, r)).fold(f64::INFINITY, f64::min))
            .sum();
        assert!(saved.cost <= star + 1e-9);
    }

    #[test]
    fn matching_routing_beats_doubling_on_average() {
        use rand::{Rng, SeedableRng};
        let mut matched_total = 0.0;
        let mut doubled_total = 0.0;
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 300);
            let sensors: Vec<Point2> = (0..30)
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let depots = vec![Point2::new(500.0, 500.0)];
            let pts = host(&sensors, &depots);
            let dist = DistSource::points(&pts);
            let terminals: Vec<usize> = (0..30).collect();
            matched_total += q_rooted_tours(&dist, &terminals, &[30], Construction::Matching).cost;
            doubled_total += q_rooted_tsp_src(&dist, &terminals, &[30]).cost;
        }
        assert!(
            matched_total < doubled_total,
            "matched {matched_total} vs doubled {doubled_total}"
        );
    }

    #[test]
    fn matching_routing_is_feasible_and_cheaper_on_average() {
        use rand::{Rng, SeedableRng};
        let mut doubled_total = 0.0;
        let mut matched_total = 0.0;
        for seed in 0..4u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 600);
            let sensors: Vec<Point2> = (0..30)
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let cycles: Vec<f64> = (0..30).map(|_| rng.gen_range(1.0..50.0)).collect();
            let depots = vec![Point2::new(500.0, 500.0)];
            let inst = Instance::new(Network::new(sensors, depots), cycles, 64.0);
            let doubled = plan_min_total_distance(&inst, &MtdConfig::default());
            let matched = with_construction(&inst, &doubled, Construction::Matching);
            perpetuum_core::feasibility::check_series(&inst, &matched).unwrap();
            doubled_total += doubled.service_cost();
            matched_total += matched.service_cost();
        }
        assert!(matched_total < doubled_total);
    }
}
