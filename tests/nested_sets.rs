//! Algorithm 3 routes its cumulative sets `D_0 ⊂ … ⊂ D_K` top-down: `D_K`
//! from scratch, then each `D_k` from the restriction of `D_{k+1}`'s
//! forest. Every set must come out exactly as an independent Algorithm 2
//! build over it — the same tours, node for node, and the same cost bits —
//! on uniform, clustered and tied-lattice deployments and on the committed
//! Section VII evaluation grid.

use perpetuum::core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum::core::network::{Instance, Network};
use perpetuum::core::qtsp::q_rooted_tsp_src;
use perpetuum::core::rounding::partition_cycles;
use perpetuum::core::schedule::TourSet;
use perpetuum::exp::CustomExperiment;
use perpetuum::geom::{deploy, Field, Point2};
use perpetuum::sim::scenario::{realise_world, Deployment, Scenario};

fn assert_sets_match_independent_builds(instance: &Instance, what: &str) {
    let plan = plan_min_total_distance(instance, &MtdConfig::default());
    let partition = partition_cycles(instance.cycles());
    let network = instance.network();
    let n = network.n();
    assert_eq!(plan.sets().len(), partition.k_max() + 1, "{what}: one set per class");
    for (k, set) in plan.sets().iter().enumerate() {
        let terminals = partition.cumulative(k);
        let alone = q_rooted_tsp_src(&network.dist_source(), &terminals, &network.depot_nodes());
        let alone = TourSet::from_qtours(alone, |v| v >= n);
        assert_eq!(set.sensors(), terminals.as_slice(), "{what} D_{k}: members");
        assert_eq!(set.cost().to_bits(), alone.cost().to_bits(), "{what} D_{k}: cost");
        for (l, (a, b)) in set.tours().iter().zip(alone.tours()).enumerate() {
            assert_eq!(a.nodes(), b.nodes(), "{what} D_{k}: tour of depot {l}");
        }
    }
}

#[test]
fn uniform_deployment() {
    for seed in [3u64, 8] {
        let scenario = Scenario { n: 600, ..Scenario::paper_fixed() };
        let instance = realise_world(scenario, seed, 0).instance();
        assert_sets_match_independent_builds(&instance, &format!("uniform seed {seed}"));
    }
}

#[test]
fn clustered_deployment() {
    for seed in [5u64, 9] {
        let scenario = Scenario {
            n: 600,
            deployment: Deployment::Clustered { clusters: 5, spread: 30.0 },
            ..Scenario::paper_fixed()
        };
        let instance = realise_world(scenario, seed, 1).instance();
        assert_sets_match_independent_builds(&instance, &format!("clustered seed {seed}"));
    }
}

#[test]
fn section7_evaluation_grid() {
    let text = include_str!("../scenarios/grid_section7.json");
    let exp = CustomExperiment::from_json(text).expect("committed scenario parses");
    for &n in &exp.network_sizes {
        let instance = realise_world(Scenario { n, ..exp.scenario }, 42, 0).instance();
        assert_sets_match_independent_builds(&instance, &format!("grid_section7 n={n}"));
    }
}

#[test]
fn lattice_with_tied_weights() {
    // Sensors on a square lattice and depots on its symmetry points: most
    // sensor–sensor and many sensor–depot distances tie, so the strict
    // edge order alone decides each forest.
    let field = Field::paper_default();
    let sensors = deploy::grid_deployment(field, 20, 20);
    let depots = vec![
        field.center(),
        Point2::new(0.0, 0.0),
        Point2::new(1000.0, 0.0),
        Point2::new(0.0, 1000.0),
        Point2::new(1000.0, 1000.0),
    ];
    let cycles: Vec<f64> = (0..sensors.len()).map(|i| 1.0 + (i * 37 % 49) as f64).collect();
    let instance = Instance::new(Network::new(sensors, depots), cycles, 1000.0);
    assert_sets_match_independent_builds(&instance, "lattice 20x20");
}
