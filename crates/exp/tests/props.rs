//! Property-based tests for the routing ablation's tree-to-tour
//! constructions.

use perpetuum_core::network::Network;
use perpetuum_exp::ablation::{q_rooted_tours, Construction};
use perpetuum_exp::tsp_christofides::christofides;
use perpetuum_exp::tsp_savings::savings_tour;
use perpetuum_geom::Point2;
use perpetuum_graph::one_tree::one_tree_lower_bound;
use perpetuum_graph::tsp_heur::nearest_neighbor;
use perpetuum_graph::DistMatrix;
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point2::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_constructor_respects_the_one_tree_bound(pts in points(4..24)) {
        let d = DistMatrix::from_points(&pts);
        let lb = one_tree_lower_bound(&d);
        let nn = nearest_neighbor(&d, 0).length(&d);
        let chris = christofides(&d, 0).length(&d);
        let customers: Vec<usize> = (1..pts.len()).collect();
        let sav = savings_tour(&d, 0, &customers).length(&d);
        prop_assert!(nn + 1e-6 >= lb);
        prop_assert!(chris + 1e-6 >= lb);
        prop_assert!(sav + 1e-6 >= lb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_routings_cover_exactly_the_terminals(
        sensors in points(1..20),
        depots in points(1..4),
    ) {
        let n = sensors.len();
        let network = Network::new(sensors, depots);
        let all: Vec<usize> = (0..n).collect();
        let roots = network.depot_nodes();
        for routing in [Construction::Doubling, Construction::Matching, Construction::Savings] {
            let qt = q_rooted_tours(&network.dist_source(), &all, &roots, routing);
            prop_assert_eq!(
                qt.covered_nodes(|v| v >= n),
                all.clone(),
                "routing {:?}", routing
            );
            for (l, t) in qt.tours.iter().enumerate() {
                prop_assert_eq!(t.start(), Some(roots[l]));
            }
            prop_assert!(qt.cost.is_finite() && qt.cost >= 0.0);
        }
    }

    #[test]
    fn matching_routing_within_doubling_bound(
        sensors in points(2..18),
        depots in points(1..3),
    ) {
        let n = sensors.len();
        let network = Network::new(sensors, depots);
        let all: Vec<usize> = (0..n).collect();
        let roots = network.depot_nodes();
        let forest = perpetuum_core::qmsf::q_rooted_msf_src(&network.dist_source(), &all, &roots);
        let matched = q_rooted_tours(&network.dist_source(), &all, &roots, Construction::Matching);
        prop_assert!(matched.cost <= 2.0 * forest.weight + 1e-6);
        prop_assert!(matched.cost + 1e-6 >= forest.weight);
    }
}
