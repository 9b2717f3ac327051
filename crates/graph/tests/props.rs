//! Property-based tests for the graph crate.

use perpetuum_geom::hull::hull_perimeter;
use perpetuum_geom::Point2;
use perpetuum_graph::euler::{double_edges, euler_circuit, is_euler_circuit};
use perpetuum_graph::mst::{is_spanning_tree, kruskal, prim, tree_weight};
use perpetuum_graph::one_tree::one_tree_lower_bound;
use perpetuum_graph::tsp_exact::held_karp;
use perpetuum_graph::tsp_heur::nearest_neighbor;
use perpetuum_graph::{DistMatrix, Tour};
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point2::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn euclidean_matrices_are_metric(pts in points(2..24)) {
        let d = DistMatrix::from_points(&pts);
        prop_assert!(d.is_metric(1e-6));
    }

    #[test]
    fn prim_produces_spanning_tree_matching_kruskal(pts in points(2..32)) {
        let n = pts.len();
        let d = DistMatrix::from_points(&pts);
        let p = prim(&d);
        prop_assert!(is_spanning_tree(n, &p));
        let edges: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, d.get(i, j)))
            .collect();
        let k = kruskal(n, &edges);
        prop_assert!(is_spanning_tree(n, &k));
        prop_assert!((tree_weight(&d, &p) - tree_weight(&d, &k)).abs() < 1e-6);
    }

    #[test]
    fn doubled_mst_euler_shortcut_within_twice_mst(pts in points(3..28)) {
        // The exact pipeline of Algorithm 2, on a single (un-rooted) tree.
        let n = pts.len();
        let d = DistMatrix::from_points(&pts);
        let mst = prim(&d);
        let w_mst = tree_weight(&d, &mst);
        let doubled = double_edges(&mst);
        let circ = euler_circuit(n, &doubled, 0).expect("doubled tree is Eulerian");
        prop_assert!(is_euler_circuit(&doubled, 0, &circ));
        let tour = Tour::shortcut(&circ);
        prop_assert_eq!(tour.len(), n);
        prop_assert!(tour.length(&d) <= 2.0 * w_mst + 1e-6);
    }

    #[test]
    fn mst_lower_bounds_tsp_optimum(pts in points(3..10)) {
        let d = DistMatrix::from_points(&pts);
        let mst_w = tree_weight(&d, &prim(&d));
        let (_, opt) = held_karp(&d);
        // Removing one edge from the optimal tour yields a spanning tree.
        prop_assert!(mst_w <= opt + 1e-6);
        // And tree doubling caps the approximation at 2x.
        prop_assert!(opt <= 2.0 * mst_w + 1e-6);
    }

    #[test]
    fn shortcut_is_subsequence_of_first_visits(walk in prop::collection::vec(0usize..12, 1..48)) {
        let t = Tour::shortcut(&walk);
        // Every node of the walk appears exactly once.
        let mut expected: Vec<usize> = Vec::new();
        for &v in &walk {
            if !expected.contains(&v) {
                expected.push(v);
            }
        }
        prop_assert_eq!(t.nodes(), &expected[..]);
    }

    #[test]
    fn held_karp_beats_or_matches_nearest_neighbor(pts in points(3..9)) {
        let d = DistMatrix::from_points(&pts);
        let (_, opt) = held_karp(&d);
        let nn = nearest_neighbor(&d, 0).length(&d);
        prop_assert!(opt <= nn + 1e-6);
    }

    #[test]
    fn bound_sandwich_hull_one_tree_optimum(pts in points(4..10)) {
        // hull perimeter ≤ 1-tree bound is NOT generally true; but both
        // lower-bound the optimum, and the optimum lower-bounds any
        // constructed tour.
        let d = DistMatrix::from_points(&pts);
        let (_, opt) = held_karp(&d);
        prop_assert!(hull_perimeter(&pts) <= opt + 1e-6);
        prop_assert!(one_tree_lower_bound(&d) <= opt + 1e-6);
        let nn = nearest_neighbor(&d, 0).length(&d);
        prop_assert!(opt <= nn + 1e-6);
    }

}
