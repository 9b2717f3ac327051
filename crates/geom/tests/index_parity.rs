//! Property tests: the kd-tree is *exact* — every query agrees with the
//! brute-force oracle on random point clouds, including duplicated points
//! and degenerate layouts.

use perpetuum_geom::index::{knn_lists, BruteForceIndex, KdTree};
use perpetuum_geom::Point2;
use proptest::prelude::*;

prop_compose! {
    fn arb_points(max_n: usize)(
        xy in prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..max_n)
    ) -> Vec<Point2> {
        xy.into_iter().map(|(x, y)| Point2::new(x, y)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn knn_parity_with_brute_force(
        points in arb_points(180),
        k in 1..12usize,
        qx in -100.0..1100.0f64,
        qy in -100.0..1100.0f64,
    ) {
        let q = Point2::new(qx, qy);
        let brute = BruteForceIndex::new(&points);
        let tree = KdTree::new(&points);
        prop_assert_eq!(tree.knn(q, k), brute.knn(q, k));
    }

    #[test]
    fn duplicated_points_keep_parity(
        base in arb_points(40),
        copies in 1..4usize,
        k in 1..8usize,
    ) {
        // Every point appears `copies + 1` times: distance ties everywhere.
        let mut points = base.clone();
        for _ in 0..copies {
            points.extend_from_slice(&base);
        }
        let brute = BruteForceIndex::new(&points);
        let tree = KdTree::new(&points);
        for &q in base.iter().take(10) {
            prop_assert_eq!(tree.knn(q, k), brute.knn(q, k));
        }
    }

    #[test]
    fn knn_lists_parity(points in arb_points(120), k in 1..9usize) {
        // The oracle's lists: each point's k + 1 nearest, minus itself.
        let brute = BruteForceIndex::new(&points);
        let want: Vec<Vec<usize>> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                brute.knn(p, k + 1).into_iter().map(|(j, _)| j).filter(|&j| j != i).take(k).collect()
            })
            .collect();
        prop_assert_eq!(knn_lists(&KdTree::new(&points), k), want);
    }
}
