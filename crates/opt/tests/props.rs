//! Property tests of the refiner as a single-tour improver: started from a
//! nearest-neighbour tour, its 2-opt and Or-opt sweeps only shorten the
//! tour, keep the depot first and keep every node exactly once.

use perpetuum_geom::Point2;
use perpetuum_graph::tsp_heur::nearest_neighbor;
use perpetuum_graph::DistMatrix;
use perpetuum_opt::{Budget, Refiner};
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point2::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn two_opt_never_increases_length(pts in points(4..24), seed in 0u64..8) {
        let d = DistMatrix::from_points(&pts);
        let t = nearest_neighbor(&d, 0);
        let before = t.length(&d);
        let mut r = Refiner::new(vec![t.nodes().to_vec()], &d, seed);
        let out = r.run(&Budget::steps(1_000_000));
        prop_assert!(out.converged);
        let refined = r.into_tours().pop().expect("one tour in, one tour out");
        prop_assert!(refined.length(&d) <= before + 1e-6);
        prop_assert!((before - out.gain - refined.length(&d)).abs() < 1e-6);
        // Still a permutation starting at 0.
        prop_assert_eq!(refined.start(), Some(0));
        let mut nodes: Vec<usize> = refined.nodes().to_vec();
        nodes.sort_unstable();
        prop_assert_eq!(nodes, (0..pts.len()).collect::<Vec<_>>());
    }
}
