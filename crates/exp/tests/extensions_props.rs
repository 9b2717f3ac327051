//! Property-based tests for the extension modules: range splitting and
//! min–max covers.

use perpetuum_core::network::Network;
use perpetuum_core::qtsp::q_rooted_tsp_src;
use perpetuum_exp::minmax::min_max_cover;
use perpetuum_exp::split::split_tour;
use perpetuum_geom::Point2;
use perpetuum_graph::{DistMatrix, Tour};
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point2::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn split_preserves_coverage_and_respects_range(
        pts in points(3..20),
        frac in 0.3..1.0f64,
    ) {
        // Tour over all points with node 0 as depot.
        let d = DistMatrix::from_points(&pts);
        let tour = Tour::new((0..pts.len()).collect());
        let full = tour.length(&d);
        // Range between the worst round trip and the full tour.
        let worst_rt = (1..pts.len())
            .map(|v| 2.0 * d.get(0, v))
            .fold(0.0f64, f64::max);
        let max_len = worst_rt.max(full * frac);
        let trips = split_tour(&d, &tour, max_len).unwrap();
        // Every trip within range, starting at the depot.
        for t in &trips {
            prop_assert!(t.length(&d) <= max_len + 1e-6);
            prop_assert_eq!(t.start(), Some(0));
        }
        // Coverage preserved in original order.
        let covered: Vec<usize> = trips
            .iter()
            .flat_map(|t| t.nodes()[1..].iter().copied())
            .collect();
        prop_assert_eq!(covered, (1..pts.len()).collect::<Vec<_>>());
        // Splitting never shortens the total.
        let total: f64 = trips.iter().map(|t| t.length(&d)).sum();
        prop_assert!(total + 1e-6 >= full.min(max_len) || total + 1e-6 >= full || trips.len() == 1);
        if trips.len() == 1 {
            prop_assert!((total - full).abs() < 1e-6);
        } else {
            prop_assert!(total >= full - 1e-6);
        }
    }

    #[test]
    fn minmax_cover_valid_and_never_worse_span_than_alg2(
        sensors in points(2..16),
        depots in points(1..4),
    ) {
        let n = sensors.len();
        let network = Network::new(sensors, depots);
        let all: Vec<usize> = (0..n).collect();
        let qt = q_rooted_tsp_src(&network.dist_source(), &all, &network.depot_nodes());
        let alg2_span = qt
            .tours
            .iter()
            .map(|t| t.length(&network.dist_source()))
            .fold(0.0f64, f64::max);
        let mm = min_max_cover(&network, &all, 100);
        prop_assert!(mm.makespan <= alg2_span + 1e-6);
        // Coverage and assignment validity.
        let mut covered: Vec<usize> = mm
            .tours
            .iter()
            .flat_map(|t| t.nodes().iter().copied())
            .filter(|&v| v < n)
            .collect();
        covered.sort_unstable();
        prop_assert_eq!(covered, all);
        prop_assert!(mm.assignment.iter().all(|&a| a < network.q()));
        prop_assert!(mm.makespan <= mm.total + 1e-9);
    }

}
